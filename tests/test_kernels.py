import warnings

import numpy as np
import pytest

from pbicm import kernels
from pbicm.channel import Awgn, make_rng
from pbicm.constellation import make_constellation
from pbicm.subchannel import LLR_MAX, SubchannelView, label_sets, llr_matrix


def _random_outputs(n, seed=0):
    rng = make_rng(seed)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    return y, h


def test_llr_no_fading_matches_unit_h():
    (axis,) = make_constellation("PSK8").axes  # one 2-D axis over every bit
    sets = label_sets(axis.L)
    y, _ = _random_outputs(1000, seed=3)
    coords = np.stack([y.real, y.imag], axis=1)
    a = kernels.llr_batch(coords, None, axis.points, 0.5, sets, LLR_MAX)
    b = kernels.llr_batch(coords, np.ones(y.size), axis.points, 0.5, sets, LLR_MAX)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_log_mean_of_all_minus_infinity_is_minus_infinity():
    # a Dmc output that no label of a sub-channel set produces
    a = np.array([[-np.inf, 0.0, -np.inf], [-np.inf, -1.0, -2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.log_mean(a, 0)
        assert kernels.log_mean(np.full(4, -np.inf), 0) == -np.inf
    assert got[0] == -np.inf
    assert got[1] == pytest.approx(np.log((1 + np.exp(-1.0)) / 2), rel=1e-15)
    assert got[2] == pytest.approx(np.log(np.exp(-2.0) / 2), rel=1e-15)


@pytest.mark.parametrize("axis", [0, 1])
def test_log_mean_of_finite_input_is_the_shifted_formula_bit_for_bit(axis):
    a = make_rng(5).normal(scale=30.0, size=(16, 257))
    peak = a.max(axis=axis, keepdims=True)
    want = np.squeeze(peak, axis) + np.log(np.exp(a - peak).mean(axis=axis))
    np.testing.assert_array_equal(kernels.log_mean(a, axis), want)


def _per_set_log_mean(log_rows, sets):
    """The sub-channel law summed one set at a time, each shifted by its own peak."""
    return np.stack([kernels.log_mean(log_rows[sets[s]], 1) for s in range(sets.shape[0])])


@pytest.mark.parametrize("n0", [1.0, 1e-2, 1e-4, 1e-8])
def test_log_subchannel_matches_per_set_log_mean_to_rounding(n0):
    (axis,) = make_constellation("PSK8").axes
    y, _ = _random_outputs(2000, seed=6)
    rows = kernels.log_densities(np.stack([y.real, y.imag], axis=1), None, axis.points, n0)
    sets = label_sets(axis.L)
    want = _per_set_log_mean(rows, sets)
    np.testing.assert_allclose(kernels.log_subchannel(rows, sets), want, rtol=1e-14, atol=1e-12)


def test_log_subchannel_of_single_label_sets_is_the_rows_bit_for_bit():
    # a 2-point axis (BPSK, each QPSK axis) or a binary-input Dmc: each set is one label
    rows = make_rng(7).normal(scale=1e4, size=(2, 500))
    rows[1, :7] = -np.inf
    got = kernels.log_subchannel(rows, label_sets(1))
    np.testing.assert_array_equal(got, _per_set_log_mean(rows, label_sets(1)))
    np.testing.assert_array_equal(got, rows[None])
    assert np.shares_memory(got, rows)  # the rows themselves, held once


def test_log_subchannel_falls_back_to_per_set_log_mean_where_a_set_underflows():
    # labels 0..3 at -3, -1, 1, 3 with n0 = 1e-3: log densities are -1000 (y - x)^2
    # nats.  At y = 0 every set is within 1e3 nats of the output's peak.  At y = -1
    # the sets without label 1 ({2, 3} and {0, 2}) peak 4e3 nats below it, and at
    # y = 40 those without label 3 ({0, 1} and {0, 2}) 1.5e5 nats below: past
    # the floor (2^-900 of the peak), where one shared shift would lose them
    points = np.array([[-3.0], [-1.0], [1.0], [3.0]])
    sets = label_sets(2)
    rows = kernels.log_densities(np.array([[0.0], [-1.0], [40.0]]), None, points, 1e-3)
    got, want = kernels.log_subchannel(rows, sets), _per_set_log_mean(rows, sets)
    far = want - rows.max(axis=0) < np.log(kernels._SHARED_SHIFT_FLOOR)
    expected = np.zeros_like(far)
    expected[[0, 1], [1, 0], 1] = True
    expected[[0, 1], [0, 0], 2] = True
    np.testing.assert_array_equal(far, expected)
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(got[far], want[far])
    np.testing.assert_allclose(got[~far], want[~far], rtol=1e-14)


def test_log_subchannel_keeps_outputs_no_label_produces_at_minus_infinity():
    # Dmc log rows by label: output 0 no label produces, output 1 only labels
    # 0b00 and 0b01 (so a first bit of 1 cannot produce it), output 2 every label
    matrix = np.array([[0.0, 0.5, 0.5], [0.0, 0.25, 0.75], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    sets = label_sets(2)
    with np.errstate(divide="ignore"):
        rows = np.log(matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.log_subchannel(rows, sets)
    assert (got[:, :, 0] == -np.inf).all()
    assert got[0, 1, 1] == -np.inf and np.isfinite(got[[0, 1, 1], [0, 0, 1], 1]).all()
    np.testing.assert_allclose(got, _per_set_log_mean(rows, sets), rtol=1e-15)


def test_e0_integral_handles_minus_infinity():
    # zero-probability outputs appear as -inf log densities; they must still
    # produce a finite, correct sum
    ld0 = np.array([-np.inf, -1.0, -2.0] * 2000)
    ld1 = np.array([-1.0, -np.inf, -3.0] * 2000)
    (v,) = kernels.e0_binary_integral(ld0, ld1, np.array([0]), 1.0)
    assert np.isfinite(v) and v > 0
    want = np.sum((0.5 * np.exp(0.5 * ld0) + 0.5 * np.exp(0.5 * ld1)) ** 2)
    assert v == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.3, 1.0, 10.0])
def test_binary_integral_is_the_two_row_mary_sum_bit_for_bit(rho):
    # 0.5 a + 0.5 b and (a + b) / 2 round alike, so a sub-channel summed as a
    # two-row channel gives the bits of the binary formula
    rng = make_rng(6)
    ld = rng.normal(scale=3.0, size=(2, 5, 300))
    ld[0, 1, 7] = ld[1, 3, 9] = -np.inf
    starts = np.array([0, 1, 120, 299])  # four states, the last with one output
    q = 1.0 / (1.0 + rho)
    want = np.add.reduceat((0.5 * np.exp(q * ld[0]) + 0.5 * np.exp(q * ld[1])) ** (1.0 / q), starts, axis=-1)
    assert want.shape == (5, 4)
    np.testing.assert_array_equal(kernels.e0_mary_integral(ld, starts, rho), want)
    np.testing.assert_array_equal(kernels.e0_binary_integral(ld[0], ld[1], starts, rho), want)


def test_warmup_runs():
    kernels.warmup()


def test_full_llr_matrix_both_paths():
    # the batched demapper against the per-sample sub-channel densities, on a
    # large QAM64 batch
    cons = make_constellation("QAM64")
    base = Awgn(0.3)
    y, _ = _random_outputs(4000, seed=9)
    z = llr_matrix(base, cons, y)
    assert z.shape == (6, 4000)
    for k in range(0, 4000, 397):
        for i in range(1, cons.L + 1):
            view = SubchannelView(base, cons, i)
            want = np.log(view.prob(y[k], 0) / view.prob(y[k], 1))
            assert z[i - 1, k] == pytest.approx(want, rel=1e-9, abs=1e-9)
