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
