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
    cons = make_constellation("PSK8")
    sets = label_sets(cons.L)
    y, _ = _random_outputs(1000, seed=3)
    a = kernels.llr_batch(y, None, cons.symbols, 0.5, sets, LLR_MAX)
    b = kernels.llr_batch(y, np.ones_like(y), cons.symbols, 0.5, sets, LLR_MAX)
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
    w = np.full(ld0.size, 1.0 / ld0.size)
    v = kernels.e0_binary_integral(ld0, ld1, w, 1.0)
    assert np.isfinite(v) and v > 0
    want = np.dot(w, (0.5 * np.exp(0.5 * ld0) + 0.5 * np.exp(0.5 * ld1)) ** 2)
    assert v == pytest.approx(want, rel=1e-12)


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
