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
