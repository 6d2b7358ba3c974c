import numpy as np
import pytest

from pbicm import dmc
from pbicm.channel import bsc

from conftest import random_stochastic


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


BSC01 = bsc(0.1).matrix


def test_bsc_capacity_closed_form():
    for p in (0.05, 0.1, 0.25, 0.4):
        assert dmc.capacity(bsc(p).matrix) == pytest.approx(1 - h2(p), abs=1e-12)


def test_bsc_e0_closed_form():
    # E0(rho) = rho - (1+rho)*log2((1-p)^{1/(1+rho)} + p^{1/(1+rho)})
    for p in (0.1, 0.3):
        for rho in (0.0, 0.25, 0.5, 1.0, 2.0):
            want = rho - (1 + rho) * np.log2(
                (1 - p) ** (1 / (1 + rho)) + p ** (1 / (1 + rho))
            )
            assert dmc.e0(bsc(p).matrix, rho) == pytest.approx(want, abs=1e-12)


def test_bsc_dispersion_closed_form():
    # V = p(1-p) * log2((1-p)/p)^2
    for p in (0.1, 0.2):
        want = p * (1 - p) * np.log2((1 - p) / p) ** 2
        assert dmc.dispersion(bsc(p).matrix) == pytest.approx(want, abs=1e-12)


def test_noiseless_channel():
    eye = np.eye(4)
    assert dmc.capacity(eye) == pytest.approx(2.0, abs=1e-12)
    assert dmc.dispersion(eye) == pytest.approx(0.0, abs=1e-12)
    # E0(rho) = rho * log2(4) / ... for noiseless: -log2(sum_y (1/4)^{1+rho}) = rho*2
    assert dmc.e0(eye, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_e0_zero_at_rho_zero():
    P = random_stochastic(np.random.default_rng(0), 5, 7)
    assert dmc.e0(P, 0.0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("rho", [-1.0, -0.5, np.nan, np.inf])
def test_e0_refuses_a_rho_that_is_not_finite_and_nonnegative(rho):
    # -1 divided by zero, NaN gave NaN and inf a negative E0 of a BSC
    with pytest.raises(ValueError, match="rho must be finite and >= 0"):
        dmc.e0(bsc(0.1).matrix, rho)


def test_e0_concave_nondecreasing():
    P = random_stochastic(np.random.default_rng(1), 4, 6)
    rhos = np.linspace(0.0, 3.0, 61)
    vals = np.array([dmc.e0(P, r) for r in rhos])
    assert np.all(np.diff(vals) >= -1e-12)
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.all(second <= 1e-10)


def test_prior_argument():
    P = BSC01
    assert dmc.capacity(P, prior=[0.5, 0.5]) == pytest.approx(dmc.capacity(P), abs=1e-15)
    # asymmetric prior lowers BSC mutual information
    assert dmc.capacity(P, prior=[0.9, 0.1]) < dmc.capacity(P)
    with pytest.raises(ValueError):
        dmc.capacity(P, prior=[0.9, 0.2])
    with pytest.raises(ValueError):
        dmc.capacity(P, prior=[1.5, -0.5])


def test_random_coding_exponent_against_grid_search():
    P = random_stochastic(np.random.default_rng(2), 3, 4)
    rhos = np.linspace(0.0, 1.0, 100_001)
    e0s = np.array([dmc.e0(P, r) for r in np.linspace(0.0, 1.0, 11)])
    for rate in (0.05, 0.2, 0.4):
        coarse = np.array([dmc.e0(P, r) - r * rate for r in rhos])
        want = max(0.0, coarse.max())
        assert dmc.random_coding_exponent(P, rate) == pytest.approx(want, abs=1e-6)


def test_random_coding_exponent_at_zero_rate():
    P = BSC01
    assert dmc.random_coding_exponent(P, 0.0) == pytest.approx(dmc.e0(P, 1.0), abs=1e-9)


def test_exponents_vanish_at_capacity():
    P = BSC01
    c = dmc.capacity(P)
    assert dmc.random_coding_exponent(P, c) == pytest.approx(0.0, abs=1e-9)
    assert dmc.random_coding_exponent(P, c + 0.05) == 0.0
    assert dmc.sphere_packing_exponent(P, c) == pytest.approx(0.0, abs=1e-9)


def test_sphere_packing_against_grid_search():
    P = BSC01
    rate = 0.45
    rhos = np.concatenate([np.linspace(1e-6, 5, 200_001), np.linspace(5, 100, 1000)])
    vals = np.array([dmc.e0(P, r) - r * rate for r in rhos])
    want = max(0.0, vals.max())
    assert dmc.sphere_packing_exponent(P, rate) == pytest.approx(want, abs=1e-6)
    assert dmc.sphere_packing_exponent(P, rate) >= dmc.random_coding_exponent(P, rate)


def test_sphere_packing_infinity_sentinel():
    # noiseless binary channel: E0(rho) = rho, so the sup is unbounded for
    # any rate below 1 bit and zero above it
    eye = np.eye(2)
    assert dmc.sphere_packing_exponent(eye, 0.5) == np.inf
    assert dmc.sphere_packing_exponent(eye, 1.1) == 0.0
    # a BSC saturates at E0(inf) = -log2(2*sqrt(p(1-p))): finite at every rate
    p = 0.1
    cap_val = -np.log2(2 * np.sqrt(p * (1 - p)))
    v = dmc.sphere_packing_exponent(BSC01, 0.05)
    assert np.isfinite(v)
    assert v <= cap_val + 1e-9


def test_information_moments_match_manual_sum():
    P = random_stochastic(np.random.default_rng(3), 3, 5)
    px = np.full(3, 1 / 3)
    py = px @ P
    m1 = m2 = 0.0
    for x in range(3):
        for y in range(5):
            i = np.log2(P[x, y] / py[y])
            m1 += px[x] * P[x, y] * i
            m2 += px[x] * P[x, y] * i * i
    got1, got2 = dmc.information_moments(P)
    assert got1 == pytest.approx(m1, abs=1e-12)
    assert got2 == pytest.approx(m2, abs=1e-12)


def test_zero_probability_outputs_are_ignored():
    P = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    m1, m2 = dmc.information_moments(P)
    assert np.isfinite(m1) and np.isfinite(m2)
    assert dmc.capacity(P) > 0


ENTRY_POINTS = {
    "information_moments": dmc.information_moments,
    "capacity": dmc.capacity,
    "dispersion": dmc.dispersion,
    "e0": lambda P: dmc.e0(P, 1.0),
    "random_coding_exponent": lambda P: dmc.random_coding_exponent(P, 0.1),
    "sphere_packing_exponent": lambda P: dmc.sphere_packing_exponent(P, 0.1),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_matrix_with_no_rows_is_refused(entry):
    with pytest.raises(ValueError, match="at least one row"):
        ENTRY_POINTS[entry](np.zeros((0, 2)))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_matrix_with_no_columns_is_refused(entry):
    with pytest.raises(ValueError, match="at least one row and one column"):
        ENTRY_POINTS[entry](np.zeros((2, 0)))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_rows_that_are_not_distributions_are_refused(entry):
    with pytest.raises(ValueError, match="row-stochastic"):
        ENTRY_POINTS[entry]([[0.5, 0.2], [0.1, 0.9]])
