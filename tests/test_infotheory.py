import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbicm import _ensemble, _opt, dmc, infotheory
from pbicm.channel import Awgn, Dmc, RayleighCsi, Snr, bsc, load_dmc, save_dmc
from pbicm.constellation import make_constellation
from pbicm.infotheory import (
    CURVE_KINDS,
    E0_KINDS,
    DispersionReport,
    ExponentCurve,
    QuadratureConvergenceError,
    capacity_cm,
    capacity_pbicm,
    capacity_subchannel,
    critical_rate,
    dispersion_report,
    e0,
    e0_evaluator,
    exponent_curve,
    exponent_gaussian_approx,
    pbicm_exponent,
    qfunc,
    qinv,
    random_coding_exponent,
    rate_bounds,
    sphere_packing_exponent,
)
from pbicm.subchannel import wbar_as_dmc
from pbicm._ensemble import moment_table

import oracle
from conftest import dmc_in_label_order, random_stochastic

BPSK = make_constellation("BPSK")
QPSK = make_constellation("QPSK")


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def e0_bsc(p, rho):
    return rho - (1 + rho) * np.log2((1 - p) ** (1 / (1 + rho)) + p ** (1 / (1 + rho)))


def v_bsc(p):
    return p * (1 - p) * np.log2((1 - p) / p) ** 2


def two_bsc_product(p1, p2):
    """QPSK-labeled Dmc whose two bit sub-channels are BSC(p1) and BSC(p2).

    Outputs are pairs (y1, y2) with the first bit driving a BSC(p1) on y1 and
    the second bit an independent BSC(p2) on y2; averaging out the other bit
    leaves each sub-channel an exact BSC (times a harmless uniform factor).
    """
    r1 = bsc(p1).matrix
    r2 = bsc(p2).matrix
    rows = [np.kron(r1[(lab >> 1) & 1], r2[lab & 1]) for lab in range(4)]
    return dmc_in_label_order(QPSK, rows)


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------


def test_embedded_bsc_subchannel_capacities():
    ch = two_bsc_product(0.1, 0.25)
    assert capacity_subchannel(ch, QPSK, 1) == pytest.approx(1 - h2(0.1), abs=1e-9)
    assert capacity_subchannel(ch, QPSK, 2) == pytest.approx(1 - h2(0.25), abs=1e-9)
    assert capacity_pbicm(ch, QPSK) == pytest.approx(2 - h2(0.1) - h2(0.25), abs=1e-9)
    with pytest.raises(ValueError):
        capacity_subchannel(ch, QPSK, 3)


def test_noiseless_dmc_reaches_l_bits():
    ch = Dmc(np.eye(4))
    assert capacity_pbicm(ch, QPSK) == pytest.approx(2.0, abs=1e-9)
    assert capacity_cm(ch, QPSK) == pytest.approx(2.0, abs=1e-9)


def test_capacity_vanishes_at_very_low_snr():
    ch = Awgn(Snr(-100.0).n0)
    assert capacity_pbicm(ch, BPSK) <= 0.01
    assert capacity_pbicm(ch, BPSK) >= 0.0


def test_qpsk_bit_channels_lose_nothing():
    # the two QPSK bits ride independent I/Q components, so the parallel
    # decomposition is lossless there
    for snr_db in (0.0, 5.0):
        ch = Awgn(Snr(snr_db).n0)
        assert capacity_pbicm(ch, QPSK) == pytest.approx(
            capacity_cm(ch, QPSK), abs=1e-3
        )


def test_symbol_capacity_dominates_parallel_sum():
    cases = [
        (Awgn(Snr(5.0).n0), make_constellation("PSK8")),
        (two_bsc_product(0.1, 0.25), QPSK),
    ]
    for ch, cons in cases:
        assert capacity_cm(ch, cons) >= capacity_pbicm(ch, cons) - 1e-9


# ---------------------------------------------------------------------------
# E0 evaluators
# ---------------------------------------------------------------------------


def test_e0_kinds_and_validation():
    ch = two_bsc_product(0.1, 0.25)
    assert set(E0_KINDS) == {
        "Subchannel",
        "WbarCombined",
        "WachsmannAveraged",
        "Unconstrained",
    }
    ev = e0_evaluator(ch, QPSK, "wbar")
    assert ev.kind == "WbarCombined"
    with pytest.raises(ValueError):
        e0_evaluator(ch, QPSK, "Subchannel")  # missing s
    with pytest.raises(ValueError):
        e0_evaluator(ch, QPSK, "Subchannel", s=3)
    with pytest.raises(ValueError):
        e0_evaluator(ch, QPSK, "WbarCombined", s=1)
    with pytest.raises(ValueError):
        e0_evaluator(ch, QPSK, "NoSuchKind")
    with pytest.raises(ValueError, match="kind must be one of"):
        e0_evaluator(ch, QPSK, ["wbar"])  # unhashable: refused like any other kind
    with pytest.raises(ValueError):
        e0(ev, -0.5)
    with pytest.raises(ValueError):
        e0(ev, 101.0)


def test_e0_zero_at_rho_zero_for_every_kind():
    cases = [
        (two_bsc_product(0.1, 0.25), QPSK),
        (Awgn(Snr(5.0).n0), make_constellation("PSK8")),
        (RayleighCsi(Snr(5.0).n0), BPSK),
    ]
    for ch, cons in cases:
        for kind in E0_KINDS:
            s = 1 if kind == "Subchannel" else None
            assert e0(e0_evaluator(ch, cons, kind, s), 0.0) == pytest.approx(
                0.0, abs=1e-9
            )


def test_embedded_bsc_e0_closed_forms():
    ch = two_bsc_product(0.1, 0.25)
    ev1 = e0_evaluator(ch, QPSK, "Subchannel", s=1)
    ev2 = e0_evaluator(ch, QPSK, "Subchannel", s=2)
    evw = e0_evaluator(ch, QPSK, "WbarCombined")
    eva = e0_evaluator(ch, QPSK, "WachsmannAveraged")
    for rho in (0.1, 0.5, 1.0, 2.0):
        a = e0_bsc(0.1, rho)
        b = e0_bsc(0.25, rho)
        assert e0(ev1, rho) == pytest.approx(a, abs=1e-12)
        assert e0(ev2, rho) == pytest.approx(b, abs=1e-12)
        soft = -np.log2(0.5 * (2.0**-a + 2.0**-b))
        assert e0(evw, rho) == pytest.approx(soft, abs=1e-12)
        assert e0(eva, rho) == pytest.approx(0.5 * (a + b), abs=1e-12)
        # arithmetic averaging overstates the combined value (Jensen)
        assert e0(eva, rho) > e0(evw, rho) + 1e-6


def test_e0_concave_nondecreasing_on_continuous_channel():
    ev = e0_evaluator(Awgn(Snr(5.0).n0), make_constellation("PSK8"), "WbarCombined")
    rhos = np.linspace(0.0, 2.0, 41)
    vals = np.array([e0(ev, r) for r in rhos])
    assert np.all(np.diff(vals) >= -1e-10)
    assert np.all(vals[:-2] - 2 * vals[1:-1] + vals[2:] <= 1e-9)


def test_identical_subchannels_make_both_combiners_agree():
    # both QPSK bits see the same binary channel, so soft combine == average
    ch = two_bsc_product(0.2, 0.2)
    evw = e0_evaluator(ch, QPSK, "WbarCombined")
    eva = e0_evaluator(ch, QPSK, "WachsmannAveraged")
    for rho in (0.3, 1.0):
        assert e0(evw, rho) == pytest.approx(e0(eva, rho), abs=1e-12)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def test_random_coding_matches_matrix_route():
    ch = Dmc(random_stochastic(np.random.default_rng(0), 4, 3))
    w = wbar_as_dmc(ch, QPSK).matrix
    ev = e0_evaluator(ch, QPSK, "WbarCombined")
    for rate in (0.05, 0.2, 0.4):
        assert random_coding_exponent(ev, rate) == pytest.approx(
            dmc.random_coding_exponent(w, rate), abs=1e-9
        )
        assert sphere_packing_exponent(ev, rate) == pytest.approx(
            dmc.sphere_packing_exponent(w, rate), abs=1e-9
        )


def test_exponent_edge_cases():
    ch = two_bsc_product(0.1, 0.25)
    ev = e0_evaluator(ch, QPSK, "WbarCombined")
    assert random_coding_exponent(ev, 0.0) == pytest.approx(e0(ev, 1.0), abs=1e-9)
    cap = capacity_pbicm(ch, QPSK) / 2
    assert random_coding_exponent(ev, cap) == pytest.approx(0.0, abs=1e-9)
    assert random_coding_exponent(ev, cap + 0.1) == 0.0
    with pytest.raises(ValueError):
        random_coding_exponent(ev, -0.1)
    with pytest.raises(ValueError):
        sphere_packing_exponent(ev, -0.1)


def _refined_grid_max(f, lo=0.0, hi=1.0):
    """max of f on [lo, hi]: a 101-point grid, then 21-point grids zoomed
    around the best point until they are 1e-7 wide."""
    best = None
    while hi - lo > 1e-7:
        rhos = np.linspace(lo, hi, 101 if best is None else 21)
        vals = [f(r) for r in rhos]
        k = int(np.argmax(vals))
        if best is None or vals[k] > best:
            best = vals[k]
        lo, hi = rhos[max(k - 1, 0)], rhos[min(k + 1, len(rhos) - 1)]
    return best


@pytest.mark.parametrize(
    "cons_name, base",
    [("QPSK", RayleighCsi(Snr(5.0).n0)), ("QAM16", Awgn(Snr(8.0).n0))],
    ids=["qpsk-rayleigh-5dB", "qam16-awgn-8dB"],
)
@pytest.mark.parametrize("kind", ["Unconstrained", "WbarCombined", "WachsmannAveraged"])
def test_rho_search_against_refined_grid_and_its_cost(cons_name, base, kind):
    # one rate on the straight-line segment, one with an interior maximizer and
    # one above E0'(0); the search must match a refined grid maximum and stay
    # within its evaluation budget (distinct rho values handed to E0)
    ev = e0_evaluator(base, make_constellation(cons_name), kind)
    r_crit = critical_rate(ev)
    slope0 = ev.e0(1e-6) / 1e-6
    assert 0 < r_crit < slope0
    for rate, budget in ((0.5 * r_crit, 4), (0.5 * (r_crit + slope0), 12), (1.1 * slope0, 4)):
        seen = set()

        def counted(rho):
            seen.add(rho)
            return ev.e0(rho)

        got = _opt.exponent_max(counted, rate, sphere=False)
        want = max(0.0, _refined_grid_max(lambda r: ev.e0(r) - r * rate))
        assert got == pytest.approx(want, abs=1e-8)
        assert got == random_coding_exponent(ev, rate)
        assert len(seen) <= budget, (rate, sorted(seen))


def test_rho_search_stops_on_a_near_flat_objective():
    # capacity 5e-4 bits and |E0''| ~ 3e-4: near the maximizer f moves by
    # less than its rounding within XTOL, so parabolic steps only fit noise;
    # the concavity stop ends the search within the budget of the test above
    P = np.array([
        [0.5180264269483159, 0.4819735730516841],
        [0.512745230025883, 0.48725476997411693],
        [0.5287263075990251, 0.47127369240097483],
        [0.49264644932209817, 0.5073535506779018],
    ])
    rate = 0.00039357883241856  # between the critical rate and capacity
    seen = set()

    def counted(rho):
        seen.add(rho)
        return dmc.e0(P, rho)

    got = _opt.exponent_max(counted, rate, sphere=False)
    want = _refined_grid_max(lambda r: dmc.e0(P, r) - r * rate)
    assert got == pytest.approx(want, abs=1e-14)
    assert len(seen) <= 12, sorted(seen)


@pytest.mark.parametrize("where", ["below", "at", "above", "beyond_capacity"])
def test_sphere_packing_never_below_random_coding_on_awgn(where):
    ev = e0_evaluator(Awgn(Snr(8.0).n0), make_constellation("QAM16"), "WbarCombined")
    r_crit = critical_rate(ev)
    rate = {"below": 0.5 * r_crit, "at": r_crit, "above": 1.2 * r_crit,
            "beyond_capacity": 1.1 * ev.e0(1e-6) / 1e-6}[where]
    rc = random_coding_exponent(ev, rate)
    sp = sphere_packing_exponent(ev, rate)
    assert sp >= rc
    if where in ("above", "beyond_capacity"):
        assert sp == rc


def test_critical_rate_closed_form_bsc():
    ev = e0_evaluator(bsc(0.1), BPSK, "Subchannel", s=1)
    p = 0.1
    a = np.sqrt(1 - p) + np.sqrt(p)
    ap = -0.25 * (np.sqrt(1 - p) * np.log(1 - p) + np.sqrt(p) * np.log(p))
    want = 1 - np.log2(a) - 2 * ap / (a * np.log(2))
    got = critical_rate(ev)
    assert got == pytest.approx(want, abs=1e-6)
    assert 0 < got < dmc.capacity(bsc(0.1).matrix)


def test_critical_rate_evaluates_e0_at_or_below_one():
    # the stored outputs serve E0 for rho <= 1; a point past 1 would walk them all again
    ev = e0_evaluator(Awgn(Snr(5.0).n0), QPSK, "WbarCombined")
    seen = []
    e0_at = ev.e0
    ev.e0 = lambda rho: seen.append(rho) or e0_at(rho)
    critical_rate(ev)
    assert seen and max(seen) == 1.0


def test_critical_rate_noiseless_binary():
    ev = e0_evaluator(dmc_in_label_order(BPSK, np.eye(2)), BPSK, "Subchannel", s=1)
    assert critical_rate(ev) == pytest.approx(1.0, abs=1e-9)


def test_pbicm_exponent_rates_and_normalization():
    ch = Dmc(random_stochastic(np.random.default_rng(1), 4, 3))
    w = wbar_as_dmc(ch, QPSK).matrix
    for r_total in (0.2, 0.6, 1.0):
        plain = pbicm_exponent(ch, QPSK, r_total)
        assert plain == pytest.approx(
            dmc.random_coding_exponent(w, r_total / 2), abs=1e-9
        )
        assert pbicm_exponent(ch, QPSK, r_total, normalized=True) == pytest.approx(
            2 * plain, abs=1e-15
        )
    sp = pbicm_exponent(ch, QPSK, 0.4, bound="SpherePacking")
    assert sp >= pbicm_exponent(ch, QPSK, 0.4) - 1e-12
    with pytest.raises(ValueError, match="bound must be"):
        pbicm_exponent(ch, QPSK, 0.4, bound=["x"])  # unhashable: refused like any other bound
    # snake_case spellings are accepted
    assert pbicm_exponent(ch, QPSK, 0.4, bound="random_coding") == pytest.approx(
        pbicm_exponent(ch, QPSK, 0.4), abs=1e-15
    )
    with pytest.raises(ValueError):
        pbicm_exponent(ch, QPSK, 0.4, bound="Bhattacharyya")
    with pytest.raises(ValueError):
        pbicm_exponent(ch, QPSK, -0.4)
    assert pbicm_exponent(ch, QPSK, capacity_pbicm(ch, QPSK) + 0.05) == 0.0


@pytest.mark.parametrize("rate", [math.nan, math.inf, -0.1])
def test_exponents_reject_a_rate_that_is_not_finite_and_nonnegative(rate):
    ch = bsc(0.1)
    ev = e0_evaluator(ch, BPSK, "WbarCombined")  # L = 1: pbicm_exponent searches at the rate given
    calls = [
        lambda: random_coding_exponent(ev, rate),
        lambda: sphere_packing_exponent(ev, rate),
        lambda: pbicm_exponent(ch, BPSK, rate),
        lambda: pbicm_exponent(ch, BPSK, rate, bound="SpherePacking"),
        lambda: dmc.random_coding_exponent(ch.matrix, rate),
        lambda: dmc.sphere_packing_exponent(ch.matrix, rate),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {rate}$"):
            call()


# ---------------------------------------------------------------------------
# dispersion and rate bounds
# ---------------------------------------------------------------------------


def test_dispersion_report_embedded_bsc():
    rep = dispersion_report(two_bsc_product(0.1, 0.25), QPSK)
    c1, c2 = 1 - h2(0.1), 1 - h2(0.25)
    v1, v2 = v_bsc(0.1), v_bsc(0.25)
    assert rep.L == 2
    assert rep.c_subchannels == pytest.approx([c1, c2], abs=1e-9)
    assert rep.v_subchannels == pytest.approx([v1, v2], abs=1e-9)
    assert rep.c_wbar == pytest.approx((c1 + c2) / 2, abs=1e-9)
    assert rep.c_pbicm == pytest.approx(c1 + c2, abs=1e-9)
    cbar = (c1 + c2) / 2
    penalty = ((c1 - cbar) ** 2 + (c2 - cbar) ** 2) / 2
    assert rep.penalty == pytest.approx(penalty, abs=1e-9)
    assert rep.v_wbar == pytest.approx((v1 + v2) / 2 + penalty, abs=1e-9)
    assert rep.per_subchannel[0] == (rep.c_subchannels[0], rep.v_subchannels[0])


def test_dispersion_identities_exact():
    cases = [
        (two_bsc_product(0.1, 0.25), QPSK),
        (Awgn(Snr(2.0).n0), make_constellation("PSK8")),
    ]
    for ch, cons in cases:
        rep = dispersion_report(ch, cons)
        assert rep.v_pbicm == pytest.approx(cons.L**2 * rep.v_wbar, abs=1e-12)
        assert rep.v_wbar == pytest.approx(
            rep.mean_subchannel_v + rep.penalty, abs=1e-12
        )


def test_dispersion_penalty_zero_for_identical_subchannels():
    rep = dispersion_report(Awgn(Snr(3.0).n0), QPSK)
    assert rep.penalty == pytest.approx(0.0, abs=1e-9)
    assert rep.v_wbar == pytest.approx(rep.mean_subchannel_v, abs=1e-9)


def test_dispersion_matches_matrix_route():
    ch = Dmc(random_stochastic(np.random.default_rng(2), 4, 3))
    rep = dispersion_report(ch, QPSK)
    w = wbar_as_dmc(ch, QPSK).matrix
    assert rep.v_wbar == pytest.approx(dmc.dispersion(w), abs=1e-9)
    assert rep.c_wbar == pytest.approx(dmc.capacity(w), abs=1e-9)


def test_dispersion_report_json():
    import json

    rep = dispersion_report(two_bsc_product(0.1, 0.25), QPSK)
    d = json.loads(rep.to_json())
    assert d["L"] == 2
    assert d["v_pbicm"] == pytest.approx(rep.v_pbicm)
    assert len(d["c_subchannels"]) == 2


@pytest.mark.parametrize("channel", [Awgn, RayleighCsi], ids=["awgn", "rayleigh"])
@pytest.mark.parametrize("cons_name", ["BPSK", "QPSK", "PSK8", "QAM16", "QAM64"])
def test_moments_stay_in_range_at_the_snr_cap(cons_name, channel):
    # the information density is near log2(k) everywhere there; its mean and
    # variance, taken of the deficit log2(k) - i, stay in range
    base, cons = channel(Snr(100.0).n0), make_constellation(cons_name)
    rep = dispersion_report(base, cons)
    assert all(c <= 1.0 for c in rep.c_subchannels)
    assert capacity_cm(base, cons) <= cons.L and capacity_pbicm(base, cons) <= cons.L
    assert all(v >= 0.0 for v in [*rep.v_subchannels, rep.v_wbar, rep.v_pbicm, rep.mean_subchannel_v])


@pytest.mark.parametrize("cons_name", ["QPSK", "QAM16", "PSK8"])
def test_rate_bounds_at_the_snr_cap(cons_name):
    # the dispersion is near 0 there: the bracket closes on the capacity
    base, cons = Awgn(Snr(100.0).n0), make_constellation(cons_name)
    rep = dispersion_report(base, cons)
    assert abs(rep.v_pbicm) < 1e-10
    lower, upper = rate_bounds(base, cons, 1000, 1e-3)
    assert lower <= upper
    assert lower == pytest.approx(rep.c_pbicm, abs=1e-6) and upper == pytest.approx(rep.c_pbicm, abs=1e-6)


def test_rate_bounds_bracket_and_limits():
    ch = two_bsc_product(0.1, 0.25)
    c = capacity_pbicm(ch, QPSK)
    lo, hi = rate_bounds(ch, QPSK, 500, 1e-3)
    assert lo < hi < c
    # the union penalty vanishes at pe = 0.5 on the converse side only
    lo5, hi5 = rate_bounds(ch, QPSK, 500, 0.5)
    assert hi5 == pytest.approx(c, abs=1e-15)
    assert lo5 < c
    # both sides close on capacity as n grows
    lo_inf, hi_inf = rate_bounds(ch, QPSK, 10**12, 1e-3)
    assert abs(lo_inf - c) < 1e-5 and abs(hi_inf - c) < 1e-5
    # bracket tightens with n
    lo2, hi2 = rate_bounds(ch, QPSK, 2000, 1e-3)
    assert hi2 - lo2 < hi - lo
    with pytest.raises(ValueError):
        rate_bounds(ch, QPSK, 0, 1e-3)
    with pytest.raises(ValueError, match="blocklength must be an integer"):
        rate_bounds(ch, QPSK, 10.5, 1e-3)
    with pytest.raises(ValueError, match="blocklength must be an integer"):
        rate_bounds(ch, QPSK, True, 1e-3)
    assert rate_bounds(ch, QPSK, np.int64(500), 1e-3) == (lo, hi)
    with pytest.raises(ValueError):
        rate_bounds(ch, QPSK, 100, 0.0)
    with pytest.raises(ValueError):
        rate_bounds(ch, QPSK, 100, 1.0)


def test_gaussian_exponent_approximation():
    assert exponent_gaussian_approx(0.5, 1.0, 0.5) == 0.0
    # quadratic: halving the gap quarters the value
    full = exponent_gaussian_approx(0.5, 1.0, 0.3)
    half = exponent_gaussian_approx(0.5, 1.0, 0.4)
    assert full == pytest.approx(4 * half, rel=1e-12)
    with pytest.raises(ValueError):
        exponent_gaussian_approx(0.5, 0.0, 0.3)
    for v in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dispersion must be finite and positive"):
            exponent_gaussian_approx(0.5, v, 0.3)
    # near capacity it tracks the true random-coding exponent
    P = bsc(0.1).matrix
    c, v = dmc.capacity(P), dmc.dispersion(P)
    r = 0.98 * c
    ratio = dmc.random_coding_exponent(P, r) / exponent_gaussian_approx(c, v, r)
    assert 0.9 < ratio < 1.1


@pytest.mark.parametrize("c, rate", [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, -math.inf)])
def test_gaussian_exponent_approximation_refuses_a_non_finite_capacity_or_rate(c, rate):
    # (c - rate)^2 would be returned as nan or inf, not refused
    name = "capacity" if not math.isfinite(c) else "rate"
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        exponent_gaussian_approx(c, 0.5, rate)


@pytest.mark.parametrize("rates", [[[0.1, 0.2]], 0.1], ids=["2-D", "scalar"])
def test_exponent_curve_refuses_rates_that_are_not_a_1d_grid_before_any_work(monkeypatch, rates):
    def no_evaluator(*args):
        raise AssertionError("an E0 evaluator was built")

    monkeypatch.setattr(infotheory, "e0_evaluator", no_evaluator)
    with pytest.raises(ValueError, match="rates must be a 1-D grid"):
        exponent_curve(Awgn(Snr(5.0).n0), QPSK, "RandomCoding", rates)


# ---------------------------------------------------------------------------
# gaussian tail utilities
# ---------------------------------------------------------------------------


def test_qfunc_qinv_reference_points():
    assert qfunc(0.0) == 0.5
    assert qinv(0.5) == pytest.approx(0.0, abs=1e-15)
    assert qinv(0.1) == pytest.approx(1.2815515655446004, abs=1e-9)
    assert qfunc(1.2815515655446004) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        qinv(0.0)
    with pytest.raises(ValueError):
        qinv(1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-14, max_value=0.9999, allow_nan=False))
def test_qinv_round_trip_property(eps):
    x = qinv(eps)
    assert abs(qfunc(x) - eps) <= 1e-12 * eps


def test_qinv_monotone():
    eps = np.logspace(-12, -1, 23)
    vals = np.array([qinv(float(e)) for e in eps])
    assert np.all(np.diff(vals) < 0)


def test_qfunc_qinv_match_scipy_over_the_whole_range():
    from scipy.special import ndtr, ndtri

    eps = np.logspace(-300, 0, 4001)[:-1]  # 4000 log-spaced targets in [1e-300, 1)
    x = np.array([qinv(float(e)) for e in eps])
    want = -ndtri(eps)
    assert np.max(np.abs(x - want) / np.abs(want)) <= 4e-15
    q = np.array([qfunc(float(v)) for v in x])
    assert np.max(np.abs(q - eps) / eps) <= 1e-12  # the round trip documented in qinv
    tail = x <= 37.0
    assert np.max(np.abs(q[tail] - ndtr(-x[tail])) / ndtr(-x[tail])) <= 1e-12


@pytest.mark.parametrize("module", ["pbicm", "pbicm.cli"])
def test_import_loads_no_scipy(module):
    src = str(Path(infotheory.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# exponent curves
# ---------------------------------------------------------------------------


def test_exponent_curve_kinds_and_monotonicity():
    ch = two_bsc_product(0.1, 0.25)
    rates_bin = np.linspace(0.05, 0.8, 6)
    rc = exponent_curve(ch, QPSK, "RandomCoding", rates_bin)
    sp = exponent_curve(ch, QPSK, "SpherePacking", rates_bin)
    assert np.all(np.diff(rc.values) <= 1e-12)
    assert np.all(rc.values >= 0)
    assert np.all(sp.values >= rc.values - 1e-9)

    rates_tot = np.linspace(0.1, 1.6, 5)
    plain = exponent_curve(ch, QPSK, "PbicmRandomCoding", rates_tot)
    norm = exponent_curve(ch, QPSK, "PbicmNormalized", rates_tot)
    np.testing.assert_allclose(norm.values, 2 * plain.values, atol=1e-12)
    unc = exponent_curve(ch, QPSK, "UnconstrainedRandomCoding", rates_tot)
    assert np.all(unc.values >= 0)

    with pytest.raises(ValueError):
        exponent_curve(ch, QPSK, "NoSuchCurve", rates_bin)
    with pytest.raises(ValueError):
        ExponentCurve("RandomCoding", np.array([0.1, 0.2]), np.array([0.1]))
    with pytest.raises(ValueError, match="kind must be one of"):
        ExponentCurve("NoSuchCurve", np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    assert set(CURVE_KINDS) >= {"RandomCoding", "SpherePacking"}


@pytest.mark.parametrize("cons_name", ["QPSK", "PSK8"])
def test_wachsmann_curve_is_random_coding_on_the_averaged_e0_at_r_over_l(cons_name):
    base, cons = RayleighCsi(Snr(6.0).n0), make_constellation(cons_name)
    rates = [0.1, 0.7, 1.3]
    curve = exponent_curve(base, cons, "WachsmannRandomCoding", rates)
    ev = e0_evaluator(base, cons, "WachsmannAveraged")
    assert curve.values.tolist() == [random_coding_exponent(ev, r / cons.L) for r in rates]


def test_exponent_curve_csv(tmp_path):
    curve = ExponentCurve(
        "RandomCoding", np.array([0.1, 0.123456789, 0.2]), np.array([0.5, 0.25, 0.0])
    )
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rate_bits,value_bits,kind"
    assert lines[2] == "0.123456789,0.25,RandomCoding"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# quadrature gating
# ---------------------------------------------------------------------------


def test_moment_quadrature_raises_when_nodes_cannot_converge(monkeypatch):
    # steps of 8 and 4 sigma: too coarse for the two passes to agree, and the gate takes no third;
    # both passes are read off one walk
    passes = []
    real_pass = _ensemble._moment_pass

    def counted_pass(*args):
        passes.append(args[2:])
        return real_pass(*args)

    monkeypatch.setattr(_ensemble, "LATTICE_STEP", 8.0)
    monkeypatch.setattr(_ensemble, "_moment_pass", counted_pass)
    with pytest.raises(QuadratureConvergenceError, match="between step=8, gl=64 and step=4, gl=127"):
        moment_table(Awgn(Snr(5.0).n0), make_constellation("QAM16"))
    assert passes == [(8.0, 64)]


def test_convergence_error_carries_its_record_through_pickle(monkeypatch):
    # without __reduce__ the error does not unpickle: BaseException would call __init__ with its message alone
    monkeypatch.setattr(_ensemble, "LATTICE_STEP", 8.0)
    with pytest.raises(QuadratureConvergenceError) as err:
        moment_table(Awgn(Snr(5.0).n0), make_constellation("QAM16"))
    exc = err.value
    assert (exc.quantity, exc.coarse, exc.fine) == ("full-input capacity", (8.0, 64), (4.0, 127))
    assert str(exc).startswith(f"full-input capacity moved {exc.shift:.3e} between") and exc.shift > 1e-4
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is QuadratureConvergenceError and str(back) == str(exc)
    assert (back.quantity, back.shift, back.coarse, back.fine) == (exc.quantity, exc.shift, exc.coarse, exc.fine)


def test_moment_quadrature_at_zero_tolerance_raises_after_two_passes_naming_a_quantity(monkeypatch):
    # no two resolutions agree exactly: the gate raises after its one walk and says what moved
    passes = []
    real_pass = _ensemble._moment_pass

    def counted_pass(*args):
        passes.append(args[2:])
        return real_pass(*args)

    monkeypatch.setattr(_ensemble, "CONVERGENCE_TOL", 0.0)
    monkeypatch.setattr(_ensemble, "_moment_pass", counted_pass)
    with pytest.raises(QuadratureConvergenceError) as err:
        moment_table(RayleighCsi(Snr(5.0).n0), QPSK)
    assert passes == [(0.5, 64)]
    msg = str(err.value)
    assert any(msg.startswith(f"{name} moved ") for name in _ensemble._MOMENT_NAMES), msg
    assert msg.endswith("(tolerance 0)"), msg


def test_moment_quadrature_default_is_converged(monkeypatch):
    m1a, m2a, _ = moment_table(Awgn(Snr(5.0).n0), QPSK)
    monkeypatch.setattr(_ensemble, "LATTICE_STEP", _ensemble.LATTICE_STEP / 2)
    m1b, m2b, _ = moment_table(Awgn(Snr(5.0).n0), QPSK)
    np.testing.assert_allclose(m1a, m1b, atol=1e-4)
    np.testing.assert_allclose(m2a, m2b, atol=1e-4)


def test_moment_quadrature_stops_at_first_non_finite_pass(monkeypatch):
    real_nodes = _ensemble._fading_nodes

    def nan_rule(base, gl):
        h, w = real_nodes(base, gl)
        return h, np.full_like(w, np.nan)

    passes = []
    real_pass = _ensemble._moment_pass

    def counted_pass(*args):
        passes.append(args[2:])
        return real_pass(*args)

    monkeypatch.setattr(_ensemble, "_fading_nodes", nan_rule)
    monkeypatch.setattr(_ensemble, "_moment_pass", counted_pass)
    with pytest.raises(QuadratureConvergenceError, match="step=0.5, gl=64") as err:
        moment_table(RayleighCsi(Snr(5.0).n0), BPSK)
    assert "not finite" in str(err.value)
    assert math.isnan(err.value.shift) and (err.value.coarse, err.value.fine) == ((0.5, 64), (0.25, 127))
    assert passes == [(0.5, 64)]  # the one walk: the coarse pass is checked first


@pytest.mark.parametrize(
    "cons_name, channel, snr_db",
    [("QPSK", Awgn, 10.0), ("QAM16", Awgn, 15.0), ("QAM16", RayleighCsi, 5.0), ("QAM64", RayleighCsi, 10.0)],
)
def test_moment_table_takes_two_passes(monkeypatch, cons_name, channel, snr_db):
    # two passes, read off one walk, suffice at these points when the gate
    # compares only the moments callers read; a full-input second moment
    # would need a third
    base, cons = channel(Snr(snr_db).n0), make_constellation(cons_name)
    passes = []
    real_pass = _ensemble._moment_pass

    def counted_pass(*args):
        passes.append(args[2:])
        return real_pass(*args)

    monkeypatch.setattr(_ensemble, "_moment_pass", counted_pass)
    got = moment_table(base, cons)
    step, gl = _ensemble.LATTICE_STEP, _ensemble.GL_NODES
    assert passes == [(step, gl)]
    # the fine pass of the walk at (step / 2, 2 gl - 1): step / 4 and 4 gl - 3 fading nodes
    for v, want in zip(got, real_pass(base, cons, step / 2, 2 * gl - 1)[1], strict=True):
        np.testing.assert_allclose(v, want, rtol=0, atol=1e-6)


@pytest.mark.parametrize("seed", [1, 2])
def test_dmc_moment_passes_are_identical(monkeypatch, seed):
    # a Dmc's outputs depend on no lattice step or fading node: its two passes are the same exact sums
    base, cons = Dmc(random_stochastic(np.random.default_rng(seed), 8, 5)), make_constellation("PSK8")
    passes = []
    real_pass = _ensemble._moment_pass

    def kept_pass(*args):
        passes.append(real_pass(*args))
        return passes[-1]

    monkeypatch.setattr(_ensemble, "_moment_pass", kept_pass)
    got = moment_table(base, cons)
    assert len(passes) == 1  # one walk gives both passes
    for first, second, v in zip(*passes[0], got, strict=True):
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(v, second)


FIVE = ("BPSK", "QPSK", "PSK8", "QAM16", "QAM64")


@pytest.mark.parametrize("snr_db", [-30.0, 0.0, 30.0, 100.0])
@pytest.mark.parametrize("cons_name", FIVE)
def test_fading_floor_moves_no_moment_past_its_bound(monkeypatch, cons_name, snr_db):
    # the states below the floor, folded into one zero-gain state, move each
    # moment by at most 1e-9; with the floor at -inf nothing is folded
    base, cons = RayleighCsi(Snr(snr_db).n0), make_constellation(cons_name)
    folded = moment_table(base, cons)
    monkeypatch.setattr(_ensemble, "_fading_floor", lambda n0: -math.inf)
    for v, want in zip(folded, moment_table(base, cons), strict=True):
        np.testing.assert_allclose(v, want, rtol=0, atol=1e-8)


@pytest.mark.parametrize("snr_db", [-40.0, -30.0, -20.0, -10.0])
@pytest.mark.parametrize("cons_name", FIVE)
def test_moments_of_a_state_are_within_the_floor_slope_of_zero_gain(cons_name, snr_db):
    # the floor's premise: at gain |h| each moment the pass reads is within
    # K |h|^2 / n0 of its value at |h| = 0, where every deficit d is log2(k);
    # AWGN is the state |h| = 1
    n0 = Snr(snr_db).n0
    c, v, cm = moment_table(Awgn(n0), make_constellation(cons_name))
    bound = _ensemble.DEFICIT_SLOPE / n0
    mean_d = 1.0 - c
    assert np.all(np.abs(mean_d - 1.0) <= bound)  # E[d] of each bit
    assert np.all(np.abs(v + mean_d * mean_d - 1.0) <= bound)  # E[d^2] of each bit
    assert abs(cm[0]) <= bound  # L less the labels' E[d]


def test_fading_floor_cuts_the_states_walked(monkeypatch):
    # at 10 dB the floor is u0 = -11.5: 45 of the 127 fine fading nodes,
    # plus the zero-gain state; the coarse pass reads the 23 even ones of them
    walked = []
    real_outputs = _ensemble._outputs

    def counted_outputs(base, cons, axis, scale, *args):
        walked.append(len(scale))
        return real_outputs(base, cons, axis, scale, *args)

    monkeypatch.setattr(_ensemble, "_outputs", counted_outputs)
    moment_table(RayleighCsi(Snr(10.0).n0), QPSK)
    # one walk per distinct axis for both passes: QPSK's two axes share their points
    assert len(walked) == 1 and walked[0] == 46


@pytest.mark.parametrize("snr_db", [-30.0, -10.0, 0.0, 10.0, 20.0, 30.0, 50.0, 100.0])
@pytest.mark.parametrize("fading", [False, True], ids=["awgn", "rayleigh"])
@pytest.mark.parametrize("cons_name", ["BPSK", "QPSK", "QAM16"])
def test_quadrature_matches_adaptive_oracle_or_raises(cons_name, fading, snr_db):
    # a gate that compares two resolutions can pass a value both resolutions
    # miss; the oracle shares none of the library's rules.  Raising is an
    # honest answer, a silent miss is not.
    n0 = Snr(snr_db).n0
    base, cons = (RayleighCsi if fading else Awgn)(n0), make_constellation(cons_name)
    ref = oracle.reference(cons_name, n0, fading)
    tol = _ensemble.CONVERGENCE_TOL
    try:
        rep = dispersion_report(base, cons)
    except QuadratureConvergenceError:
        pass
    else:
        assert capacity_cm(base, cons) == pytest.approx(ref["c_cm"], abs=tol)
        assert capacity_pbicm(base, cons) == pytest.approx(ref["c_pbicm"], abs=tol)
        for (c, v), m2 in zip(rep.per_subchannel, ref["m2_sub"], strict=True):
            assert v + c * c == pytest.approx(m2, abs=tol)
    for kind, key in (("WbarCombined", "e0_wbar"), ("Unconstrained", "e0_unconstrained")):
        ev = e0_evaluator(base, cons, kind)
        for rho, want in ref[key].items():
            assert ev.e0(rho) == pytest.approx(want, abs=tol), (kind, rho)


@pytest.mark.parametrize("snr_db", [5.0, 15.0])
def test_psk8_matches_polar_oracle(snr_db):
    # PSK8 is one 2-D axis, checked against a rule its lattice does not
    # share: polar coordinates around the point sent
    n0 = Snr(snr_db).n0
    base, cons = Awgn(n0), make_constellation("PSK8")
    ref = oracle.psk8_reference(n0)
    assert capacity_cm(base, cons) == pytest.approx(ref["c_cm"], abs=1e-6)
    assert capacity_pbicm(base, cons) == pytest.approx(ref["c_pbicm"], abs=1e-6)
    for kind, key in (("WbarCombined", "e0_wbar"), ("Unconstrained", "e0_unconstrained")):
        ev = e0_evaluator(base, cons, kind)
        for rho, want in ref[key].items():
            assert ev.e0(rho) == pytest.approx(want, abs=1e-6), (kind, rho)


LARGE_RHOS = (3.0, 10.0, 30.0, 100.0)


@pytest.mark.parametrize("snr_db", [10.0, 20.0])
@pytest.mark.parametrize("fading", [False, True], ids=["awgn", "rayleigh"])
@pytest.mark.parametrize("cons_name", ["BPSK", "QPSK"])
def test_large_rho_e0_matches_adaptive_oracle_or_raises(cons_name, fading, snr_db):
    # the sphere-packing search runs rho up to RHO_MAX, where the Gallager
    # integrand sits between the points rather than on them
    n0 = Snr(snr_db).n0
    base, cons = (RayleighCsi if fading else Awgn)(n0), make_constellation(cons_name)
    for kind in ("WbarCombined", "Unconstrained"):
        ev = e0_evaluator(base, cons, kind)
        for rho in LARGE_RHOS:
            try:
                got = ev.e0(rho)
            except QuadratureConvergenceError:
                continue
            want = oracle.e0(cons_name, n0, fading, kind, rho)
            assert got == pytest.approx(want, abs=_ensemble.CONVERGENCE_TOL), (kind, rho)


@pytest.mark.parametrize(
    "cons_name, fading, snr_db",
    [("BPSK", False, 10.0), ("BPSK", False, 20.0), ("QPSK", False, 10.0), ("QPSK", False, 20.0), ("BPSK", True, 10.0)],
    ids=["BPSK-awgn-10.0", "BPSK-awgn-20.0", "QPSK-awgn-10.0", "QPSK-awgn-20.0", "BPSK-rayleigh-10.0"],
)
def test_low_rate_sphere_packing_matches_adaptive_oracle_or_raises(cons_name, fading, snr_db):
    # the same rho search on the oracle's E0; one fading case, since each
    # oracle E0 there costs a nested adaptive quadrature
    n0 = Snr(snr_db).n0
    base, cons = (RayleighCsi if fading else Awgn)(n0), make_constellation(cons_name)
    for kind in ("WbarCombined", "Unconstrained"):
        ev = e0_evaluator(base, cons, kind)
        for rate in (0.01, 0.1):
            try:
                got = sphere_packing_exponent(ev, rate)
            except QuadratureConvergenceError:
                continue
            want = _opt.exponent_max(lambda rho: oracle.e0(cons_name, n0, fading, kind, rho), rate, sphere=True)
            assert got == pytest.approx(want, abs=_ensemble.CONVERGENCE_TOL), (kind, rate)


# ---------------------------------------------------------------------------
# one cache entry per (channel, constellation)
# ---------------------------------------------------------------------------


def test_capacities_and_dispersion_share_one_moment_table(monkeypatch):
    calls = []
    real_table = infotheory.moment_table

    def counted_table(*args, **kwargs):
        calls.append(args)
        return real_table(*args, **kwargs)

    infotheory._moments.cache_clear()
    monkeypatch.setattr(infotheory, "moment_table", counted_table)
    base = Awgn(Snr(3.0).n0)
    c_cm = capacity_cm(base, QPSK)
    c_pb = capacity_pbicm(base, QPSK)
    rep = dispersion_report(base, QPSK)
    assert len(calls) == 1
    assert c_cm >= c_pb - 1e-4 and rep.c_pbicm == c_pb


def test_all_e0_kinds_share_one_ensemble():
    _ensemble.get_ensemble.cache_clear()
    base = Awgn(Snr(3.0).n0)
    values = [
        e0_evaluator(base, QPSK, kind, 1 if kind == "Subchannel" else None).e0(0.5) for kind in E0_KINDS
    ]
    assert _ensemble.get_ensemble.cache_info().misses == 1
    assert all(np.isfinite(values))


def test_two_loads_of_one_dmc_file_share_one_ensemble(tmp_path):
    # channels are values: equal matrices key the same cache entry
    path = tmp_path / "ch.json"
    save_dmc(Dmc(random_stochastic(np.random.default_rng(3), 4, 3)), path)
    first, second = load_dmc(path), load_dmc(path)
    assert first is not second and first == second
    assert _ensemble.get_ensemble(first, QPSK) is _ensemble.get_ensemble(second, QPSK)


@pytest.mark.parametrize("base", [Awgn(Snr(5.0).n0), RayleighCsi(Snr(5.0).n0)], ids=["awgn", "rayleigh"])
def test_e0_slope_at_zero_matches_capacities(base):
    # E0'(0) is the mutual information; the E0 ensemble and the moment pass
    # read the same output lattice, reduced two ways (E0 is ungated, hence
    # the looser tolerance)
    h = 1e-6
    cons = make_constellation("PSK8")
    assert e0_evaluator(base, cons, "Unconstrained").e0(h) / h == pytest.approx(capacity_cm(base, cons), abs=1e-3)
    for s in range(1, cons.L + 1):
        slope = e0_evaluator(base, cons, "Subchannel", s).e0(h) / h
        assert slope == pytest.approx(capacity_subchannel(base, cons, s), abs=1e-3)
