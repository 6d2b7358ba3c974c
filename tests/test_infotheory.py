import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbicm import _ensemble, _opt, dmc, infotheory
from pbicm.channel import Awgn, Dmc, RayleighCsi, Snr, bsc
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
    # snake_case spellings are accepted
    assert pbicm_exponent(ch, QPSK, 0.4, bound="random_coding") == pytest.approx(
        pbicm_exponent(ch, QPSK, 0.4), abs=1e-15
    )
    with pytest.raises(ValueError):
        pbicm_exponent(ch, QPSK, 0.4, bound="Bhattacharyya")
    with pytest.raises(ValueError):
        pbicm_exponent(ch, QPSK, -0.4)
    assert pbicm_exponent(ch, QPSK, capacity_pbicm(ch, QPSK) + 0.05) == 0.0


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
    # near capacity it tracks the true random-coding exponent
    P = bsc(0.1).matrix
    c, v = dmc.capacity(P), dmc.dispersion(P)
    r = 0.98 * c
    ratio = dmc.random_coding_exponent(P, r) / exponent_gaussian_approx(c, v, r)
    assert 0.9 < ratio < 1.1


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
    assert set(CURVE_KINDS) >= {"RandomCoding", "SpherePacking"}


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


def test_moment_quadrature_raises_when_nodes_cannot_converge():
    with pytest.raises(QuadratureConvergenceError):
        moment_table(Awgn(Snr(5.0).n0), make_constellation("QAM16"), gh=1)


def test_moment_quadrature_default_is_converged():
    m1a, m2a, _ = moment_table(Awgn(Snr(5.0).n0), QPSK)
    m1b, m2b, _ = moment_table(Awgn(Snr(5.0).n0), QPSK, gh=64)
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
    with pytest.raises(QuadratureConvergenceError, match="gh=32, gl=64") as err:
        moment_table(RayleighCsi(Snr(5.0).n0), BPSK)
    assert "not finite" in str(err.value)
    assert passes == [(32, 64)]


@pytest.mark.parametrize("snr_db", [-30.0, -10.0, 0.0, 10.0, 20.0, 30.0, 50.0, 100.0])
@pytest.mark.parametrize("fading", [False, True], ids=["awgn", "rayleigh"])
@pytest.mark.parametrize("cons_name", ["BPSK", "QPSK"])
def test_quadrature_matches_adaptive_oracle_or_raises(cons_name, fading, snr_db):
    # a gate that compares two node counts can pass a value both counts
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
        for c, v in rep.per_subchannel:
            assert v + c * c == pytest.approx(ref["m2_sub"], abs=tol)
    for kind, key in (("WbarCombined", "e0_wbar"), ("Unconstrained", "e0_unconstrained")):
        ev = e0_evaluator(base, cons, kind)
        for rho, want in ref[key].items():
            assert ev.e0(rho) == pytest.approx(want, abs=tol), (kind, rho)


# ---------------------------------------------------------------------------
# one cache entry per (channel, constellation)
# ---------------------------------------------------------------------------


def test_capacities_and_dispersion_share_one_moment_table(monkeypatch):
    calls = []
    real_table = infotheory.moment_table

    def counted_table(*args, **kwargs):
        calls.append(args)
        return real_table(*args, **kwargs)

    monkeypatch.setattr(_ensemble, "_CACHE", {})
    monkeypatch.setattr(infotheory, "moment_table", counted_table)
    base = Awgn(Snr(3.0).n0)
    c_cm = capacity_cm(base, QPSK)
    c_pb = capacity_pbicm(base, QPSK)
    rep = dispersion_report(base, QPSK)
    assert len(calls) == 1
    assert c_cm >= c_pb - 1e-4 and rep.c_pbicm == c_pb


def test_all_e0_kinds_share_one_ensemble(monkeypatch):
    builds = []
    real_iter = _ensemble.iter_snapshots

    def counted_iter(*args, **kwargs):
        builds.append(args)
        return real_iter(*args, **kwargs)

    monkeypatch.setattr(_ensemble, "_CACHE", {})
    monkeypatch.setattr(_ensemble, "iter_snapshots", counted_iter)
    base = Awgn(Snr(3.0).n0)
    values = [
        e0_evaluator(base, QPSK, kind, 1 if kind == "Subchannel" else None).e0(0.5) for kind in E0_KINDS
    ]
    assert len(builds) == 1
    assert all(np.isfinite(values))


@pytest.mark.parametrize("base", [Awgn(Snr(5.0).n0), RayleighCsi(Snr(5.0).n0)], ids=["awgn", "rayleigh"])
def test_e0_slope_at_zero_matches_capacities(base):
    # E0'(0) is the mutual information; the E0 ensemble and the moment pass
    # are built from the same Hermite blocks, reduced two ways (the union
    # grid is ungated, hence the looser tolerance)
    h = 1e-6
    cons = make_constellation("PSK8")
    assert e0_evaluator(base, cons, "Unconstrained").e0(h) / h == pytest.approx(capacity_cm(base, cons), abs=1e-3)
    for s in range(1, cons.L + 1):
        slope = e0_evaluator(base, cons, "Subchannel", s).e0(h) / h
        assert slope == pytest.approx(capacity_subchannel(base, cons, s), abs=1e-3)
