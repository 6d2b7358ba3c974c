"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL line
(visible with ``pytest -s`` or in the -v test listing) and enforces the
stated tolerance.  Tests run in definition order; later criteria reuse
moment tables cached by earlier ones, which is part of the intended usage.
"""
import math
import time

import numpy as np
import pytest

from pbicm import _ensemble, dmc
from pbicm.channel import Awgn, Dmc, RayleighCsi, Snr, bsc, make_rng
from pbicm.codec import PbicmSimConfig, equivalence_test, hamming74, simulate
from pbicm.constellation import make_constellation
from pbicm.infotheory import (
    capacity_cm,
    capacity_pbicm,
    critical_rate,
    dispersion_report,
    e0,
    e0_evaluator,
    exponent_gaussian_approx,
    pbicm_exponent,
    qfunc,
    qinv,
    random_coding_exponent,
    sphere_packing_exponent,
)
from pbicm.subchannel import wbar_as_dmc

BPSK = make_constellation("BPSK")
QPSK = make_constellation("QPSK")
PSK8 = make_constellation("PSK8")
QAM16 = make_constellation("QAM16")

AWGN_2DB = Awgn(Snr(2.0).n0)
AWGN_5DB = Awgn(Snr(5.0).n0)
RAY_5DB = RayleighCsi(Snr(5.0).n0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_capacity_anchor_8psk():
    _ensemble._CACHE.clear()
    t0 = time.perf_counter()
    c_cm = capacity_cm(AWGN_5DB, PSK8)
    c_pb = capacity_pbicm(AWGN_5DB, PSK8)
    dt = time.perf_counter() - t0
    ok = abs(c_cm - 1.86) <= 0.02 and abs(c_pb - 1.84) <= 0.02 and dt < 10.0
    _report(
        1,
        "8psk_awgn_5db_capacities",
        ok,
        f"c_cm={c_cm:.6f} (want 1.86+-0.02), c_pbicm={c_pb:.6f} (want 1.84+-0.02), {dt:.2f}s",
    )


@pytest.mark.filterwarnings("error")
def test_criterion_02_dmc_cross_validation():
    rng = np.random.default_rng(20240)
    t0 = time.perf_counter()
    worst = 0.0
    rates = np.linspace(0.05, 0.95, 20)
    rhos = np.linspace(0.1, 1.0, 10)
    bases = []
    for k in range(20):
        ny = 3 + k % 3
        m = rng.random((4, ny)) + 0.05
        bases.append(Dmc(m / m.sum(axis=1, keepdims=True)))
    # no input produces output 3, and inputs 1 and 3 each miss one more output
    zeros = [[0.5, 0.3, 0.2, 0.0], [0.1, 0.0, 0.9, 0.0], [0.25, 0.25, 0.5, 0.0], [0.0, 0.6, 0.4, 0.0]]
    bases.append(Dmc(np.array(zeros)))
    for base in bases:
        wb = wbar_as_dmc(base, QPSK).matrix
        ev = e0_evaluator(base, QPSK, "WbarCombined")
        worst = max(worst, abs(capacity_pbicm(base, QPSK) / 2 - dmc.capacity(wb)))
        for rho in rhos:
            worst = max(worst, abs(e0(ev, rho) - dmc.e0(wb, rho)))
        for r in rates:
            worst = max(
                worst,
                abs(random_coding_exponent(ev, r) - dmc.random_coding_exponent(wb, r)),
            )
        rep = dispersion_report(base, QPSK)
        worst = max(worst, abs(rep.v_wbar - dmc.dispersion(wb)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 5.0
    _report(
        2,
        "randomized_channel_vs_matrix_oracle",
        ok,
        f"{len(bases)} channels, max |diff|={worst:.3e} (tol 1e-9), {dt:.2f}s",
    )


def test_criterion_03_llr_distribution_match_and_fault_detection():
    # 28800 trials x 7 symbols gives > 1e5 LLR samples per conditioning bit.
    # The negative control runs on 16-QAM: its 4-PAM low bit is the only
    # asymmetric sub-channel among the bundled labelings, and skipping the
    # dither is provably invisible in the per-bit LLR law of the symmetric
    # ones (QPSK exactly, 8-PSK by reflection symmetry).
    t0 = time.perf_counter()
    pos = equivalence_test(
        PbicmSimConfig(hamming74(), QPSK, AWGN_2DB, trials=28800, seed=0)
    )
    neg = equivalence_test(
        PbicmSimConfig(hamming74(), QAM16, AWGN_2DB, trials=28800, seed=0),
        dither=False,
    )
    dt = time.perf_counter() - t0
    ok = (
        pos.p_value > 0.01
        and min(pos.samples_per_bit) >= 100_000
        and neg.p_value < 1e-3
        and dt < 30.0
    )
    _report(
        3,
        "pipeline_llr_ks_with_negative_control",
        ok,
        f"positive p={pos.p_value:.4f} (>0.01, n/bit>={min(pos.samples_per_bit)}), "
        f"no-dither p={neg.p_value:.2e} (<1e-3), {dt:.1f}s",
    )


def test_criterion_04_error_rate_sandwich():
    t0 = time.perf_counter()
    sim = simulate(
        PbicmSimConfig(hamming74(), QPSK, AWGN_2DB, trials=100_000, seed=0)
    )
    dt = time.perf_counter() - t0
    L = QPSK.L
    se_o = (sim.pe_overall_ci[1] - sim.pe_overall_ci[0]) / 4
    se_w = (sim.pe_wbar_direct_ci[1] - sim.pe_wbar_direct_ci[0]) / 4
    low_ok = sim.pe_wbar_direct <= sim.pe_overall + 3 * math.hypot(se_o, se_w)
    up_ok = sim.pe_overall <= L * sim.pe_wbar_direct + 3 * math.hypot(se_o, L * se_w)
    ok = low_ok and up_ok and dt < 60.0
    _report(
        4,
        "block_error_rate_sandwich",
        ok,
        f"pe_wbar={sim.pe_wbar_direct:.5f} <= pe={sim.pe_overall:.5f} <= "
        f"L*pe_wbar={L * sim.pe_wbar_direct:.5f} (3-sigma slack), {dt:.1f}s",
    )


def test_criterion_05_combiner_strictly_below_average():
    ev_soft = e0_evaluator(RAY_5DB, QAM16, "WbarCombined")
    ev_mean = e0_evaluator(RAY_5DB, QAM16, "WachsmannAveraged")
    margins = [e0(ev_mean, rho) - e0(ev_soft, rho) for rho in np.linspace(0.1, 1.0, 10)]
    ok = all(m > 1e-6 for m in margins)
    _report(
        5,
        "soft_combine_vs_arithmetic_mean",
        ok,
        f"16qam/rayleigh 5dB, min margin={min(margins):.3e} (> 1e-6 at 10 rho values)",
    )


def test_criterion_06_exponents_match_above_critical_rate():
    worst = 0.0
    cap_resid = 0.0
    cases = [
        ("bsc(0.1)", e0_evaluator(bsc(0.1), BPSK, "WbarCombined"), dmc.capacity(bsc(0.1).matrix)),
        (
            "16qam/rayleigh 5dB",
            e0_evaluator(RAY_5DB, QAM16, "WbarCombined"),
            capacity_pbicm(RAY_5DB, QAM16) / 4,
        ),
    ]
    for label, ev, cap in cases:
        rcr = critical_rate(ev)
        assert 0 < rcr < cap, label
        for r in np.linspace(rcr, cap, 5):
            rc = random_coding_exponent(ev, r)
            sp = sphere_packing_exponent(ev, r)
            worst = max(worst, abs(rc - sp))
        cap_resid = max(
            cap_resid,
            random_coding_exponent(ev, cap),
            sphere_packing_exponent(ev, cap),
        )
    ok = worst <= 1e-6 and cap_resid <= 1e-6
    _report(
        6,
        "random_coding_equals_sphere_packing_above_critical",
        ok,
        f"max |RC-SP|={worst:.3e} on [R_cr, C], value at capacity <= {cap_resid:.3e} (tol 1e-6)",
    )


def test_criterion_07_bsc_closed_forms():
    p = 0.1
    P = bsc(p).matrix
    cap = 1 + p * np.log2(p) + (1 - p) * np.log2(1 - p)
    e01 = 1 - 2 * np.log2(np.sqrt(p) + np.sqrt(1 - p))
    disp = p * (1 - p) * np.log2((1 - p) / p) ** 2
    diffs = (
        abs(dmc.capacity(P) - cap),
        abs(dmc.e0(P, 1.0) - e01),
        abs(dmc.dispersion(P) - disp),
    )
    ok = max(diffs) <= 1e-9
    _report(
        7,
        "bsc_closed_forms",
        ok,
        f"|dC|={diffs[0]:.2e}, |dE0(1)|={diffs[1]:.2e}, |dV|={diffs[2]:.2e} (tol 1e-9)",
    )


def test_criterion_08_dispersion_identities_everywhere():
    rng = np.random.default_rng(7)
    m = rng.random((4, 4)) + 0.05
    channels = [
        (bsc(0.1), BPSK),
        (Dmc(m / m.sum(axis=1, keepdims=True)), QPSK),
        (AWGN_2DB, QPSK),
        (AWGN_5DB, PSK8),
        (RAY_5DB, QAM16),
    ]
    worst = 0.0
    for base, cons in channels:
        rep = dispersion_report(base, cons)
        worst = max(worst, abs(rep.v_pbicm - cons.L**2 * rep.v_wbar))
        worst = max(worst, abs(rep.v_wbar - (rep.mean_subchannel_v + rep.penalty)))
    ok = worst <= 1e-12
    _report(
        8,
        "dispersion_decomposition_identities",
        ok,
        f"{len(channels)} channels, max |residual|={worst:.3e} (tol 1e-12)",
    )


def test_criterion_09_gaussian_tail_inverse():
    eps = (1e-4, 1e-8, 1e-12)
    ratios = [qinv(e) ** 2 / (2 * math.log(1 / e)) for e in eps]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    below_one = all(r < 1 for r in ratios)
    resid = max(abs(qfunc(qinv(e)) - e) / e for e in eps)
    ok = increasing and below_one and resid <= 1e-12
    _report(
        9,
        "tail_inverse_asymptotics_and_roundtrip",
        ok,
        f"ratios={[f'{r:.6f}' for r in ratios]} (increasing, <1), "
        f"max rel roundtrip err={resid:.2e} (tol 1e-12)",
    )


def test_criterion_10_exponent_orderings_and_slope():
    # ordering at half the parallel-scheme capacity on 16-QAM/Rayleigh 5 dB:
    # per-binary-symbol normalization lifts the parallel exponent above the
    # unconstrained-symbol exponent, while the raw (per-use) value sits below
    r_half = 0.5 * capacity_pbicm(RAY_5DB, QAM16)
    e_norm = pbicm_exponent(RAY_5DB, QAM16, r_half, normalized=True)
    ev_u = e0_evaluator(RAY_5DB, QAM16, "Unconstrained")
    e_unc = random_coding_exponent(ev_u, r_half)
    e_plain = pbicm_exponent(RAY_5DB, QAM16, r_half)
    ordering_ok = e_norm > e_unc > e_plain > 0

    # chain rule between the total-rate and binary-rate axes, by central
    # finite differences on 8-PSK/AWGN 5 dB at half capacity
    base, cons = AWGN_5DB, PSK8
    L = cons.L
    r0 = 0.5 * capacity_pbicm(base, cons)
    h = 1e-3
    lhs = (pbicm_exponent(base, cons, r0 + h) - pbicm_exponent(base, cons, r0 - h)) / (2 * h)
    ev_w = e0_evaluator(base, cons, "WbarCombined")
    rb = r0 / L
    rhs = (
        random_coding_exponent(ev_w, rb + h) - random_coding_exponent(ev_w, rb - h)
    ) / (2 * h) / L
    slope_ok = abs(lhs - rhs) <= 1e-4
    ok = ordering_ok and slope_ok
    _report(
        10,
        "exponent_orderings_and_rate_axis_slope",
        ok,
        f"normalized={e_norm:.6f} > unconstrained={e_unc:.6f} > raw={e_plain:.6f} > 0; "
        f"slopes {lhs:.6f} vs {rhs:.6f}, |diff|={abs(lhs - rhs):.2e} (tol 1e-4)",
    )
