"""The three benchmark workloads: their inputs, how each item runs, and its checks.

Only the benchmark's child process imports this module, after ``src/`` of the
checkout is on ``sys.path``.  Every call into the library goes through a module
attribute (``codec.simulate``, ``infotheory.capacity_cm``, ...) looked up at
call time, so the wrappers that ``tracing`` installs on those attributes see
every call.

An item is one unit of result: a BLER point, a capacity point or an exponent
row.  Building a workload is set-up; running its items is the timed part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from pbicm import _opt, codec, infotheory
from pbicm._ensemble import CONVERGENCE_TOL
from pbicm.channel import Awgn, RayleighCsi
from pbicm.constellation import make_constellation

# Wilson intervals compared against the reference use z = 4: two intervals of
# a correct run miss each other less than once in 10^5 checks, so a red check
# means the error law changed, not that the seed was unlucky.
WILSON_Z = 4.0
SANDWICH_SIGMAS = 3.0  # as in ``pbicm verify``


@dataclass
class Item:
    key: str  # stable id; also the key into reference.json
    work: int  # work units the item adds to throughput when it succeeds
    fn: Callable[[], dict]


def _channel(kind: str, snr_db: float):
    n0 = 10 ** (-snr_db / 10)
    return Awgn(n0) if kind == "awgn" else RayleighCsi(n0)


def _close(problems: list, what: str, got: float, want: float, tol: float = CONVERGENCE_TOL) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what}={got:.9g} differs from reference {want:.9g} by more than {tol:g}")


class MonteCarlo:
    """``codec.simulate`` BLER curves on AWGN, in two halves.

    Why: this is the only path through ``channel``, ``subchannel`` and
    ``codec``, and each half puts a different layer in the majority.  With
    QAM64 and Hamming(7,4) the demapper (``subchannel.llr_matrix`` ->
    ``kernels.llr_batch``) takes almost all of ``simulate``; with QPSK and a
    4096-word random code of length 64, ML decoding (codec self time) does.
    The SNR points sit where both sides of the ``pbicm verify`` sandwich have
    slack, so the 3-sigma check stays quiet on a correct program.

    Work unit: one simulated trial.  The workload seed drives every
    ``simulate`` seed and the random codebook.
    """

    HALVES = (
        # (label, constellation, code, SNR points in dB, trials per point)
        ("qam64_hamming74", "QAM64", "hamming74", (9.0, 11.0, 13.0), 5000),
        ("qpsk_random64x4096", "QPSK", "random64x4096", (-6.0, -5.0, -4.0), 2000),
    )
    TINY_TRIALS = 300

    def __init__(self, seed: int, tiny: bool):
        codes = {"hamming74": codec.hamming74(), "random64x4096": codec.random_codebook(64, 4096, seed)}
        self.items = []
        for label, cons_name, code_name, snrs, trials in self.HALVES:
            cons = make_constellation(cons_name)
            for snr in snrs:
                t = self.TINY_TRIALS if tiny else trials
                cfg = codec.PbicmSimConfig(
                    codes[code_name], cons, _channel("awgn", snr), trials=t, seed=seed * 64 + len(self.items)
                )
                self.items.append(Item(f"montecarlo/{label}/{snr:g}", t, lambda cfg=cfg: self._run(cfg)))

    @staticmethod
    def _run(cfg) -> dict:
        sim = codec.simulate(cfg)
        return {
            "L": cfg.cons.L,
            "trials": sim.trials,
            "block_errors": sim.counts["block_errors"],
            "wbar_errors": sim.counts["wbar_errors"],
            "pe_overall": sim.pe_overall,
            "pe_overall_ci": list(sim.pe_overall_ci),
            "pe_wbar_direct": sim.pe_wbar_direct,
            "pe_wbar_direct_ci": list(sim.pe_wbar_direct_ci),
        }

    @staticmethod
    def check(results: dict[str, dict], reference: dict) -> dict[str, list[str]]:
        out = {}
        for key, r in results.items():
            problems = []
            # sandwich pe_wbar <= pe_overall <= L * pe_wbar, as ``pbicm verify`` tests it
            se_o = (r["pe_overall_ci"][1] - r["pe_overall_ci"][0]) / 4
            se_w = (r["pe_wbar_direct_ci"][1] - r["pe_wbar_direct_ci"][0]) / 4
            L = r["L"]
            if r["pe_wbar_direct"] - r["pe_overall"] > SANDWICH_SIGMAS * math.hypot(se_o, se_w):
                problems.append("pe_overall below pe_wbar beyond 3 sigma")
            if r["pe_overall"] - L * r["pe_wbar_direct"] > SANDWICH_SIGMAS * math.hypot(se_o, L * se_w):
                problems.append("pe_overall above L * pe_wbar beyond 3 sigma")
            ref = reference[key]
            for what in ("block_errors", "wbar_errors"):
                lo, hi = codec.wilson_ci(r[what], r["trials"], WILSON_Z)
                rlo, rhi = codec.wilson_ci(ref[what], ref["trials"], WILSON_Z)
                if hi < rlo or lo > rhi:
                    problems.append(
                        f"{what} rate {r[what] / r['trials']:.4g} is outside the reference "
                        f"{ref[what] / ref['trials']:.4g} (Wilson z={WILSON_Z:g} intervals disjoint)"
                    )
            out[key] = problems
        return out


class CapacitySweep:
    """``capacity_cm``, ``capacity_pbicm``, ``dispersion_report`` and ``rate_bounds``
    at SNR points across QAM16/QAM64 on AWGN and QPSK/BPSK on Rayleigh.

    Why: it isolates the quadrature/moment layer.  Every point is new, so
    nothing is reused across points; ``_ensemble.moment_table`` does almost
    all the work, and ``capacity_cm`` and ``capacity_pbicm`` each run their
    own moment pass.  BPSK Rayleigh 10 dB raises QuadratureConvergenceError at
    the commit that defined this benchmark (see NOTES.md); it stays in the
    sweep and counts as failed, so a fix shows in the failed count and in
    ``wall_s``.

    Work unit: one SNR point.  The grid does not depend on the seed.
    """

    POINTS = (
        ("QAM16", "awgn", (0.0, 5.0, 10.0, 15.0)),
        ("QAM64", "awgn", (5.0, 15.0)),
        ("QPSK", "rayleigh", (0.0, 5.0, 10.0)),
        ("BPSK", "rayleigh", (0.0, 5.0, 10.0)),
    )
    TINY_POINTS = (("QAM16", "awgn", (5.0,)), ("QPSK", "rayleigh", (5.0,)), ("BPSK", "rayleigh", (5.0,)))
    BLOCKLENGTHS = (100, 1000, 10000)
    PE = 1e-3

    def __init__(self, seed: int, tiny: bool):
        self.items = []
        for cons_name, kind, snrs in self.TINY_POINTS if tiny else self.POINTS:
            cons = make_constellation(cons_name)
            for snr in snrs:
                base = _channel(kind, snr)
                key = f"capacity/{cons_name}/{kind}/{snr:g}"
                self.items.append(Item(key, 1, lambda base=base, cons=cons: self._run(base, cons)))

    @classmethod
    def _run(cls, base, cons) -> dict:
        c_cm = infotheory.capacity_cm(base, cons)
        c_pbicm = infotheory.capacity_pbicm(base, cons)
        rep = infotheory.dispersion_report(base, cons)
        bounds = [infotheory.rate_bounds(base, cons, n, cls.PE) for n in cls.BLOCKLENGTHS]
        return {
            "c_cm": c_cm,
            "c_pbicm": c_pbicm,
            "v_wbar": rep.v_wbar,
            "mean_subchannel_v": rep.mean_subchannel_v,
            "penalty": rep.penalty,
            "rate_bounds": [list(b) for b in bounds],
        }

    @staticmethod
    def check(results: dict[str, dict], reference: dict) -> dict[str, list[str]]:
        out = {}
        for key, r in results.items():
            problems = []
            ref = reference[key]["values"]
            for what in ("c_cm", "c_pbicm", "v_wbar", "mean_subchannel_v", "penalty"):
                _close(problems, what, r[what], ref[what])
            for (lo, hi), (rlo, rhi) in zip(r["rate_bounds"], ref["rate_bounds"]):
                _close(problems, "rate_bounds.lower", lo, rlo)
                _close(problems, "rate_bounds.upper", hi, rhi)
            if r["c_cm"] < r["c_pbicm"] - CONVERGENCE_TOL:
                problems.append("c_cm < c_pbicm")
            if abs(r["v_wbar"] - (r["mean_subchannel_v"] + r["penalty"])) > 1e-9 * max(1.0, r["v_wbar"]):
                problems.append("v_wbar != mean_subchannel_v + penalty")
            out[key] = problems
        return out


class ExponentCurves:
    """The ``pbicm exponents`` row (unconstrained random coding, pbicm,
    pbicm-normalized, Wachsmann) over explicit rate grids, so no
    ``moment_table`` call happens.

    Why: it covers the E0 kernels, the ensemble build and the ``_opt``
    search, with one layer used both call-bound and array-bound, with and
    without reuse.  QPSK Rayleigh 5 dB has 64 snapshots and tens of thousands
    of small ``e0_binary_integral`` calls, so per-call overhead dominates;
    QAM16 AWGN 8 dB has one 16k-node snapshot, so array work dominates.  Rates
    below the critical rate reuse cached E0 values (about 0 s per row); higher
    rates miss.

    Work unit: one exponent evaluation (four per row).  The grids do not
    depend on the seed.
    """

    GRIDS = (
        # (constellation, channel, SNR dB, total rates in bits per channel use)
        ("QPSK", "rayleigh", 5.0, tuple(round(0.1 + 0.2 * i, 10) for i in range(7))),
        ("QAM16", "awgn", 8.0, tuple(round(0.2 * (i + 1), 10) for i in range(13))),
    )
    TINY_GRIDS = (("QPSK", "rayleigh", 5.0, (0.1, 0.3)), ("QAM16", "awgn", 8.0, (0.2, 1.8, 2.6)))
    COLUMNS = ("unconstrained", "pbicm", "pbicm_normalized", "wachsmann")

    def __init__(self, seed: int, tiny: bool):
        self.items = []
        for cons_name, kind, snr, rates in self.TINY_GRIDS if tiny else self.GRIDS:
            cons = make_constellation(cons_name)
            base = _channel(kind, snr)
            for rate in rates:
                key = f"exponents/{cons_name}/{kind}/{snr:g}/{rate:g}"
                self.items.append(
                    Item(key, len(self.COLUMNS), lambda b=base, c=cons, r=rate: self._run(b, c, r))
                )

    @staticmethod
    def _run(base, cons, rate: float) -> dict:
        ev_u = infotheory.e0_evaluator(base, cons, "Unconstrained")
        ev_w = infotheory.e0_evaluator(base, cons, "WachsmannAveraged")
        return {
            "unconstrained": infotheory.random_coding_exponent(ev_u, rate),
            "pbicm": infotheory.pbicm_exponent(base, cons, rate),
            "pbicm_normalized": infotheory.pbicm_exponent(base, cons, rate, normalized=True),
            "wachsmann": _opt.exponent_max(ev_w.e0, rate / cons.L, sphere=False),
        }

    @classmethod
    def check(cls, results: dict[str, dict], reference: dict) -> dict[str, list[str]]:
        out = {}
        curves: dict[str, list[tuple[float, str]]] = {}
        for key, r in results.items():
            problems = []
            ref = reference[key]["values"]
            for col in cls.COLUMNS:
                _close(problems, col, r[col], ref[col])
                if not r[col] >= 0.0:
                    problems.append(f"{col} exponent {r[col]:.6g} < 0")
            out[key] = problems
            curve, rate = key.rsplit("/", 1)
            curves.setdefault(curve, []).append((float(rate), key))
        for points in curves.values():
            points.sort()
            for (_, prev), (_, key) in zip(points, points[1:]):
                for col in cls.COLUMNS:
                    if results[key][col] > results[prev][col] + CONVERGENCE_TOL:
                        out[key].append(f"{col} increases with rate after {prev}")
        return out


WORKLOADS: dict[str, Any] = {
    "montecarlo": MonteCarlo,
    "capacity_sweep": CapacitySweep,
    "exponent_curves": ExponentCurves,
}


def item_outcome(item: Item) -> tuple[dict | None, str | None]:
    """Run one item; a raised exception is the item's outcome, not a crash."""
    try:
        return item.fn(), None
    except Exception as exc:  # noqa: BLE001 - any library error fails only this item
        return None, f"{type(exc).__name__}: {exc}"

