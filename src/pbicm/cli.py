"""Command-line interface.

Subcommands: capacity, exponents, dispersion, ratebounds, simulate, verify,
constellation.  A JSON --config file may supply defaults for any long option
(keys use either dashes or underscores); explicit command-line flags win.
CSV floats carry 9 significant digits and sweep rows are emitted in sorted
order, so reruns with the same inputs are byte-identical.  PBICM_WORKERS,
a positive integer, sets the process count used for sweep points.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import codec, infotheory
from .channel import Awgn, Dmc, awgn_from_snr, load_dmc, rayleigh_from_snr
from .constellation import KINDS, make_constellation


def _fmt(v: float) -> str:
    return f"{float(v):.9g}"


def _nworkers() -> int:
    raw = os.environ.get("PBICM_WORKERS", "1")
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ValueError(f"PBICM_WORKERS must be a positive integer, got {raw!r}")
    return int(raw)


def _map_points(fn, points):
    w = _nworkers()
    if w <= 1 or len(points) <= 1:
        return [fn(p) for p in points]
    with ProcessPoolExecutor(max_workers=min(w, len(points))) as ex:
        return list(ex.map(fn, points))


def _write(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _make_channel(kind: str, snr_db, dmc_file):
    if kind == "dmc":
        if not dmc_file:
            raise SystemExit("dmc channel requires --dmc-file")
        return load_dmc(dmc_file)
    if snr_db is None or math.isnan(snr_db):
        raise SystemExit("continuous channels require --snr-db (or --snr-sweep)")
    return awgn_from_snr(float(snr_db)) if kind == "awgn" else rayleigh_from_snr(float(snr_db))


def _snr_points(args) -> list[float]:
    if getattr(args, "snr_sweep", None):
        try:
            lo, hi, num = args.snr_sweep.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
        except ValueError:
            num = 0
        if num < 1:
            raise ValueError(f"--snr-sweep must be LO:HI:NUM with NUM >= 1, got {args.snr_sweep!r}")
        return [float(v) for v in np.linspace(lo, hi, num)]
    return [math.nan if args.snr_db is None else float(args.snr_db)]


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def _capacity_point(item):
    cons_name, ch_kind, dmc_file, snr_db = item
    cons = make_constellation(cons_name)
    base = _make_channel(ch_kind, snr_db, dmc_file)
    c_cm = infotheory.capacity_cm(base, cons)
    subs = [infotheory.capacity_subchannel(base, cons, s) for s in range(1, cons.L + 1)]
    return (snr_db, c_cm, sum(subs), subs)


def cmd_capacity(args) -> int:
    cons = make_constellation(args.constellation)
    pts = [math.nan] if args.channel == "dmc" else sorted(_snr_points(args))
    rows = _map_points(
        _capacity_point, [(args.constellation, args.channel, args.dmc_file, p) for p in pts]
    )
    head = ["snr_db", "c_cm_bits", "c_pbicm_bits"]
    head += [f"c_sub_{s}_bits" for s in range(1, cons.L + 1)]
    lines = [",".join(head)]
    for snr_db, c_cm, c_pb, subs in rows:
        lines.append(",".join([_fmt(snr_db), _fmt(c_cm), _fmt(c_pb)] + [_fmt(v) for v in subs]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


def _exponent_point(item):
    cons_name, ch_kind, dmc_file, snr_db, rate = item
    cons = make_constellation(cons_name)
    base = _make_channel(ch_kind, snr_db, dmc_file)
    ev_u = infotheory.e0_evaluator(base, cons, "Unconstrained")
    ev_w = infotheory.e0_evaluator(base, cons, "WachsmannAveraged")
    unc = infotheory.random_coding_exponent(ev_u, rate)
    pb = infotheory.pbicm_exponent(base, cons, rate)
    pbn = infotheory.pbicm_exponent(base, cons, rate, normalized=True)
    averaged = infotheory.random_coding_exponent(ev_w, rate / cons.L)
    return (rate, unc, pb, pbn, averaged)


def _rate_grid(args, base, cons) -> list[float]:
    if args.rates:
        return sorted(float(v) for v in args.rates.split(","))
    if args.rate_points < 1:
        raise ValueError(f"--rate-points must be >= 1, got {args.rate_points}")
    hi = args.rate_max
    if hi is None:
        hi = infotheory.capacity_pbicm(base, cons)
    return [float(v) for v in np.linspace(args.rate_min, hi, args.rate_points)]


def cmd_exponents(args) -> int:
    cons = make_constellation(args.constellation)
    base = _make_channel(args.channel, args.snr_db, args.dmc_file)
    rates = _rate_grid(args, base, cons)
    snr = math.nan if args.snr_db is None else args.snr_db
    rows = _map_points(
        _exponent_point,
        [(args.constellation, args.channel, args.dmc_file, snr, r) for r in rates],
    )
    lines = ["rate_bits,unconstrained,pbicm,pbicm_normalized,wachsmann_flawed"]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# dispersion / ratebounds
# ---------------------------------------------------------------------------


def cmd_dispersion(args) -> int:
    base = _make_channel(args.channel, args.snr_db, args.dmc_file)
    rep = infotheory.dispersion_report(base, make_constellation(args.constellation))
    _write(args.out, rep.to_json() + "\n")
    return 0


def cmd_ratebounds(args) -> int:
    cons = make_constellation(args.constellation)
    base = _make_channel(args.channel, args.snr_db, args.dmc_file)
    ns = sorted(int(v) for v in str(args.blocklengths).split(","))
    pes = sorted(float(v) for v in str(args.pe).split(","))
    lines = ["n,pe,lower_bits,upper_bits"]
    for n in ns:
        for pe in pes:
            lo, hi = infotheory.rate_bounds(base, cons, n, pe)
            lines.append(f"{n},{_fmt(pe)},{_fmt(lo)},{_fmt(hi)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# simulate / constellation
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    path = Path(args.sim_config)
    try:
        cfg = codec.PbicmSimConfig.from_json(path.read_text(), base_dir=path.parent)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if args.seed is not None:
        cfg.seed = args.seed
    res = codec.simulate(cfg)
    _write(args.out, res.to_json() + "\n")
    return 0


def cmd_constellation(args) -> int:
    _write(args.out, make_constellation(args.constellation).to_json() + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_checks(seed: int, fault: str | None) -> list[dict]:
    from . import dmc as dmcmod
    from .channel import make_rng
    from .subchannel import wbar_as_dmc

    checks: list[dict] = []
    dither = fault != "no-dither"

    # 1. combined-channel reductions agree with direct matrix computations
    rng = make_rng(seed, 777)
    qpsk = make_constellation("QPSK")
    worst = 0.0
    for _ in range(5):
        m = rng.random((4, 4)) + 0.05
        m /= m.sum(axis=1, keepdims=True)
        base = Dmc(m)
        wb = wbar_as_dmc(base, qpsk).matrix
        ev = infotheory.e0_evaluator(base, qpsk, "WbarCombined")
        worst = max(worst, abs(infotheory.capacity_pbicm(base, qpsk) / 2 - dmcmod.capacity(wb)))
        for rho in (0.25, 0.5, 1.0):
            worst = max(worst, abs(ev.e0(rho) - dmcmod.e0(wb, rho)))
        for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
            worst = max(
                worst,
                abs(
                    infotheory.random_coding_exponent(ev, rate)
                    - dmcmod.random_coding_exponent(wb, rate)
                ),
            )
        rep = infotheory.dispersion_report(base, qpsk)
        worst = max(worst, abs(rep.v_wbar - dmcmod.dispersion(wb)))
    checks.append(
        {"name": "dmc_oracle_equivalence", "passed": bool(worst <= 1e-9), "max_abs_diff": worst}
    )

    # 2. pipeline LLR law matches the synthesized combined channel (KS);
    # QAM16 carries an asymmetric subchannel, so it is the case that turns
    # red when the dither stage is broken
    awgn2 = Awgn(10 ** (-0.2))
    for cons_name in ("QPSK", "QAM16"):
        cons = make_constellation(cons_name)
        cfg = codec.PbicmSimConfig(codec.hamming74(), cons, awgn2, trials=6000, seed=seed)
        rep_eq = codec.equivalence_test(cfg, dither=dither)
        checks.append(
            {
                "name": f"equivalence_ks_{cons_name.lower()}",
                "passed": bool(rep_eq.p_value > 0.01),
                "p_value": rep_eq.p_value,
            }
        )

    # 3. block error rate sandwiched by the per-level rates (3-sigma slack)
    sim = codec.simulate(
        codec.PbicmSimConfig(codec.hamming74(), qpsk, awgn2, trials=20000, seed=seed)
    )
    se_o = (sim.pe_overall_ci[1] - sim.pe_overall_ci[0]) / 4
    se_w = (sim.pe_wbar_direct_ci[1] - sim.pe_wbar_direct_ci[0]) / 4
    L = qpsk.L
    low_ok = sim.pe_wbar_direct - sim.pe_overall <= 3 * math.hypot(se_o, se_w)
    up_ok = sim.pe_overall - L * sim.pe_wbar_direct <= 3 * math.hypot(se_o, L * se_w)
    checks.append(
        {
            "name": "sandwich_bounds",
            "passed": bool(low_ok and up_ok),
            "pe_overall": sim.pe_overall,
            "pe_wbar_direct": sim.pe_wbar_direct,
        }
    )

    # 4. capacity anchor for 8-PSK on AWGN at 5 dB
    psk8 = make_constellation("PSK8")
    awgn5 = Awgn(10 ** (-0.5))
    c_cm = infotheory.capacity_cm(awgn5, psk8)
    c_pb = infotheory.capacity_pbicm(awgn5, psk8)
    checks.append(
        {
            "name": "capacity_anchor_8psk_5db",
            "passed": bool(abs(c_cm - 1.86) <= 0.02 and abs(c_pb - 1.84) <= 0.02 and c_cm >= c_pb),
            "c_cm": c_cm,
            "c_pbicm": c_pb,
        }
    )

    # 5. Gaussian tail inverse round-trips at small targets
    worst_q = max(
        abs(infotheory.qfunc(infotheory.qinv(e)) - e) / e for e in (1e-4, 1e-8, 1e-12)
    )
    checks.append(
        {"name": "qinv_roundtrip", "passed": bool(worst_q <= 1e-12), "max_rel_err": worst_q}
    )
    return checks


def cmd_verify(args) -> int:
    seed = 0 if args.seed is None else args.seed
    checks = _verify_checks(seed, args.inject_fault)
    ok = all(c["passed"] for c in checks)
    out = json.dumps({"all_passed": ok, "checks": checks}, indent=2, default=float)
    _write(args.out, out + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _global_flags() -> argparse.ArgumentParser:
    """--seed, --out and --config: the parent of the top parser and of every subcommand.

    So they may stand before or after the subcommand.  SUPPRESS leaves a
    flag that is not given out of the namespace, so a subcommand does not
    clobber a value given before it; ``main`` presets the absent ones.
    """
    g = argparse.ArgumentParser(prog="pbicm", add_help=False, exit_on_error=False)
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="global RNG seed")
    g.add_argument("--out", default=argparse.SUPPRESS, help="output file (default stdout)")
    g.add_argument("--config", default=argparse.SUPPRESS, help="JSON file with flag defaults")
    return g


def _add_channel_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--constellation", choices=KINDS, default="QPSK")
    p.add_argument("--channel", choices=("awgn", "rayleigh", "dmc"), default="awgn")
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--dmc-file", default=None)


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The pbicm parser; ``defaults`` (dest -> value, e.g. from a --config file) replace subcommand flag defaults."""
    common = _global_flags()
    ap = argparse.ArgumentParser(prog="pbicm", description=__doc__, parents=[common])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", parents=[common], help="CM/parallel capacities over an SNR sweep")
    _add_channel_opts(p)
    p.add_argument("--snr-sweep", default=None, metavar="LO:HI:NUM")
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("exponents", parents=[common], help="exponent families over a rate grid")
    _add_channel_opts(p)
    p.add_argument("--rates", default=None, help="comma-separated total rates (bits/channel use)")
    p.add_argument("--rate-min", type=float, default=0.05)
    p.add_argument("--rate-max", type=float, default=None)
    p.add_argument("--rate-points", type=int, default=12)
    p.set_defaults(fn=cmd_exponents)

    p = sub.add_parser("dispersion", parents=[common], help="dispersion report as JSON")
    _add_channel_opts(p)
    p.set_defaults(fn=cmd_dispersion)

    p = sub.add_parser("ratebounds", parents=[common], help="finite-blocklength rate bracket")
    _add_channel_opts(p)
    p.add_argument("--blocklengths", default="100,1000,10000")
    p.add_argument("--pe", default="1e-3", help="comma-separated target error probabilities")
    p.set_defaults(fn=cmd_ratebounds)

    p = sub.add_parser("simulate", parents=[common], help="Monte-Carlo run from a JSON spec")
    p.add_argument("--sim-config", required=True, help="JSON simulation spec")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", parents=[common], help="self-check suite; exit 0 iff all pass")
    p.add_argument("--inject-fault", choices=("no-dither",), default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("constellation", parents=[common], help="dump a labeled constellation as JSON")
    p.add_argument("--constellation", choices=KINDS, required=True)
    p.set_defaults(fn=cmd_constellation)

    for p in sub.choices.values():
        p.set_defaults(**(defaults or {}))
    return ap


def _config_values(path: str | None) -> dict:
    """Flag defaults, keyed by dest, from the JSON object in ``path`` (none without a path)."""
    if path is None:
        return {}
    try:
        vals = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(vals, dict):
        raise ValueError(f"{path}: expected a JSON object of flag defaults")
    return {k.replace("-", "_"): v for k, v in vals.items()}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            given, _ = _global_flags().parse_known_args(argv)
        except argparse.ArgumentError:
            given = argparse.Namespace()  # a malformed global flag: the full parse below reports it
        defaults = _config_values(getattr(given, "config", None))
        defaults.pop("config", None)
        # a global flag that is not given takes the config's value, else None
        start = argparse.Namespace(seed=defaults.pop("seed", None), out=defaults.pop("out", None), config=None)
        args = build_parser(defaults).parse_args(argv, start)
        return args.fn(args)
    except OSError as exc:
        # an input file that cannot be read or an output that cannot be written
        raise SystemExit(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)) from None
    except (ValueError, infotheory.QuadratureConvergenceError) as exc:
        # bad input values and unconverged quadratures are user-facing
        # errors, also when re-raised from a PBICM_WORKERS pool worker
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
