"""Command-line interface.

Subcommands: capacity, exponents, dispersion, ratebounds, simulate, verify,
constellation.  A JSON --config file may supply defaults for any long option
(keys use either dashes or underscores; a value for a flag of the running
subcommand is checked as if typed after its flag, any other is ignored, as
is one for a flag the channel does not take, such as --snr-db with a Dmc);
explicit command-line flags win.
CSV floats carry 9 significant digits and sweep rows are emitted in sorted
order, so reruns with the same inputs are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import codec, infotheory
from .channel import Awgn, Dmc, awgn_from_snr, load_dmc, rayleigh_from_snr
from .constellation import KINDS, make_constellation


def _fmt(v) -> str:
    """One CSV cell: an int as written, a float to 9 significant digits, None as nan."""
    return str(v) if isinstance(v, int) else f"{math.nan if v is None else float(v):.9g}"


def _write(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_table(out: str | None, head: list[str], rows) -> None:
    lines = [",".join(head)] + [",".join(_fmt(v) for v in row) for row in rows]
    _write(out, "\n".join(lines) + "\n")


def _parse_list(flag: str, raw: str, kind) -> list:
    """The entries of the comma-separated list ``raw`` given to ``flag``, sorted."""
    try:
        return sorted(kind(v) for v in raw.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of {kind.__name__}s, got {raw!r}") from None


def _foreign_flags(args) -> list[str]:
    """The flags of ``args`` that its channel does not take: a Dmc's SNR flags, a continuous channel's --dmc-file."""
    if "channel" not in vars(args):
        return []
    return [k for k in (("snr_db", "snr_sweep") if args.channel == "dmc" else ("dmc_file",)) if k in vars(args)]


def _make_channel(args, snr_db: float | None):
    """The channel ``args`` name, at ``snr_db`` (None when no SNR was given) unless it is a Dmc.

    A Dmc has no SNR: an --snr-db or --snr-sweep given with it is an error,
    as is a --dmc-file given with a continuous channel.
    """
    for flag in _foreign_flags(args):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to the {args.channel} channel")
    if args.channel == "dmc":
        if not args.dmc_file:
            raise SystemExit("dmc channel requires --dmc-file")
        return load_dmc(args.dmc_file)
    if snr_db is None:
        flags = "--snr-db (or --snr-sweep)" if "snr_sweep" in vars(args) else "--snr-db"
        raise SystemExit(f"continuous channels require {flags}")
    return awgn_from_snr(snr_db) if args.channel == "awgn" else rayleigh_from_snr(snr_db)


def _snr_points(args) -> list[float | None]:
    if args.snr_sweep:
        try:
            lo, hi, num = args.snr_sweep.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
        except ValueError:
            num = 0
        if num < 1:
            raise ValueError(f"--snr-sweep must be LO:HI:NUM with NUM >= 1, got {args.snr_sweep!r}")
        return sorted(float(v) for v in np.linspace(lo, hi, num))
    return [args.snr_db]


# ---------------------------------------------------------------------------
# capacity / exponents / dispersion / ratebounds
# ---------------------------------------------------------------------------


def _capacity_row(snr_db, base, cons) -> list:
    subs = [infotheory.capacity_subchannel(base, cons, s) for s in range(1, cons.L + 1)]
    return [snr_db, infotheory.capacity_cm(base, cons), infotheory.capacity_pbicm(base, cons), *subs]


def cmd_capacity(args) -> int:
    cons = make_constellation(args.constellation)
    snrs = [None] if args.channel == "dmc" else _snr_points(args)
    rows = [_capacity_row(snr, _make_channel(args, snr), cons) for snr in snrs]
    subs = [f"c_sub_{s}_bits" for s in range(1, cons.L + 1)]
    _write_table(args.out, ["snr_db", "c_cm_bits", "c_pbicm_bits", *subs], rows)
    return 0


def _rate_grid(args, base, cons) -> list[float]:
    if args.rates:
        return _parse_list("--rates", args.rates, float)
    if args.rate_points < 1:
        raise ValueError(f"--rate-points must be >= 1, got {args.rate_points}")
    hi = infotheory.capacity_pbicm(base, cons) if args.rate_max is None else args.rate_max
    return sorted(float(v) for v in np.linspace(args.rate_min, hi, args.rate_points))


# ``pbicm exponents`` column -> the ``infotheory.exponent_curve`` kind it tabulates at total rates
_EXPONENT_COLUMNS = {"unconstrained": "UnconstrainedRandomCoding", "pbicm": "PbicmRandomCoding",
                     "pbicm_normalized": "PbicmNormalized", "wachsmann_flawed": "WachsmannRandomCoding"}


def cmd_exponents(args) -> int:
    cons = make_constellation(args.constellation)
    base = _make_channel(args, args.snr_db)
    rates = _rate_grid(args, base, cons)
    cols = [infotheory.exponent_curve(base, cons, kind, rates).values for kind in _EXPONENT_COLUMNS.values()]
    _write_table(args.out, ["rate_bits", *_EXPONENT_COLUMNS], zip(rates, *cols))
    return 0


def cmd_dispersion(args) -> int:
    base = _make_channel(args, args.snr_db)
    rep = infotheory.dispersion_report(base, make_constellation(args.constellation))
    _write(args.out, rep.to_json() + "\n")
    return 0


def cmd_ratebounds(args) -> int:
    cons = make_constellation(args.constellation)
    base = _make_channel(args, args.snr_db)
    ns = _parse_list("--blocklengths", args.blocklengths, int)
    pes = _parse_list("--pe", args.pe, float)
    rows = [[n, pe, *infotheory.rate_bounds(base, cons, n, pe)] for n in ns for pe in pes]
    _write_table(args.out, ["n", "pe", "lower_bits", "upper_bits"], rows)
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
    g = argparse.ArgumentParser(add_help=False)
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="global RNG seed")
    g.add_argument("--out", default=argparse.SUPPRESS, help="output file (default stdout)")
    g.add_argument("--config", default=argparse.SUPPRESS, help="JSON file with flag defaults")
    return g


def _add_channel_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--constellation", choices=KINDS, default="QPSK")
    p.add_argument("--channel", choices=("awgn", "rayleigh", "dmc"), default="awgn")
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--dmc-file", default=None)


def build_parser() -> argparse.ArgumentParser:
    """The pbicm parser: the global flags and one subparser per subcommand."""
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


def _config_defaults(p: argparse.ArgumentParser, values: dict) -> dict:
    """The ``values`` (dest -> JSON value) that belong to flags of ``p``, each
    converted and checked as if typed after its flag on the command line."""
    out = {}
    for a in p._actions:
        if a.dest not in values:
            continue
        v = values[a.dest]
        try:
            if isinstance(v, bool) or not isinstance(v, (str, int, float)):
                raise ValueError
            out[a.dest] = a.type(str(v)) if a.type else str(v)
            if a.choices is not None and out[a.dest] not in a.choices:
                raise ValueError
        except ValueError:
            raise ValueError(f"--config: invalid {a.option_strings[-1]} value {json.dumps(v)}") from None
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ap, start = build_parser(), {"seed": None, "out": None, "config": None}
        # a first parse, without the config, names the command and the config file
        given = ap.parse_args(argv, argparse.Namespace(**start))
        p = next(a for a in ap._actions if a.dest == "command").choices[given.command]
        values = _config_defaults(p, _config_values(given.config))  # checks the running command's flags only
        # the config's global flags preset the namespace: as subcommand defaults they would clobber a flag
        # given before the command
        p.set_defaults(**{k: v for k, v in values.items() if k not in start})
        start.update((k, v) for k, v in values.items() if k in start)
        args = ap.parse_args(argv, argparse.Namespace(**start))
        for k in _foreign_flags(args):  # a config value the channel does not take is dropped; a typed one is refused
            setattr(args, k, getattr(given, k))
        return args.fn(args)
    except OSError as exc:
        # an input file that cannot be read or an output that cannot be written
        raise SystemExit(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)) from None
    except (ValueError, infotheory.QuadratureConvergenceError) as exc:
        # bad input values and unconverged quadratures are user-facing errors
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
