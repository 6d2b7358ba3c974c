"""The pbicm benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 35 --trace 0

Workloads (inputs, checks and the reason each was chosen are in
``workloads.py``): ``montecarlo``, ``capacity_sweep``, ``exponent_curves``.
The library is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with an error, printing no result, when there is none.

A run makes one pass of the workload, then more while the next is expected
to end within ``--seconds`` of the start.  Every pass runs in a fresh
interpreter, so the library's module-level caches never carry over, as for a
user of the command line, and every pass of a run uses the same inputs, drawn
from ``--seed``.  With ``--trace 0`` the passes are
untraced and the run prints the end-to-end metrics, medians over passes;
``setup_s`` is the median of at least seven start-ups.  With ``--trace 1``
untraced and traced passes alternate and the run prints the per-layer
metrics, medians over the traced passes, and ``trace.overhead_s``, the traced
minus the untraced median ``wall_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` is the number of
items in one pass, ``failed`` the largest number of items of one pass that
raised or failed their output check, and ``correct`` is false when any output
check failed.  The lines before it, starting with ``#``, give the same numbers
with ``failed_share``, the environment and every failed item.  A full record
of the run goes to ``.bench_build/perfbench/``; ``compare.py`` compares two.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("montecarlo", "capacity_sweep", "exponent_curves")
END_TO_END = {"setup_s": "s", "wall_s": "s", "throughput": "1/s", "peak_rss_mb": "MiB"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 7
SETUP_RESERVE_S = 15.0  # time kept back for the extra start-ups after the passes


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # One BLAS/OpenMP thread: on a 2-core machine two BLAS threads made
        # capacity_sweep passes vary by 16% and ran them only 1.1x faster.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PBICM_WORKERS="1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
            self.env[var] = "1"
        self.spans_written = 0

    def spawn(self, mode: str, trace: bool = False) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", a.workload, "--seed", str(a.seed)]
        cmd += ["--mode", mode]
        if a.tiny:
            cmd.append("--tiny")
        if trace:
            OUT.mkdir(parents=True, exist_ok=True)
            spans = OUT / f"spans-{a.workload}-seed{a.seed}-pass{self.spans_written}.jsonl"
            self.spans_written += 1
            cmd += ["--trace", "--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        env = dict(self.env, PERFBENCH_T0=repr(time.monotonic()))
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"a {mode} pass did not finish within the run's time limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError as exc:
            raise BenchError(f"{mode} pass printed no result:\n{lines[-1][:300]}") from exc

    def passes(self) -> tuple[list[dict], list[dict]]:
        """Untraced passes and, with --trace 1, traced ones, alternating."""
        start = time.monotonic()
        plain: list[dict] = []
        traced: list[dict] = []
        while True:
            plain.append(self.spawn("run"))
            if self.args.trace:
                traced.append(self.spawn("run", trace=True))
            elapsed = time.monotonic() - start
            per_round = elapsed / len(plain)
            left = self.deadline - time.monotonic()
            if elapsed + per_round > self.args.seconds or left < per_round + SETUP_RESERVE_S:
                return plain, traced

    def setup_samples(self, done: list[dict]) -> list[float]:
        samples = [p["setup_s"] for p in done]
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.spawn("setup")["setup_s"])
        return samples


def metric_values(args, runner: Runner, plain: list[dict], traced: list[dict]) -> dict[str, float]:
    med = statistics.median
    wall = med(p["wall_s"] for p in plain)
    if not args.trace:
        return {
            "setup_s": med(runner.setup_samples(plain)),
            "wall_s": wall,
            "throughput": med(p["work_ok"] / p["wall_s"] for p in plain),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        }
    out = {name: med(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["kernels.numba_enabled"] = float(plain[0]["env"]["numba_enabled"])
    out["trace.overhead_s"] = med(p["wall_s"] for p in traced) - wall
    return out


def report(args, plain: list[dict], traced: list[dict], values: dict[str, float]) -> dict:
    every = plain + traced
    env = every[0]["env"]
    if any(p["env"] != env for p in every):
        raise BenchError("passes of one run saw different environments")
    units = LAYER_METRICS if args.trace else END_TO_END
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} missing or unexpected")
    attempted = every[0]["items"]
    failed = max(p["failed"] for p in every)
    result = {
        "correct": all(p["check_failures"] == 0 for p in every),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} passes={len(plain)}"
          f"+{len(traced)} traced " + " ".join(f"{k}={v}" for k, v in env.items()))
    checked = sum(p["checked"] for p in every)
    check_failures = sum(p["check_failures"] for p in every)
    print(f"# items per pass {attempted}, failed {failed}, failed_share {failed / attempted:.4f}; "
          f"output checks run {checked}, failed {check_failures}")
    seen = set()
    for entry in (e for p in every for e in p["log"]):
        why = entry["error"] or "; ".join(entry["problems"])
        if why and (entry["key"], why) not in seen:
            seen.add((entry["key"], why))
            print(f"#   failed {entry['key']} after {entry['seconds']:.2f} s: {why}")
    for k in units:
        print(f"# {k:40s} {values[k]:14.6g} {units[k]}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, env=env, failed_share=failed / attempted,
                  passes=plain, traced_passes=traced)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "pbicm" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'pbicm'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        plain, traced = runner.passes()
        result = report(args, plain, traced, metric_values(args, runner, plain, traced))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
