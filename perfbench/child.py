"""One pass of one workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src/`` and ``PERFBENCH_T0`` set to ``time.monotonic()`` just before the
spawn, so ``setup_s`` covers interpreter start-up, ``import pbicm``,
``kernels.warmup()`` and building the workload's constellations, codes and
channels.  ``--mode setup`` stops there.  ``--mode run`` then runs every item
of the workload (the timed part, ``wall_s``), checks each output against
``reference.json`` and, with ``--trace``, reports per-layer metrics and writes
the spans to ``--spans``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    t0 = float(os.environ["PERFBENCH_T0"])
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import numpy
    import scipy

    import pbicm
    from pbicm import kernels

    src = (HERE.parent / "src").resolve()
    if Path(pbicm.__file__).resolve().parent.parent != src:
        print(f"pbicm was imported from {pbicm.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    kernels.warmup()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    out: dict = {
        "setup_s": time.monotonic() - t0,
        "env": {
            "numba_enabled": bool(kernels.numba_enabled()),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results: dict[str, dict] = {}
    log = []
    w0 = time.perf_counter()
    for item in wl.items:
        if tracer is not None:
            tracer.item = item.key
        t = time.perf_counter()
        res, err = workloads.item_outcome(item)
        log.append({"key": item.key, "seconds": time.perf_counter() - t, "error": err, "problems": []})
        if err is None:
            results[item.key] = res
    wall = time.perf_counter() - w0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = json.loads((HERE / "reference.json").read_text())
    problems = wl.check(results, reference)
    work_ok = 0
    for item, entry in zip(wl.items, log):
        entry["problems"] = problems.get(item.key, [])
        if entry["error"] is None and not entry["problems"]:
            work_ok += item.work
    out.update(
        wall_s=wall,
        work_ok=work_ok,
        items=len(wl.items),
        failed=sum(1 for e in log if e["error"] is not None or e["problems"]),
        checked=len(problems),
        check_failures=sum(1 for p in problems.values() if p),
        peak_rss_mb=peak_rss_mb,
        log=log,
    )
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
