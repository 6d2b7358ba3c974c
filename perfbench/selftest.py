"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --tiny``, untraced
and traced, and asserts that the last line of output has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; that the metric names
and units are exactly the ``end_to_end`` (untraced) or ``per_layer`` (traced)
list of ``BENCHMARK.json``; that every value is a finite number; and that
output checks ran.  It also asserts that ``run.py`` fails, printing no
result, in a copy that holds only ``BENCHMARK.json`` and the benchmark's own
files.  Exits 0 when every assertion holds.  Takes about two minutes.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(bench: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared, f"{workload} trace={trace}: printed {printed} != declared {declared}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m["value"])
    record = json.loads((OUT / f"{workload}-seed3-trace{trace}-tiny.json").read_text())
    for p in record["passes"] + record["traced_passes"]:
        assert p["checked"] >= 1, f"{workload}: no output check ran"
        raised = sum(1 for e in p["log"] if e["error"])
        assert p["checked"] + raised == p["items"], f"{workload}: item left unchecked"
    assert result["correct"], f"{workload} trace={trace}: output check failed:\n{proc.stdout}"
    if trace:
        assert result["metrics"]["kernels.numba_enabled"]["value"] in (0.0, 1.0)
    else:
        assert result["metrics"]["wall_s"]["value"] > 0 and result["metrics"]["setup_s"]["value"] > 0
    print(f"ok  {workload} trace={trace}: {len(printed)} metrics, {result['attempted']} items, "
          f"{result['failed']} failed")


def check_refuses_without_library(bench: dict) -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0)
    assert proc.returncode != 0, "run.py succeeded without the library"
    assert '"metrics"' not in proc.stdout, "run.py printed a result without the library"
    shutil.rmtree(bare)
    print("ok  refuses a checkout without the library")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_refuses_without_library(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
