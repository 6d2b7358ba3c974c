"""Compare two benchmark records, or refuse when they are not comparable.

    python3 perfbench/compare.py BASE.json NEW.json

Records are the files ``run.py`` writes to ``.bench_build/perfbench/``.  Two
records are compared only when they ran the same workload with the same
trace setting and input size on the same kernel path
(``kernels.numba_enabled``); otherwise this exits with 2 and compares
nothing, because numba and numpy-fallback timings measure different code.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv[1:])
    for key in ("workload", "trace", "tiny"):
        if base[key] != new[key]:
            print(f"refused: {key} differs ({base[key]!r} vs {new[key]!r})", file=sys.stderr)
            return 2
    if base["env"]["numba_enabled"] != new["env"]["numba_enabled"]:
        print("refused: kernel paths differ (numba_enabled "
              f"{base['env']['numba_enabled']} vs {new['env']['numba_enabled']})", file=sys.stderr)
        return 2
    print(f"{'metric':40s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, m in base["metrics"].items():
        a, b = m["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:9.3f}" if a else f"{'-':>9s}"
        print(f"{name:40s} {a:14.6g} {b:14.6g} {ratio} {m['unit']}")
    print(f"{'failed_share':40s} {base['failed_share']:14.4f} {new['failed_share']:14.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
