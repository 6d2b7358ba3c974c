"""Regenerate ``perfbench/reference.json``, the values the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only at a commit whose results are trusted; the committed file was made
by the library as it stood when the benchmark was defined.  It takes about
five minutes on two cores.

* Capacity and exponent items: the library's values at every grid point of
  the full and tiny workloads.  An item that raises keeps the error as
  ``seed_outcome``; its ``values`` come from the same code with
  ``scipy.special.roots_laguerre`` in place of numpy's ``laggauss``, whose
  weights are not finite from 200 nodes up, so a later fix can be checked.
* Monte-Carlo items: error counts of ``MC_TRIALS`` trials per point (60 and
  100 times an item's trials), from seeds from ``REF_SEED`` up, which runs
  with ``--seed`` below 15625 never use;
  the random-code half pools ``MC_CODEBOOKS`` codebooks, because the workload
  seed draws a new codebook on every run.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from scipy.special import roots_laguerre

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from pbicm import _ensemble, codec  # noqa: E402
from pbicm.constellation import make_constellation  # noqa: E402

MC_TRIALS = {"hamming74": 300_000, "random64x4096": 200_000}
MC_CODEBOOKS = 20
REF_SEED = 1_000_000


def analysis_reference(cls) -> dict:
    items = {i.key: i for tiny in (False, True) for i in cls(0, tiny).items}
    out = {}
    for key, item in items.items():
        res, err = workloads.item_outcome(item)
        entry = {"seed_outcome": "ok" if err is None else err}
        if err is not None:
            stable = _ensemble.laggauss
            _ensemble.laggauss = roots_laguerre
            try:
                res, err2 = workloads.item_outcome(item)
            finally:
                _ensemble.laggauss = stable
            if err2 is not None:
                raise RuntimeError(f"{key}: no reference value ({err2})")
            entry["values_from"] = "scipy.special.roots_laguerre in place of numpy laggauss"
        entry["values"] = res
        out[key] = entry
        print(key, entry["seed_outcome"], flush=True)
    return out


def montecarlo_reference() -> dict:
    out = {}
    for label, cons_name, code_name, snrs, _ in workloads.MonteCarlo.HALVES:
        cons = make_constellation(cons_name)
        for snr in snrs:
            key = f"montecarlo/{label}/{snr:g}"
            channel = workloads._channel("awgn", snr)
            total = MC_TRIALS[code_name]
            if code_name == "hamming74":
                runs = [(codec.hamming74(), total, REF_SEED)]
            else:
                runs = [
                    (codec.random_codebook(64, 4096, REF_SEED + k), total // MC_CODEBOOKS, REF_SEED + k)
                    for k in range(MC_CODEBOOKS)
                ]
            counts = {"trials": 0, "block_errors": 0, "wbar_errors": 0}
            for code, t, seed in runs:
                sim = codec.simulate(codec.PbicmSimConfig(code, cons, channel, trials=t, seed=seed))
                counts["trials"] += sim.trials
                counts["block_errors"] += sim.counts["block_errors"]
                counts["wbar_errors"] += sim.counts["wbar_errors"]
            out[key] = counts
            print(key, counts, flush=True)
    return out


def main() -> None:
    ref = {}
    ref.update(analysis_reference(workloads.CapacitySweep))
    ref.update(analysis_reference(workloads.ExponentCurves))
    ref.update(montecarlo_reference())
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
