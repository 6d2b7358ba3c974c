"""Spans at pbicm's layer boundaries, recorded from outside the library.

``Tracer.install`` replaces each boundary function with a wrapper on the
module (or class) attribute through which its caller looks it up, e.g.
``pbicm.codec.sample_batch`` for ``channel.sample_batch`` as ``codec`` sees
it.  The library itself is not modified.  Each span holds its name, start,
end, parent span and the id of the benchmark item it ran for; spans stay in
memory and are written out after the timed part of the run.

Self time is a span's duration minus the time its direct child spans cover.
"""
from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict

# Per-layer metrics of a traced run, with their units.  Names map to the
# library as ``ensemble.*`` -> ``pbicm._ensemble`` and ``opt.*`` -> ``pbicm._opt``.
LAYER_METRICS = {
    "channel.sample_batch.calls": "count",
    "channel.sample_batch.busy_s": "s",
    "channel.sample_batch.samples": "count",
    "subchannel.llr_matrix.calls": "count",
    "subchannel.llr_matrix.busy_s": "s",
    "subchannel.llr_matrix.llrs": "count",
    "kernels.llr_batch.calls": "count",
    "kernels.llr_batch.busy_s": "s",
    "kernels.llr_batch.distance_evals": "count",
    "kernels.llr_batch.mbytes_computed": "MB",
    "codec.simulate.busy_s": "s",
    "codec.simulate.trials": "count",
    "codec.self_s": "s",
    "codec.decode_correlations": "count",
    "ensemble.moment_table.calls": "count",
    "ensemble.moment_table.busy_s": "s",
    "ensemble.moment_table.failed": "count",
    "ensemble.moment_table.failed_busy_s": "s",
    "infotheory.moment_queries": "count",
    "infotheory.moment_table_per_query": "ratio",
    "ensemble.get_ensemble.calls": "count",
    "ensemble.get_ensemble.misses": "count",
    "ensemble.get_ensemble.busy_s": "s",
    "kernels.e0_binary_integral.calls": "count",
    "kernels.e0_binary_integral.busy_s": "s",
    "kernels.e0_binary_integral.points": "count",
    "kernels.e0_mary_integral.calls": "count",
    "kernels.e0_mary_integral.busy_s": "s",
    "kernels.e0_mary_integral.points": "count",
    "infotheory.E0Evaluator.e0.calls": "count",
    "opt.exponent_max.calls": "count",
    "opt.exponent_max.busy_s": "s",
    "opt.e0_evals_per_exponent": "ratio",
    "infotheory.self_s": "s",
    "kernels.numba_enabled": "flag",
    "trace.overhead_s": "s",
}

# public infotheory entry points the workloads call; spans of these and of
# E0Evaluator.e0 make up the infotheory layer's self time
_INFOTHEORY_API = (
    "capacity_cm",
    "capacity_pbicm",
    "dispersion_report",
    "rate_bounds",
    "e0_evaluator",
    "random_coding_exponent",
    "pbicm_exponent",
)


def _llr_batch_work(args, kwargs, out):
    # the numpy path materialises three (N, M) float64 arrays (two distance
    # components and the exponent matrix) besides its length-N inputs and the
    # (L, N) output; the byte count is computed from those sizes
    L, n = out.shape
    m = (kwargs["symbols"] if "symbols" in kwargs else args[2]).size
    return {"distance_evals": n * m, "bytes": 8 * (3 * n * m + 4 * n + L * n)}


def _e0_points(args, kwargs, out):
    return {"points": args[0].size}  # grid points of the first log-density argument


def _simulate_work(args, kwargs, out):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[0]
    code = cfg.code
    # ML decoding correlates every codeword with each of the L levels plus the
    # directly synthesised binary-channel run
    return {"trials": cfg.trials, "decode_correlations": cfg.trials * (cfg.cons.L + 1) * code.M * code.n}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item, ok, work]
        self.item: str | None = None
        self._stack: list[int] = []
        self._seen: dict[int, weakref.ref] = {}

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, tracer = self.spans, self._stack, self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = True
            if work is not None:
                span[6] = work(args, kwargs, out)
            return out

        setattr(owner, attr, traced)

    def _ensemble_work(self, args, kwargs, out):
        # a miss is the first time a returned ensemble object is seen
        ref = self._seen.get(id(out))
        if ref is not None and ref() is out:
            return {"misses": 0}
        self._seen[id(out)] = weakref.ref(out)
        return {"misses": 1}

    def install(self) -> None:
        import pbicm._opt
        from pbicm import codec, infotheory, kernels

        self.wrap(codec, "simulate", "codec.simulate", _simulate_work)
        self.wrap(codec, "sample_batch", "channel.sample_batch", lambda a, k, o: {"samples": a[1].size})
        self.wrap(codec, "llr_matrix", "subchannel.llr_matrix", lambda a, k, o: {"llrs": o.size})
        self.wrap(kernels, "llr_batch", "kernels.llr_batch", _llr_batch_work)
        self.wrap(kernels, "e0_binary_integral", "kernels.e0_binary_integral", _e0_points)
        self.wrap(kernels, "e0_mary_integral", "kernels.e0_mary_integral", _e0_points)
        self.wrap(infotheory, "moment_table", "ensemble.moment_table")
        self.wrap(infotheory, "_moments", "infotheory.moments")
        self.wrap(infotheory, "get_ensemble", "ensemble.get_ensemble", self._ensemble_work)
        self.wrap(infotheory, "exponent_max", "opt.exponent_max")
        self.wrap(pbicm._opt, "exponent_max", "opt.exponent_max")
        self.wrap(infotheory.E0Evaluator, "e0", "infotheory.E0Evaluator.e0")
        for attr in _INFOTHEORY_API:
            self.wrap(infotheory, attr, f"infotheory.{attr}")

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, start, end, parent, item, ok, _) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "item": item, "ok": ok}
                f.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this trace, except the ones the caller supplies
        (``kernels.numba_enabled``, ``trace.overhead_s``)."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        failed: dict[str, int] = defaultdict(int)
        failed_busy: dict[str, float] = defaultdict(float)
        work: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, ok, w in self.spans:
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            if not ok:
                failed[name] += 1
                failed_busy[name] += dur
            if parent >= 0:
                child_time[parent] += dur
            for k, v in (w or {}).items():
                work[f"{name}.{k}"] += v
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, *_) in enumerate(self.spans):
            self_time[name] += end - start - child_time[i]
        infotheory_self = sum(v for k, v in self_time.items() if k.startswith("infotheory."))
        queries = calls["infotheory.moments"]
        maxes = calls["opt.exponent_max"]
        m = {
            "channel.sample_batch.calls": calls["channel.sample_batch"],
            "channel.sample_batch.busy_s": busy["channel.sample_batch"],
            "channel.sample_batch.samples": work["channel.sample_batch.samples"],
            "subchannel.llr_matrix.calls": calls["subchannel.llr_matrix"],
            "subchannel.llr_matrix.busy_s": busy["subchannel.llr_matrix"],
            "subchannel.llr_matrix.llrs": work["subchannel.llr_matrix.llrs"],
            "kernels.llr_batch.calls": calls["kernels.llr_batch"],
            "kernels.llr_batch.busy_s": busy["kernels.llr_batch"],
            "kernels.llr_batch.distance_evals": work["kernels.llr_batch.distance_evals"],
            "kernels.llr_batch.mbytes_computed": work["kernels.llr_batch.bytes"] / 1e6,
            "codec.simulate.busy_s": busy["codec.simulate"],
            "codec.simulate.trials": work["codec.simulate.trials"],
            "codec.self_s": self_time["codec.simulate"],
            "codec.decode_correlations": work["codec.simulate.decode_correlations"],
            "ensemble.moment_table.calls": calls["ensemble.moment_table"],
            "ensemble.moment_table.busy_s": busy["ensemble.moment_table"],
            "ensemble.moment_table.failed": failed["ensemble.moment_table"],
            "ensemble.moment_table.failed_busy_s": failed_busy["ensemble.moment_table"],
            "infotheory.moment_queries": queries,
            "infotheory.moment_table_per_query": calls["ensemble.moment_table"] / queries if queries else 0.0,
            "ensemble.get_ensemble.calls": calls["ensemble.get_ensemble"],
            "ensemble.get_ensemble.misses": work["ensemble.get_ensemble.misses"],
            "ensemble.get_ensemble.busy_s": busy["ensemble.get_ensemble"],
            "kernels.e0_binary_integral.calls": calls["kernels.e0_binary_integral"],
            "kernels.e0_binary_integral.busy_s": busy["kernels.e0_binary_integral"],
            "kernels.e0_binary_integral.points": work["kernels.e0_binary_integral.points"],
            "kernels.e0_mary_integral.calls": calls["kernels.e0_mary_integral"],
            "kernels.e0_mary_integral.busy_s": busy["kernels.e0_mary_integral"],
            "kernels.e0_mary_integral.points": work["kernels.e0_mary_integral.points"],
            "infotheory.E0Evaluator.e0.calls": calls["infotheory.E0Evaluator.e0"],
            "opt.exponent_max.calls": maxes,
            "opt.exponent_max.busy_s": busy["opt.exponent_max"],
            "opt.e0_evals_per_exponent": calls["infotheory.E0Evaluator.e0"] / maxes if maxes else 0.0,
            "infotheory.self_s": infotheory_self,
        }
        return {k: float(v) for k, v in m.items()}
