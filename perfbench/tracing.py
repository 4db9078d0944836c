"""Spans around the calls into graphquant's modules, recorded from outside.

`Tracer.installed()` replaces module-level names of graphquant with wrappers
at the place their callers look them up (for example `harness.quantify_batch`,
which the harness imported from `quantifiers`), and puts the originals back
on exit. Each wrapped call records one span (name, layer, start, end, parent)
in memory; per-layer metrics are computed from the spans afterwards. A
boundary whose name no longer exists is reported as unmeasured instead of
failing the run.
"""

from __future__ import annotations

import contextlib
import fnmatch
import importlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if sp.issparse(obj):
        return sum(getattr(obj, a).nbytes for a in ("data", "indices", "indptr")
                   if hasattr(obj, a))
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(getattr(x, "dist", x)) for x in obj)
    return 0


def _samples_arg(args, kwargs):
    return {"samples": len(kwargs["samples"] if "samples" in kwargs else args[4])}


def _sample_stats(args, kwargs, result):
    return {"samples": len(result), "flagged": sum(bool(s.flagged) for s in result)}


def _solver_stats(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


# (module, name pattern, layer, attributes recorded from (args, kwargs, result)).
BOUNDARIES = [
    ("cli", "main", "cli", None),
    ("cli", "load_split", "cli", None),
    ("cli", "load_graph", "graph", None),
    ("cli", "load_predictions", "classifiers", None),
    ("cli", "load_sample_sections", "shift", None),
    ("cli", "quantify", "quantifiers", lambda a, k, r: {"samples": 1}),
    ("harness", "run_experiment", "harness", None),
    ("harness", "aggregate", "harness", None),
    ("harness", "load_dataset", "harness", None),
    ("harness", "*_csv", "harness", None),
    ("harness", "generate_sbm", "graph", None),
    ("harness", "load_graph", "graph", None),
    ("harness", "uniform_split", "shift", None),
    ("harness", "sample_*", "shift", _sample_stats),
    ("harness", "fit_classifier", "classifiers", None),
    ("harness", "quantify_batch", "quantifiers", lambda a, k, r: _samples_arg(a, k)),
    ("quantifiers", "make_evaluator", "kernels", None),
    ("quantifiers", "kde_density", "estimation", None),
    ("quantifiers", "density_ratio", "estimation", None),
    ("quantifiers", "confusion_estimate", "estimation", None),
    ("quantifiers", "nacc_confusion_estimate", "estimation", None),
    ("quantifiers", "prevalence_vector", "estimation", None),
    ("quantifiers", "nacc_prevalence", "estimation", None),
    ("quantifiers", "solve_simplex_lsq", "solver", _solver_stats),
    ("estimation", "nacc_features", "estimation", None),
    ("kernels", "ppr_matrix_*", "kernels", lambda a, k, r: {"bytes": _nbytes(r)}),
    ("kernels", "bfs_distances", "graph",
     lambda a, k, r: {"bytes": _nbytes(r), "sources": len(r)}),
]

MAKE_EVALUATOR = "quantifiers.make_evaluator"
EVALUATOR_SPAN = "kernels.eval"   # the callable that make_evaluator returns
OP_SPAN = "bench.op"              # one timed operation of the benchmark


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.installed_names: set[str] = set()
        self.unmeasured: list[str] = []

    def open(self, name: str, layer: str) -> Span:
        span = Span(id=len(self.spans), parent=self._stack[-1].id if self._stack else None,
                    name=name, layer=layer, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.total_s

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, layer: str, record=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if record is not None:
                span.attrs.update(record(args, kwargs, result))
            if name == MAKE_EVALUATOR:
                result = tracer.wrap(result, EVALUATOR_SPAN, layer)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        self.unmeasured = []
        try:
            for mod_name, pattern, layer, record in BOUNDARIES:
                module = importlib.import_module(f"graphquant.{mod_name}")
                names = [n for n in vars(module) if fnmatch.fnmatchcase(n, pattern)
                         and callable(vars(module)[n]) and not isinstance(vars(module)[n], type)]
                if not names:
                    self.unmeasured.append(f"{mod_name}.{pattern}")
                for attr in names:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    span_name = f"{mod_name}.{attr}"
                    self.installed_names.add(span_name)
                    setattr(module, attr, self.wrap(fn, span_name, layer, record))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _match(spans: list[Span], patterns) -> list[Span]:
    return [s for s in spans if any(fnmatch.fnmatchcase(s.name, p) for p in patterns)]


def _self(spans):
    return sum(s.self_s for s in spans)


def _total(spans):
    return sum(s.total_s for s in spans)


def _attr(key):
    return lambda spans: sum(s.attrs.get(key, 0) for s in spans)


PER_OP = "per_op"     # summed over the traced operations, divided by their number
POOLED = "pooled"     # computed over the spans of all traced operations at once

# (name, unit, span patterns or "layer:<layer>", value of the matching spans, scope)
LAYER_METRICS = [
    ("harness.experiment_s", "s", ["harness.run_experiment"], _self, PER_OP),
    ("harness.aggregate_s", "s", ["harness.aggregate"], _self, PER_OP),
    ("harness.csv_io_s", "s", ["harness.*_csv"], _self, PER_OP),
    ("harness.self_s", "s", ["layer:harness"], _self, PER_OP),
    ("cli.calls", "count", ["cli.main"], len, PER_OP),
    ("cli.self_s", "s", ["layer:cli"], _self, PER_OP),
    ("graph.generate_s", "s", ["harness.generate_sbm"], _self, PER_OP),
    ("graph.load_s", "s", ["*.load_graph"], _self, PER_OP),
    ("graph.bfs_s", "s", ["kernels.bfs_distances"], _self, PER_OP),
    ("graph.bfs_sources", "count", ["kernels.bfs_distances"], _attr("sources"), PER_OP),
    ("shift.split_s", "s", ["harness.uniform_split"], _self, PER_OP),
    ("shift.sample_pps_s", "s", ["harness.sample_pps"], _self, PER_OP),
    ("shift.sample_bfs_s", "s", ["harness.sample_bfs"], _self, PER_OP),
    ("shift.sample_rw_s", "s", ["harness.sample_rw"], _self, PER_OP),
    ("shift.samples", "count", ["harness.sample_*"], _attr("samples"), PER_OP),
    ("shift.flagged_frac", "ratio", ["harness.sample_*"],
     lambda spans: _attr("flagged")(spans) / max(1, _attr("samples")(spans)), POOLED),
    ("shift.load_samples_s", "s", ["cli.load_sample_sections"], _self, PER_OP),
    ("classifiers.fit_calls", "count", ["harness.fit_classifier"], len, PER_OP),
    ("classifiers.fit_s", "s", ["harness.fit_classifier"], _self, PER_OP),
    ("classifiers.load_s", "s", ["cli.load_predictions"], _self, PER_OP),
    ("quantifiers.calls", "count", ["harness.quantify_batch", "cli.quantify"], len, PER_OP),
    ("quantifiers.samples", "count", ["harness.quantify_batch", "cli.quantify"],
     _attr("samples"), PER_OP),
    ("quantifiers.self_s", "s", ["layer:quantifiers"], _self, PER_OP),
    ("kernels.build_calls", "count", [MAKE_EVALUATOR], len, PER_OP),
    ("kernels.build_s", "s", [MAKE_EVALUATOR], _self, PER_OP),
    ("kernels.build_incl_s", "s", [MAKE_EVALUATOR], _total, PER_OP),
    ("kernels.ppr_s", "s", ["kernels.ppr_matrix_*"], _self, PER_OP),
    ("kernels.eval_s", "s", [EVALUATOR_SPAN], _self, PER_OP),
    ("kernels.matrix_mb", "MiB", ["kernels.ppr_matrix_*", "kernels.bfs_distances"],
     lambda spans: _attr("bytes")(spans) / 2 ** 20, PER_OP),
    ("estimation.confusion_s", "s",
     ["quantifiers.confusion_estimate", "quantifiers.nacc_confusion_estimate"], _self, PER_OP),
    ("estimation.nacc_features_calls", "count", ["estimation.nacc_features"], len, PER_OP),
    ("estimation.nacc_features_s", "s", ["estimation.nacc_features"], _self, PER_OP),
    ("estimation.prevalence_s", "s",
     ["quantifiers.prevalence_vector", "quantifiers.nacc_prevalence"], _self, PER_OP),
    ("estimation.density_s", "s", ["quantifiers.kde_density", "quantifiers.density_ratio"],
     _self, PER_OP),
    ("solver.calls", "count", ["quantifiers.solve_simplex_lsq"], len, PER_OP),
    ("solver.s", "s", ["quantifiers.solve_simplex_lsq"], _self, PER_OP),
    ("solver.iterations_p50", "count", ["quantifiers.solve_simplex_lsq"],
     lambda spans: statistics.median([s.attrs["iterations"] for s in spans]) if spans else 0,
     POOLED),
    ("solver.iterations_max", "count", ["quantifiers.solve_simplex_lsq"],
     lambda spans: max((s.attrs["iterations"] for s in spans), default=0), POOLED),
    ("solver.not_converged", "count", ["quantifiers.solve_simplex_lsq"],
     lambda spans: sum(not s.attrs["converged"] for s in spans), PER_OP),
]


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced operations, and the names of the
    metrics none of whose boundaries could be wrapped (reported as 0).
    Spans are only recorded inside traced operations."""
    ops = sum(s.name == OP_SPAN for s in tracer.spans)
    measurable = tracer.installed_names | {EVALUATOR_SPAN}
    values, unmeasured = {}, []
    for name, unit, patterns, compute, scope in LAYER_METRICS:
        if patterns[0].startswith("layer:"):
            chosen = [s for s in tracer.spans if f"layer:{s.layer}" in patterns]
        else:
            chosen = _match(tracer.spans, patterns)
            if not any(fnmatch.fnmatchcase(n, p) for n in measurable for p in patterns):
                unmeasured.append(name)
        value = compute(chosen)
        if scope == PER_OP:
            value /= max(1, ops)
        values[name] = (float(value), unit)
    return values, unmeasured


def layer_shares(tracer: Tracer) -> dict:
    """Self time of each layer as a share of the traced operations' wall time."""
    wall = sum(s.total_s for s in tracer.spans if s.name == OP_SPAN)
    shares: dict[str, float] = {}
    for s in tracer.spans:
        shares[s.layer] = shares.get(s.layer, 0.0) + s.self_s / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def spans_json(tracer: Tracer) -> list[list]:
    return [[s.id, s.parent, s.name, s.layer, round(s.start, 7), round(s.end, 7), s.attrs]
            for s in tracer.spans]
