"""Unified quantifier front-end: training-histogram baseline, (probabilistic)
classify-and-count, and adjusted-count with optional importance-sampling
weights and neighborhood-aware confusion profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimation
from .classifiers import check_labels
from .errors import ConfigError
from .estimation import (HARD, SOFT, PredictionSet, confusion_estimate, density_ratio,
                         kde_density, outcome_matrix, prevalence_vector)
from .graph import Graph, check_vertex_ids
from .kernels import KernelSpec, make_evaluator
from .solver import solve_simplex_lsq

# perfbench's tracer still lists the two NACC estimators that the outcome
# matrix replaced as boundaries of this module; these names keep them
# resolvable until its boundary list drops them (ROADMAP item 1).
nacc_confusion_estimate = confusion_estimate
nacc_prevalence = prevalence_vector

MLPE = "mlpe"
CC = "cc"
ACC = "acc"


@dataclass(frozen=True)
class QuantifierSpec:
    """Which quantifier to run. `probabilistic` switches the count and
    confusion estimates to soft predictions; `nacc` enriches the outcome
    space with neighbor majorities; the kernels enable importance-sampled
    confusion estimation (kernel_p defaults to the constant kernel when
    only kernel_q is given)."""
    base: str = ACC
    probabilistic: bool = False
    nacc: bool = False
    kernel_q: KernelSpec | None = None
    kernel_p: KernelSpec | None = None

    def __post_init__(self):
        if self.base not in (MLPE, CC, ACC):
            raise ConfigError(f"unknown quantifier base {self.base!r}")
        if self.nacc and self.base != ACC:
            raise ConfigError("nacc requires base=acc")
        if (self.kernel_q is not None or self.kernel_p is not None) and self.base != ACC:
            raise ConfigError("importance-sampling kernels require base=acc")

    @property
    def uses_sis(self) -> bool:
        return self.kernel_q is not None or self.kernel_p is not None

    @property
    def name(self) -> str:
        if self.base == MLPE:
            return "mlpe"
        stem = ("p" if self.probabilistic else "") + self.base
        if self.uses_sis:
            stem += "+sis"
        if self.nacc:
            stem += "+nacc"
        return stem


@dataclass(frozen=True)
class PrevalenceVector:
    """Estimated class prevalences plus provenance and diagnostics flags."""
    q: np.ndarray
    K: int
    spec: QuantifierSpec
    flags: tuple[str, ...] = ()


def _mode(spec: QuantifierSpec) -> str:
    return SOFT if spec.probabilistic else HARD


class _WeightContext:
    """Per-(spec, graph, train) resources for importance weights, so batch
    runs reuse the kernel maps and the training-density estimate. The weights
    of the last batch are kept too: they do not depend on the predictions, so
    a harness that quantifies one batch once per classifier builds them once."""

    def __init__(self, spec: QuantifierSpec, g: Graph, train_vertices: np.ndarray):
        self.graph = g
        self.train = train_vertices.copy()
        self._last: tuple[list[np.ndarray], list[np.ndarray]] = ([], [])
        kernel_q = spec.kernel_q if spec.kernel_q is not None else KernelSpec.constant()
        kernel_p = spec.kernel_p if spec.kernel_p is not None else KernelSpec.constant()
        self.q_kernel = make_evaluator(kernel_q, g, train_vertices)
        p_kernel = make_evaluator(kernel_p, g, train_vertices)
        self.p_density = kde_density(p_kernel, [train_vertices], g.n)[:, 0]

    def weights_for(self, samples: list[np.ndarray]) -> list[np.ndarray]:
        """Importance weights of the training vertices, one array per sample."""
        if not samples:
            return []
        last_samples, last_weights = self._last
        if len(samples) == len(last_samples) and all(
                np.array_equal(a, b) for a, b in zip(samples, last_samples)):
            return last_weights
        q = kde_density(self.q_kernel, samples, self.graph.n)
        weights = [density_ratio(q[:, j], self.p_density) for j in range(len(samples))]
        # copies: a caller's array may be changed in place before the next batch
        self._last = ([s.copy() for s in samples], weights)
        return weights


def quantify(spec: QuantifierSpec, g: Graph, train_vertices, train_labels,
             test_vertices, preds: PredictionSet | None = None) -> PrevalenceVector:
    """Estimate the class prevalence of the test vertices."""
    return quantify_batch(spec, g, train_vertices, train_labels, [test_vertices], preds)[0]


def quantify_batch(spec: QuantifierSpec, g: Graph, train_vertices, train_labels,
                   samples, preds: PredictionSet | None = None,
                   weight_cache: dict | None = None) -> list[PrevalenceVector]:
    """Quantify many test samples; kernel matrices and the training-density
    estimate are computed once and shared across samples.

    A caller that quantifies several batches can pass one `weight_cache` dict
    to all of them; the weight resources are then built once per (kernel_q,
    kernel_p) pair and reused while the graph and training vertices stay the
    same, and rebuilt when either changes.
    """
    train_vertices = check_vertex_ids(train_vertices, g.n, "train vertices")
    samples = [check_vertex_ids(s, g.n, "test sample", nonempty=True) for s in samples]
    train_labels, K = check_labels(g, train_vertices, train_labels,
                                   preds.K if preds is not None else None)

    if spec.base == MLPE:
        if len(train_labels) == 0:
            raise ConfigError("mlpe needs labeled training vertices")
        hist = np.bincount(train_labels, minlength=K) / len(train_labels)
        return [PrevalenceVector(q=hist.copy(), K=K, spec=spec) for _ in samples]

    if preds is None:
        raise ConfigError(f"{spec.name} needs a prediction set")
    # looked up on the module so that tracing and test doubles see the call
    nbr = estimation.nacc_features(g, preds) if spec.nacc else None
    outcomes = outcome_matrix(preds, _mode(spec), nbr)

    if spec.base == CC:
        return [PrevalenceVector(q=prevalence_vector(outcomes, s), K=K, spec=spec)
                for s in samples]

    if spec.uses_sis:
        weight_cache = {} if weight_cache is None else weight_cache
        key = (spec.kernel_q, spec.kernel_p)
        context = weight_cache.get(key)
        if (context is None or context.graph is not g
                or not np.array_equal(context.train, train_vertices)):
            context = weight_cache[key] = _WeightContext(spec, g, train_vertices)
        estimates = [confusion_estimate(outcomes, train_vertices, train_labels, K, w)
                     for w in context.weights_for(samples)]
    else:
        estimates = [confusion_estimate(outcomes, train_vertices, train_labels, K)] * len(samples)
    results = []
    for s, (C, zero_support) in zip(samples, estimates):
        solved = solve_simplex_lsq(C, prevalence_vector(outcomes, s))
        flags = []
        if not solved.converged:
            flags.append("solver-not-converged")
        flags.extend(f"zero-support:{i}" for i in zero_support)
        results.append(PrevalenceVector(q=solved.q, K=K, spec=spec, flags=tuple(flags)))
    return results
