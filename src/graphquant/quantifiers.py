"""Unified quantifier front-end: training-histogram baseline, (probabilistic)
classify-and-count, and adjusted-count with optional importance-sampling
weights and neighborhood-aware confusion profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimation
from .classifiers import _infer_num_classes
from .errors import ConfigError
from .estimation import (HARD, SOFT, PredictionSet, confusion_estimate, density_ratio,
                         kde_density, nacc_confusion_estimate, nacc_prevalence,
                         prevalence_vector)
from .graph import Graph, check_vertex_ids
from .kernels import KernelSpec, make_evaluator
from .solver import solve_simplex_lsq

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
    runs reuse the kernel maps and the training-density estimate."""

    def __init__(self, spec: QuantifierSpec, g: Graph, train_vertices: np.ndarray):
        self.train_vertices = train_vertices
        self.n = g.n
        if not spec.uses_sis:
            self.q_kernel = None
            return
        kernel_q = spec.kernel_q if spec.kernel_q is not None else KernelSpec.constant()
        kernel_p = spec.kernel_p if spec.kernel_p is not None else KernelSpec.constant()
        self.q_kernel = make_evaluator(kernel_q, g, train_vertices)
        p_kernel = make_evaluator(kernel_p, g, train_vertices)
        self.p_density = kde_density(p_kernel, [train_vertices], g.n)[:, 0]

    def weights_for(self, samples: list[np.ndarray]) -> list[np.ndarray]:
        """Importance weights of the training vertices, one array per sample."""
        if self.q_kernel is None or not samples:
            return [np.ones(len(self.train_vertices)) for _ in samples]
        q = kde_density(self.q_kernel, samples, self.n)
        return [density_ratio(q[:, j], self.p_density) for j in range(len(samples))]


def quantify(spec: QuantifierSpec, g: Graph, train_vertices, train_labels,
             test_vertices, preds: PredictionSet | None = None) -> PrevalenceVector:
    """Estimate the class prevalence of the test vertices."""
    return quantify_batch(spec, g, train_vertices, train_labels, [test_vertices], preds)[0]


def quantify_batch(spec: QuantifierSpec, g: Graph, train_vertices, train_labels,
                   samples, preds: PredictionSet | None = None,
                   weight_cache: dict | None = None) -> list[PrevalenceVector]:
    """Quantify many test samples; kernel matrices and the training-density
    estimate are computed once and shared across samples.

    A caller that quantifies several batches on the same graph and training
    vertices can pass one `weight_cache` dict to all of them; the weight
    resources are then built once per (kernel_q, kernel_p) pair and reused.
    """
    train_vertices = check_vertex_ids(train_vertices, g.n, "train vertices")
    train_labels = np.asarray(train_labels, dtype=np.int64)
    samples = [check_vertex_ids(s, g.n, "test sample", nonempty=True) for s in samples]
    K = _infer_num_classes(g, train_labels, preds.K if preds is not None else None)

    if spec.base == MLPE:
        if len(train_labels) == 0:
            raise ConfigError("mlpe needs labeled training vertices")
        hist = np.bincount(train_labels, minlength=K) / len(train_labels)
        return [PrevalenceVector(q=hist.copy(), K=K, spec=spec) for _ in samples]

    if preds is None:
        raise ConfigError(f"{spec.name} needs a prediction set")
    mode = _mode(spec)

    if spec.base == CC:
        return [PrevalenceVector(q=prevalence_vector(preds, s, mode), K=K, spec=spec)
                for s in samples]

    if weight_cache is None:
        weight_cache = {}
    key = (spec.kernel_q, spec.kernel_p)
    if key not in weight_cache:
        weight_cache[key] = _WeightContext(spec, g, train_vertices)
    context = weight_cache[key]
    # looked up on the module so that tracing and test doubles see the call
    features = estimation.nacc_features(g, preds) if spec.nacc else None
    results = []
    for s, weights in zip(samples, context.weights_for(samples)):
        if spec.nacc:
            est = nacc_confusion_estimate(features, preds, train_vertices, train_labels,
                                          weights, mode)
            est = est.with_prevalences(nacc_prevalence(features, preds, s, mode))
        else:
            est = confusion_estimate(preds, train_vertices, train_labels, weights, mode)
            est = est.with_prevalences(prevalence_vector(preds, s, mode))
        solved = solve_simplex_lsq(est.C, est.p_hat)
        flags = []
        if not solved.converged:
            flags.append("solver-not-converged")
        flags.extend(f"zero-support:{i}" for i in est.zero_support)
        results.append(PrevalenceVector(q=solved.q, K=K, spec=spec, flags=tuple(flags)))
    return results
