"""Unified quantifier front-end: training-histogram baseline, (probabilistic)
classify-and-count, and adjusted-count with optional importance-sampling
weights and neighborhood-aware confusion profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimation
from .classifiers import check_labels
from .errors import ConfigError, DataError
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
        if self.probabilistic and self.base == MLPE:
            raise ConfigError("mlpe uses no predictions, so it cannot be probabilistic")

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


def importance_weigher(spec: QuantifierSpec, g: Graph, train_vertices):
    """`weigh(samples)`: the importance weights of the training vertices, one
    array per sample. The kernel maps and the training density are built here
    once, so a caller with many batches over one training set keeps one weigher
    and passes what it weighs to quantify_batch as `weights`."""
    train_vertices = check_vertex_ids(train_vertices, g.n, "train vertices")
    kernel_q = spec.kernel_q if spec.kernel_q is not None else KernelSpec.constant()
    kernel_p = spec.kernel_p if spec.kernel_p is not None else KernelSpec.constant()
    q_kernel = make_evaluator(kernel_q, g, train_vertices)
    p_kernel = make_evaluator(kernel_p, g, train_vertices)
    p_density = kde_density(p_kernel, [train_vertices], g.n)[:, 0]

    def weigh(samples) -> list[np.ndarray]:
        samples = [check_vertex_ids(s, g.n, "test sample", nonempty=True) for s in samples]
        if not samples:
            return []
        q = kde_density(q_kernel, samples, g.n)
        return [density_ratio(q[:, j], p_density) for j in range(len(samples))]
    return weigh


def quantify(spec: QuantifierSpec, g: Graph, train_vertices, train_labels,
             test_vertices, preds: PredictionSet | None = None) -> PrevalenceVector:
    """Estimate the class prevalence of the test vertices."""
    return quantify_batch(spec, g, train_vertices, train_labels, [test_vertices], preds)[0]


def quantify_batch(spec: QuantifierSpec, g: Graph, train_vertices, train_labels,
                   samples, preds: PredictionSet | None = None,
                   weights=None) -> list[PrevalenceVector]:
    """Quantify many test samples. `weights` are an SIS spec's importance
    weights, one array per sample, as importance_weigher(spec, g,
    train_vertices)(samples) gives them; without them a fresh weigher computes
    them, its kernel maps and training density shared across the samples."""
    train_vertices = check_vertex_ids(train_vertices, g.n, "train vertices")
    samples = [check_vertex_ids(s, g.n, "test sample", nonempty=True) for s in samples]
    train_labels, K = check_labels(g, train_vertices, train_labels,
                                   preds.K if preds is not None else None)
    if preds is not None and preds.n != g.n:
        raise DataError(f"prediction set has {preds.n} rows for a graph of {g.n} vertices")
    if weights is not None and not spec.uses_sis:
        raise ConfigError(f"{spec.name} takes no importance weights")

    if spec.base == MLPE:
        if len(train_labels) == 0:
            raise ConfigError("mlpe needs labeled training vertices")
        hist = np.bincount(train_labels, minlength=K) / len(train_labels)
        return [PrevalenceVector(q=hist.copy(), K=K, spec=spec) for _ in samples]

    if preds is None:
        raise ConfigError(f"{spec.name} needs a prediction set")
    # looked up on the module so that tracing and test doubles see the call
    nbr = estimation.nacc_features(g, preds) if spec.nacc else None
    outcomes = outcome_matrix(preds, SOFT if spec.probabilistic else HARD, nbr)

    if spec.base == CC:
        return [PrevalenceVector(q=prevalence_vector(outcomes, s), K=K, spec=spec)
                for s in samples]

    if spec.uses_sis:
        weights = (importance_weigher(spec, g, train_vertices)(samples) if weights is None
                   else list(weights))
        if len(weights) != len(samples):  # zip would drop the samples past the last array
            raise DataError(f"expected {len(samples)} weight arrays, got {len(weights)}")
        estimates = [confusion_estimate(outcomes, train_vertices, train_labels, K, w)
                     for w in weights]
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
