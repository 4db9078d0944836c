"""Density estimation and confusion-matrix / prevalence estimation.

Training vertices can be reweighted by a kernel-density ratio between the
test and training vertex distributions; with all-ones weights the estimators
reduce to the plain unweighted counts. Neighborhood-aware estimation enriches
the outcome space from predicted labels to (own prediction, neighbor-majority
prediction) pairs, flattened as own * K + neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .graph import Graph

HARD = "hard"
SOFT = "soft"

DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class PredictionSet:
    """Per-vertex hard labels and/or per-vertex probability rows."""
    K: int
    hard: np.ndarray | None = None  # int64, shape (n,)
    soft: np.ndarray | None = None  # float64, shape (n, K), rows on the simplex

    def __post_init__(self):
        if self.hard is None and self.soft is None:
            raise DataError("prediction set needs hard labels or probabilities")

    @classmethod
    def from_hard(cls, labels, K: int) -> "PredictionSet":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and (labels.min() < 0 or labels.max() >= K):
            raise DataError(f"hard label out of range for K={K}")
        return cls(K=int(K), hard=labels)

    @classmethod
    def from_soft(cls, probs) -> "PredictionSet":
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2:
            raise DataError("soft predictions must be a 2-D array")
        if not np.isfinite(probs).all():
            raise DataError("soft predictions must be finite")
        if probs.size and probs.min() < 0:
            raise DataError("soft predictions must be non-negative")
        sums = probs.sum(axis=1)
        if probs.size and np.abs(sums - 1.0).max() > 1e-9:
            raise DataError("soft prediction rows must sum to 1")
        # ties broken to the lowest index by argmax
        return cls(K=probs.shape[1], hard=np.argmax(probs, axis=1), soft=probs)

    @property
    def n(self) -> int:
        return len(self.hard) if self.hard is not None else len(self.soft)

    def require(self, mode: str) -> np.ndarray:
        channel = self.hard if mode == HARD else self.soft
        if channel is None:
            raise ConfigError(f"prediction set has no {mode} channel")
        return channel


@dataclass(frozen=True)
class ConfusionEstimate:
    """Column-stochastic (M, K) conditional prediction distribution plus the
    observed M-vector of prediction prevalences on the test side."""
    C: np.ndarray
    p_hat: np.ndarray | None
    mode: str
    nacc: bool
    zero_support: tuple[int, ...] = ()

    def with_prevalences(self, p_hat: np.ndarray) -> "ConfusionEstimate":
        return replace(self, p_hat=p_hat)


def kde_density(kernel, samples, n: int) -> np.ndarray:
    """Kernel density of each row vertex over each sample, shape (rows, S).

    `kernel` is a linear map from make_evaluator. Column j of the n x S input
    is sample j's empirical distribution over the n vertices (duplicates
    count), so column j of the result is the mean kernel value over sample j.
    """
    dists = np.zeros((n, len(samples)))
    for j, cols in enumerate(samples):
        if len(cols) == 0:
            raise DataError("density estimate needs at least one sample vertex")
        dists[:, j] = np.bincount(cols, minlength=n) / len(cols)
    return kernel(dists)


def density_ratio(q_hat, p_hat, floor: float = DENSITY_FLOOR) -> np.ndarray:
    """Importance weights q/p with the denominator floored away from zero."""
    q_hat = np.asarray(q_hat, dtype=np.float64)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    if q_hat.shape != p_hat.shape:
        raise DataError("density vectors must have the same length")
    if floor <= 0:
        raise ConfigError("floor must be > 0")
    return q_hat / np.maximum(p_hat, floor)


def prevalence_vector(preds: PredictionSet, vertices, mode: str = HARD) -> np.ndarray:
    """Observed prediction prevalence over the given vertices (duplicates count)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if len(vertices) == 0:
        raise DataError("prevalence over an empty vertex list is undefined")
    channel = preds.require(mode)
    if mode == HARD:
        return np.bincount(channel[vertices], minlength=preds.K) / len(vertices)
    return channel[vertices].mean(axis=0)


def _normalize_columns(num: np.ndarray, denom: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    m = num.shape[0]
    C = np.empty_like(num)
    zero_support = []
    for i in range(num.shape[1]):
        if denom[i] > 0:
            C[:, i] = num[:, i] / denom[i]
        else:
            C[:, i] = 1.0 / m
            zero_support.append(i)
    return C, tuple(zero_support)


def confusion_estimate(preds: PredictionSet, train_vertices, train_labels,
                       weights=None, mode: str = HARD) -> ConfusionEstimate:
    """Weighted conditional prediction distribution, column j|i = P(pred=j | y=i).

    With equal weights this is the plain per-class confusion estimate. Classes
    with zero weighted support get a uniform column and are flagged.
    """
    train_vertices = np.asarray(train_vertices, dtype=np.int64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    K = preds.K
    if train_labels.size and (train_labels.min() < 0 or train_labels.max() >= K):
        raise DataError(f"train label out of range for K={K}")
    weights = _as_weights(weights, len(train_vertices))
    num = np.zeros((K, K))
    if mode == HARD:
        hard = preds.require(HARD)
        np.add.at(num, (hard[train_vertices], train_labels), weights)
    else:
        soft = preds.require(SOFT)
        for i in range(K):
            sel = train_labels == i
            if sel.any():
                num[:, i] = weights[sel] @ soft[train_vertices[sel]]
    denom = np.bincount(train_labels, weights=weights, minlength=K)
    C, zero_support = _normalize_columns(num, denom)
    return ConfusionEstimate(C=C, p_hat=None, mode=mode, nacc=False,
                             zero_support=zero_support)


def nacc_features(g: Graph, preds: PredictionSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex (own predicted label, majority predicted label of neighbors).

    Majority ties break to the lowest label; a vertex without neighbors uses
    its own prediction as the neighbor majority.
    """
    hard = preds.require(HARD)
    src, dst = g.edge_arrays()
    counts = np.bincount(src * preds.K + hard[dst], minlength=g.n * preds.K)
    counts = counts.reshape(g.n, preds.K)
    majority = np.argmax(counts, axis=1)
    isolated = g.degrees == 0
    majority[isolated] = hard[isolated]
    return hard.copy(), majority


def _pair_index(own: np.ndarray, nbr: np.ndarray, K: int) -> np.ndarray:
    return own * K + nbr


def nacc_prevalence(features, preds: PredictionSet, vertices, mode: str = HARD) -> np.ndarray:
    """Observed prevalence over (own, neighbor-majority) pairs, length K^2;
    `features` is nacc_features(g, preds)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if len(vertices) == 0:
        raise DataError("prevalence over an empty vertex list is undefined")
    K = preds.K
    own, nbr = features
    if mode == HARD:
        pairs = _pair_index(own[vertices], nbr[vertices], K)
        return np.bincount(pairs, minlength=K * K) / len(vertices)
    soft = preds.require(SOFT)
    out = np.zeros(K * K)
    # soft over the own-label dimension, hard majority over the neighbor one
    for j in range(K):
        np.add.at(out, j * K + nbr[vertices], soft[vertices, j])
    return out / len(vertices)


def nacc_confusion_estimate(features, preds: PredictionSet, train_vertices, train_labels,
                            weights=None, mode: str = HARD) -> ConfusionEstimate:
    """Weighted conditional distribution of (own, neighbor-majority) pairs per
    true class: a (K^2, K) column-stochastic matrix; `features` is
    nacc_features(g, preds)."""
    train_vertices = np.asarray(train_vertices, dtype=np.int64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    K = preds.K
    if train_labels.size and (train_labels.min() < 0 or train_labels.max() >= K):
        raise DataError(f"train label out of range for K={K}")
    weights = _as_weights(weights, len(train_vertices))
    own, nbr = features
    num = np.zeros((K * K, K))
    if mode == HARD:
        pairs = _pair_index(own[train_vertices], nbr[train_vertices], K)
        np.add.at(num, (pairs, train_labels), weights)
    else:
        soft = preds.require(SOFT)
        nbr_t = nbr[train_vertices]
        for j in range(K):
            rows = j * K + nbr_t
            np.add.at(num, (rows, train_labels), weights * soft[train_vertices, j])
    denom = np.bincount(train_labels, weights=weights, minlength=K)
    C, zero_support = _normalize_columns(num, denom)
    return ConfusionEstimate(C=C, p_hat=None, mode=mode, nacc=True,
                             zero_support=zero_support)


def _as_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise DataError(f"weights must have length {n}, got {weights.shape}")
    if weights.size and (weights.min() < 0 or not np.isfinite(weights).all()):
        raise DataError("weights must be finite and non-negative")
    return weights
