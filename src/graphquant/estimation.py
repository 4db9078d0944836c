"""Density estimation and confusion-matrix / prevalence estimation.

Training vertices can be reweighted by a kernel-density ratio between the
test and training vertex distributions; with all-ones weights the estimators
reduce to the plain unweighted counts. Every estimate works on one outcome
matrix: each vertex's distribution over predicted labels, or, for
neighborhood-aware estimation, over (own prediction, neighbor-majority
prediction) pairs, flattened as own * K + neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .graph import Graph, check_count, check_label_array, check_probability_rows

HARD = "hard"
SOFT = "soft"

DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class PredictionSet:
    """Per-vertex hard labels and/or per-vertex probability rows, checked on
    construction: labels below K, rows with K columns, one row per label."""
    K: int
    hard: np.ndarray | None = None  # int64, shape (n,)
    soft: np.ndarray | None = None  # float64, shape (n, K), rows on the simplex

    def __post_init__(self):
        object.__setattr__(self, "K", check_count(self.K, "prediction set K"))
        if self.hard is None and self.soft is None:
            raise DataError("prediction set needs hard labels or probabilities")
        if self.hard is not None:
            object.__setattr__(self, "hard", check_label_array(None, self.hard, "hard"))
            if self.hard.size and self.hard.max() >= self.K:
                raise DataError(f"hard label out of range for K={self.K}")
        if self.soft is not None:
            object.__setattr__(self, "soft", check_probability_rows(self.soft, self.K, 1e-9))
        if self.hard is not None and self.soft is not None and len(self.hard) != len(self.soft):
            raise DataError(f"{len(self.hard)} hard labels but {len(self.soft)} probability rows")

    @classmethod
    def from_hard(cls, labels, K: int) -> "PredictionSet":
        return cls(K=K, hard=labels)

    @classmethod
    def from_soft(cls, probs) -> "PredictionSet":
        # checked here only to read K and take the argmax (ties to the lowest index)
        probs = check_probability_rows(probs, None, 1e-9)
        return cls(K=probs.shape[1], hard=np.argmax(probs, axis=1), soft=probs)

    @property
    def n(self) -> int:
        return len(self.hard) if self.hard is not None else len(self.soft)

    def require(self, mode: str) -> np.ndarray:
        channel = self.hard if mode == HARD else self.soft
        if channel is None:
            raise ConfigError(f"prediction set has no {mode} channel")
        return channel


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


def density_ratio(q_hat, p_hat) -> np.ndarray:
    """Importance weights q/p with the denominator floored away from zero."""
    q_hat = np.asarray(q_hat, dtype=np.float64)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    if q_hat.shape != p_hat.shape:
        raise DataError("density vectors must have the same length")
    return q_hat / np.maximum(p_hat, DENSITY_FLOOR)


def outcome_matrix(preds: PredictionSet, mode: str, nbr=None) -> np.ndarray:
    """The n x M outcome matrix: row v is vertex v's distribution over outcomes.

    Hard mode gives one-hot rows of the predicted label and soft mode the
    probability rows (M = K). With the neighbor majorities `nbr` of
    nacc_features, outcome j*K + nbr[v] takes the mass row v puts on label j
    (M = K^2), so neighborhood-aware estimation is the same estimator on this
    matrix.
    """
    K = preds.K
    base = np.eye(K)[preds.require(HARD)] if mode == HARD else preds.require(SOFT)
    if nbr is None:
        return base
    n = len(base)
    outcomes = np.zeros((n, K, K))
    outcomes[np.arange(n), :, nbr] = base
    return outcomes.reshape(n, K * K)


def prevalence_vector(outcomes: np.ndarray, vertices) -> np.ndarray:
    """Observed outcome prevalence over the given vertices (duplicates count);
    `outcomes` is an outcome_matrix."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if len(vertices) == 0:
        raise DataError("prevalence over an empty vertex list is undefined")
    return outcomes[vertices].mean(axis=0)


def confusion_estimate(outcomes: np.ndarray, train_vertices, train_labels, K: int,
                       weights=None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Weighted conditional outcome distribution, C[j, i] = P(outcome=j | y=i),
    an (M, K) column-stochastic matrix, and the classes with zero support.

    `outcomes` is an outcome_matrix and `train_labels` are integers in 0..K-1.
    With equal weights this is the plain per-class confusion estimate. Classes
    with zero weighted support get a uniform column.
    """
    train_vertices = np.asarray(train_vertices, dtype=np.int64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    weights = _as_weights(weights, len(train_vertices))
    num = outcomes[train_vertices].T @ (weights[:, None] * np.eye(K)[train_labels])
    denom = np.bincount(train_labels, weights=weights, minlength=K)
    zero = denom <= 0
    C = num / np.where(zero, 1.0, denom)
    C[:, zero] = 1.0 / num.shape[0]
    return C, tuple(np.flatnonzero(zero).tolist())


def nacc_features(g: Graph, preds: PredictionSet) -> np.ndarray:
    """Per-vertex majority predicted label of the neighbors.

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
    return majority


def _as_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise DataError(f"weights must have length {n}, got {weights.shape}")
    if weights.size and (weights.min() < 0 or not np.isfinite(weights).all()):
        raise DataError("weights must be finite and non-negative")
    return weights
