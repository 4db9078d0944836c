"""Built-in baseline node classifiers and prediction-file ingestion.

These keep the toolkit runnable end to end without any ML framework;
externally trained model outputs are loaded from files instead.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError
from .estimation import PredictionSet
from .graph import Graph, check_vertex_ids, parse_table

DEFAULT_LP_ITERATIONS = 50
DEFAULT_LP_DAMPING = 0.85


def _infer_num_classes(g: Graph, labels, num_classes):
    if num_classes is not None:
        return int(num_classes)
    if g.labels is not None:
        return g.num_classes
    return int(np.max(labels, initial=-1)) + 1


def check_labels(g: Graph, vertices: np.ndarray, labels, num_classes=None,
                 what: str = "train") -> tuple[np.ndarray, int]:
    """The labels of the given vertices as an int64 array and the number of
    classes K, checked at the boundary: one integer label per vertex, each in
    0..K-1. K is `num_classes`, else the graph's class count, else the largest
    label + 1. Raises DataError otherwise, so no label broadcasts, truncates
    or wraps around; `what` names the vertex set in the message."""
    labels = np.asarray(labels)
    if labels.shape != (len(vertices),):
        raise DataError(f"expected one {what} label per {what} vertex ({len(vertices)}), "
                        f"got shape {labels.shape}")
    if labels.size and labels.dtype.kind not in "iu":
        raise DataError(f"{what} labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    K = _infer_num_classes(g, labels, num_classes)
    if labels.size and (labels.min() < 0 or labels.max() >= K):
        raise DataError(f"{what} label out of range for K={K}")
    return labels, K


def enq_predict(g: Graph, train_vertices, train_labels, num_classes=None) -> PredictionSet:
    """Neighborhood-majority classifier: each vertex gets the normalized label
    histogram of its labeled training neighbors as its probability row.

    Vertices without any labeled neighbor fall back to the global training
    label histogram. Hard labels are the argmax (ties to the lowest index).
    """
    train_vertices = check_vertex_ids(train_vertices, g.n, "ENQ training vertices")
    if len(train_vertices) == 0:
        raise DataError("ENQ needs a non-empty training set")
    train_labels, K = check_labels(g, train_vertices, train_labels, num_classes)
    label_of = np.full(g.n, -1, dtype=np.int64)
    label_of[train_vertices] = train_labels
    src, dst = g.edge_arrays()
    labeled = label_of[dst] >= 0
    counts = np.bincount(src[labeled] * K + label_of[dst[labeled]],
                         minlength=g.n * K).reshape(g.n, K).astype(np.float64)
    totals = counts.sum(axis=1)
    global_hist = np.bincount(train_labels, minlength=K) / len(train_labels)
    soft = np.where(totals[:, None] > 0, counts / np.maximum(totals, 1.0)[:, None],
                    global_hist[None, :])
    return PredictionSet.from_soft(soft)


def label_prop_predict(g: Graph, train_vertices, train_labels,
                       iterations: int = DEFAULT_LP_ITERATIONS,
                       damping: float = DEFAULT_LP_DAMPING,
                       num_classes=None) -> PredictionSet:
    """Damped label propagation clamped on the training vertices.

    Training vertices start one-hot, the rest uniform; each step mixes the
    neighbor average with the initial state and renormalizes rows. Zero
    iterations returns the initialization.
    """
    train_vertices = check_vertex_ids(train_vertices, g.n, "label propagation training vertices")
    if len(train_vertices) == 0:
        raise DataError("label propagation needs a non-empty training set")
    if not 0.0 < damping < 1.0:
        raise DataError(f"damping must be in (0,1), got {damping}")
    if iterations < 0:
        raise DataError("iterations must be >= 0")
    train_labels, K = check_labels(g, train_vertices, train_labels, num_classes)

    init = np.full((g.n, K), 1.0 / K)
    init[train_vertices] = 0.0
    init[train_vertices, train_labels] = 1.0

    adj = g.adjacency_csr()
    deg = g.degrees.astype(np.float64)
    inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)

    state = init.copy()
    for _ in range(iterations):
        nbr_avg = inv_deg[:, None] * (adj @ state)
        state = damping * nbr_avg + (1.0 - damping) * init
        state[train_vertices] = init[train_vertices]
        state /= state.sum(axis=1, keepdims=True)
    return PredictionSet.from_soft(state)


def load_predictions(path, n: int, K: int) -> PredictionSet:
    """Load a predictions file: one row per vertex, single integers for hard
    labels or K comma-separated probabilities for soft rows.

    Soft rows whose sum is off by at most 1e-6 are renormalized; anything
    further from the simplex is rejected.
    """
    with open(path, "r", encoding="utf-8") as f:
        first = next(filter(str.strip, f), "")
    arity = 1 if "," not in first else K
    values = parse_table(path, np.int64 if arity == 1 else np.float64,
                         lambda exc: _prediction_row_error(path, n, K, exc), delimiter=",")
    if len(values) == n == 0:
        return PredictionSet.from_hard(np.empty(0, dtype=np.int64), K)
    if values.shape == (n, arity):
        if arity == 1:
            if not ((values < 0) | (values >= K)).any():
                return PredictionSet.from_hard(values.ravel(), K)
        else:
            sums = values.sum(axis=1)
            off = np.abs(sums - 1.0)
            # NaN fails both comparisons, so finiteness is checked first
            if np.isfinite(values).all() and not (values < 0).any() and not (off > 1e-6).any():
                renorm = off > 1e-12
                values[renorm] /= sums[renorm, None]
                return PredictionSet.from_soft(values)
    raise _prediction_row_error(path, n, K, None)


def _prediction_row_error(path, n: int, K: int, exc) -> DataError:
    """The error for a rejected predictions file: a wrong row count or arity,
    or else its first offending row; the file is only scanned row by row here."""
    text = Path(path).read_text(encoding="utf-8")
    numbered = [(lineno, line.strip()) for lineno, line in enumerate(text.split("\n"), start=1)
                if line.strip()]
    if len(numbered) != n:
        return DataError(f"{path}: expected {n} prediction rows, got {len(numbered)}")
    arity = numbered[0][1].count(",") + 1
    if arity not in (1, K):
        return DataError(f"{path}: rows must have 1 or {K} columns, got {arity}")
    for lineno, line in numbered:
        toks = line.split(",")
        if arity == 1:
            if len(toks) != 1:
                return DataError(f"{path}:{lineno}: expected a single label")
            try:
                label = int(toks[0])
            except ValueError:
                return DataError(f"{path}:{lineno}: expected an integer label, got {toks[0]!r}")
            if not 0 <= label < K:
                return DataError(f"{path}:{lineno}: label {label} out of range for K={K}")
            continue
        if len(toks) != K:
            return DataError(f"{path}:{lineno}: expected {K} columns, got {len(toks)}")
        try:
            row = np.asarray([float(t) for t in toks])
        except ValueError:
            return DataError(f"{path}:{lineno}: non-numeric probability")
        if not np.isfinite(row).all():
            return DataError(f"{path}:{lineno}: non-finite probability")
        if row.min() < 0:
            return DataError(f"{path}:{lineno}: negative probability")
        s = row.sum()
        if abs(s - 1.0) > 1e-6:
            return DataError(f"{path}:{lineno}: probabilities sum to {s:.8f}, not 1")
    return DataError(f"{path}: cannot parse prediction rows: {exc}")


def save_predictions(preds: PredictionSet, path) -> None:
    """Write a prediction set in the format accepted by load_predictions."""
    if preds.soft is not None:
        lines = (",".join(repr(float(x)) for x in row) for row in preds.soft)
    else:
        lines = (str(int(y)) for y in preds.hard)
    Path(path).write_text("".join(line + "\n" for line in lines))
