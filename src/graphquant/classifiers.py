"""Built-in baseline node classifiers and prediction-file ingestion.

These keep the toolkit runnable end to end without any ML framework;
externally trained model outputs are loaded from files instead.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError
from .estimation import PredictionSet
from .graph import (Graph, check_count, check_label_array, check_probability_rows, check_real,
                    check_vertex_ids, read_table, read_text)

DEFAULT_LP_ITERATIONS = 50
DEFAULT_LP_DAMPING = 0.85


def check_labels(g: Graph, vertices: np.ndarray, labels, num_classes=None,
                 what: str = "train") -> tuple[np.ndarray, int]:
    """check_label_array, plus the number of classes K and a check that every
    label is below it. K is `num_classes`, else the graph's class count, else
    the largest label + 1."""
    labels = check_label_array(vertices, labels, what)
    if num_classes is not None:
        K = check_count(num_classes, "num_classes")
    else:
        K = g.num_classes if g.labels is not None else int(np.max(labels, initial=-1)) + 1
    if labels.size and labels.max() >= K:
        raise DataError(f"{what} label out of range for K={K}")
    return labels, K


def enq_predict(g: Graph, train_vertices, train_labels, num_classes=None) -> PredictionSet:
    """Neighborhood-majority classifier: each vertex gets the normalized label
    histogram of its labeled training neighbors as its probability row.

    Vertices without any labeled neighbor fall back to the global training
    label histogram. Hard labels are the argmax (ties to the lowest index).
    """
    train_vertices = check_vertex_ids(train_vertices, g.n, "ENQ training vertices", nonempty=True)
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
    train_vertices = check_vertex_ids(train_vertices, g.n, "label propagation training vertices",
                                      nonempty=True)
    damping = check_real(damping, "label propagation damping", "(0, 1)")
    iterations = check_count(iterations, "label propagation iterations")
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
    text = read_text(path)
    # the first non-blank line tells hard labels from probability rows
    hard = "," not in text.lstrip().partition("\n")[0]
    rule = _hard_row if hard else _soft_row
    try:
        values = read_table(path, np.int64 if hard else np.float64, lambda line: rule(line, K),
                            check=lambda table: _rules_pass(table, K), delimiter=",", text=text)
    except DataError as exc:
        raise _prediction_shape_error(path, text, n, K) or exc from None
    if len(values) != n:
        raise _prediction_shape_error(path, text, n, K)
    # checked here, so the PredictionSet is built without checking it again
    if hard:
        return PredictionSet(K=K, hard=values.ravel())
    sums = values.sum(axis=1)
    renorm = np.abs(sums - 1.0) > 1e-12
    values[renorm] /= sums[renorm, None]
    # ties to the lowest index, as in PredictionSet.from_soft
    return PredictionSet(K=K, hard=np.argmax(values, axis=1), soft=values)


def _rules_pass(table: np.ndarray, K: int) -> bool:
    """Whether every row of a parsed predictions table passes its row rule."""
    if table.dtype.kind == "i":
        return table.shape[1] == 1 and not ((table < 0) | (table >= K)).any()
    try:
        check_probability_rows(table, K, 1e-6)
    except DataError:
        return False
    return True


def _hard_row(line: str, K: int) -> tuple[int]:
    toks = line.split(",")
    if len(toks) != 1:
        raise DataError("expected a single label")
    try:
        label = int(toks[0])
    except ValueError:
        raise DataError(f"expected an integer label, got {toks[0]!r}") from None
    if not 0 <= label < K:
        raise DataError(f"label {label} out of range for K={K}")
    return (label,)


def _soft_row(line: str, K: int) -> np.ndarray:
    try:
        row = [float(t) for t in line.split(",")]
    except ValueError:
        row = line.split(",")  # text, which the rule rejects after the column count
    return check_probability_rows([row], K, 1e-6)[0]


def _prediction_shape_error(path, text: str, n: int, K: int) -> DataError | None:
    """The error for a predictions file with contents `text` that has other
    than n rows, or whose first row has neither 1 nor K columns; None if it
    has neither fault. These are reported before any row's own fault."""
    rows = [line for line in text.split("\n") if line.strip()]
    if len(rows) != n:
        return DataError(f"{path}: expected {n} prediction rows, got {len(rows)}")
    arity = rows[0].count(",") + 1 if rows else 1
    if arity not in (1, K):
        return DataError(f"{path}: rows must have 1 or {K} columns, got {arity}")


def save_predictions(preds: PredictionSet, path) -> None:
    """Write a prediction set in the format accepted by load_predictions."""
    if preds.soft is not None:
        lines = (",".join(repr(float(x)) for x in row) for row in preds.soft)
    else:
        lines = (str(int(y)) for y in preds.hard)
    Path(path).write_text("".join(line + "\n" for line in lines))
