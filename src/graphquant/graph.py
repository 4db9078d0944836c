"""Undirected vertex-labeled graphs in compressed sparse form.

Vertices are dense 0-based integers. The adjacency is stored CSR-style
(indptr/indices) with both directions of every edge present, neighbor
lists sorted ascending, no duplicates and no self-loops.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DataError

# Hop count marking a vertex that cannot be reached from the BFS source.
UNREACHABLE = np.iinfo(np.int32).max


@dataclass(frozen=True)
class Graph:
    n: int
    indptr: np.ndarray   # int64, shape (n+1,)
    indices: np.ndarray  # int64, concatenated sorted neighbor lists
    labels: np.ndarray | None = None    # int64, shape (n,), values in 0..K-1
    features: np.ndarray | None = None  # float64, shape (n, d)

    @classmethod
    def from_edges(cls, n, edges, labels=None, features=None) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs.

        Self-loops are dropped; duplicate and reversed pairs collapse to a
        single undirected edge.
        """
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise DataError("edge array must have shape (m, 2)")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise DataError(f"edge endpoint out of range for n={n}")
        loops = edges[:, 0] == edges[:, 1]
        if loops.any():
            edges = edges[~loops]
        # one int64 key u*n+v per direction; sorted, so rows come out grouped by u
        # with ascending neighbors, and duplicates are adjacent
        keys = np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]])
        keys.sort()
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])] if keys.size else keys
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        return cls(n=int(n), indptr=indptr.astype(np.int64), indices=keys % n,
                   labels=_validate_labels(labels, n),
                   features=_validate_features(features, n))

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise DataError("graph has no labels")
        return int(self.labels.max()) + 1 if self.n else 0

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Both directions of every edge as parallel (source, target) arrays."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return src, self.indices

    def adjacency_csr(self) -> sp.csr_matrix:
        data = np.ones(len(self.indices), dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


@dataclass(frozen=True)
class DistanceRow:
    """Hop distances from one source vertex; UNREACHABLE marks no path."""
    source: int
    dist: np.ndarray  # int32, shape (n,)


def check_vertex_ids(ids, n: int, what: str, nonempty: bool = False) -> np.ndarray:
    """`ids` as an int64 array, checked at the boundary: every id must be an
    integer (or a string that spells one) in 0..n-1, and the list must not be
    empty when `nonempty` is set. Raises DataError naming `what` otherwise, so
    no id wraps around or fails later as an index."""
    arr = np.asarray(ids)
    if arr.size == 0:
        if nonempty:
            raise DataError(f"{what}: no vertex ids")
        return np.empty(0, dtype=np.int64)
    if arr.ndim != 1:
        raise DataError(f"{what}: expected a flat list of vertex ids, got shape {arr.shape}")
    if arr.dtype.kind in "US":
        try:
            # np.array parses a list of strings as int() does, several times faster than astype
            arr = np.array(arr.tolist(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{what}: non-integer vertex id ({exc})") from None
    if arr.dtype.kind not in "iu":
        raise DataError(f"{what}: vertex ids must be integers, got dtype {arr.dtype}")
    lo, hi = arr.min(), arr.max()
    if lo < 0:
        raise DataError(f"{what}: negative vertex id {lo}")
    if hi >= n:
        raise DataError(f"{what}: vertex id {hi} out of range for n={n}")
    return arr.astype(np.int64, copy=False)


def _validate_labels(labels, n):
    if labels is None:
        return None
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise DataError(f"labels must have length {n}, got {labels.shape}")
    if n and labels.min() < 0:
        raise DataError("labels must be non-negative")
    if n and labels.max() < 1:
        raise DataError("labeled graphs need at least 2 classes")
    return labels


def _validate_features(features, n):
    if features is None:
        return None
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != n:
        raise DataError(f"features must have {n} rows, got shape {features.shape}")
    return features


def load_graph(edge_path, labels_path=None, features_path=None, n=None) -> Graph:
    """Load a graph from an edge file plus optional labels/features files.

    Edge file: one "u v" pair per line (space or tab separated), '#' starts
    a comment. Labels file: one integer per line, line i labels vertex i.
    Features file: one comma-separated row of reals per vertex.

    The vertex count is (in order of precedence) the explicit `n`, the
    number of label lines, or max edge endpoint + 1.
    """
    edges = _parse_edge_file(edge_path)
    labels = _parse_labels_file(labels_path) if labels_path is not None else None
    max_id = int(edges.max()) if edges.size else -1
    if n is None:
        n = len(labels) if labels is not None else max_id + 1
    if max_id >= n:
        raise DataError(f"edge endpoint {max_id} out of range for n={n}")
    if labels is not None and len(labels) != n:
        raise DataError(f"labels file has {len(labels)} lines, expected {n}")
    features = _parse_features_file(features_path, n) if features_path is not None else None
    return Graph.from_edges(n, edges, labels=labels, features=features)


def save_graph(g: Graph, edge_path, labels_path=None, features_path=None) -> None:
    """Write a graph in the format accepted by load_graph (one edge per line, u < v)."""
    src, dst = g.edge_arrays()
    mask = src < dst
    lines = [f"{u} {v}" for u, v in zip(src[mask], dst[mask])]
    Path(edge_path).write_text("\n".join(lines) + ("\n" if lines else ""))
    if labels_path is not None:
        if g.labels is None:
            raise DataError("graph has no labels to save")
        Path(labels_path).write_text("".join(f"{y}\n" for y in g.labels))
    if features_path is not None:
        if g.features is None:
            raise DataError("graph has no features to save")
        rows = (",".join(repr(float(x)) for x in row) for row in g.features)
        Path(features_path).write_text("".join(r + "\n" for r in rows))


# a line of blanks after a newline; np.loadtxt skips such lines only without a delimiter
_BLANKS_LINE = re.compile(r"\n[^\S\n]+(?=\n|\Z)")


def parse_table(path, dtype, explain, delimiter=None, comments=None) -> np.ndarray:
    """The rows of a text file as one 2-D array, parsed by one np.loadtxt call.

    Blank lines are skipped. A rejected file -- a token that is not a number of
    `dtype`, a ragged row, or an integer that numpy would parse through float --
    raises `explain(exc)`: the caller's line scan, which only builds the error
    naming the first offending line. Callers raise `explain(None)` for their own
    checks on the parsed array.
    """
    source = path
    if delimiter is not None:
        text = "\n" + Path(path).read_text(encoding="utf-8")
        if _BLANKS_LINE.search(text):
            source = _BLANKS_LINE.sub("\n", text).split("\n")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without rows is valid
            # numpy from 1.23 on may parse an int token such as '1.5' through float, with only
            # a DeprecationWarning; make that a rejection as well
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(source, dtype=dtype, delimiter=delimiter, comments=comments,
                              ndmin=2, encoding="utf-8")
    except (ValueError, DeprecationWarning) as exc:
        raise explain(exc) from None


def _parse_edge_file(path) -> np.ndarray:
    edges = parse_table(path, np.int64, lambda exc: _edge_line_error(path, exc), comments="#")
    if edges.size == 0:
        return edges.reshape(0, 2)
    if edges.shape[1] != 2 or edges.min() < 0:
        raise _edge_line_error(path, None)
    return edges


def _edge_line_error(path, exc) -> DataError:
    """The error for the first line of a rejected edge file that is not a
    non-negative 'u v' pair; the file is only scanned line by line here."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                return DataError(f"{path}:{lineno}: expected 'u v', got {raw.strip()!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                return DataError(f"{path}:{lineno}: non-integer vertex id in {raw.strip()!r}")
            if u < 0 or v < 0:
                return DataError(f"{path}:{lineno}: negative vertex id")
    return DataError(f"{path}: {exc}")


def _parse_labels_file(path) -> np.ndarray:
    labels = parse_table(path, np.int64, lambda exc: _labels_line_error(path, exc))
    if labels.shape[1] != 1:
        raise _labels_line_error(path, None)
    return labels.reshape(-1)


def _labels_line_error(path, exc) -> DataError:
    """The error for the first line of a rejected labels file that is not one
    integer; the file is only scanned line by line here."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                int(line)
            except ValueError:
                return DataError(f"{path}:{lineno}: expected an integer label, got {line!r}")
    return DataError(f"{path}: {exc}")


def _parse_features_file(path, n) -> np.ndarray:
    features = parse_table(path, np.float64, lambda exc: _features_line_error(path, exc),
                           delimiter=",")
    if len(features) != n:
        raise DataError(f"features file has {len(features)} rows, expected {n}")
    return features


def _features_line_error(path, exc) -> DataError:
    """The error for the first line of a rejected features file that is not a
    comma-separated row of reals as long as the first; the file is only scanned
    line by line here."""
    arity = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                return DataError(f"{path}:{lineno}: non-numeric feature value")
            if arity is None:
                arity = len(row)
            elif len(row) != arity:
                return DataError(f"{path}:{lineno}: expected {arity} columns, got {len(row)}")
    return DataError(f"{path}: {exc}")


def bfs_distances(g: Graph, sources) -> list[DistanceRow]:
    """Exact unweighted hop distances from each source (one row per source).

    One level-synchronous BFS from all sources at once, in the linear-algebra
    form of Kepner & Gilbert (2011): column j of the n x |sources| float32
    frontier block marks the vertices at source j's current level, and one
    sparse x dense product A @ F finds every vertex adjacent to them. Vertices
    reached for the first time get the level in the int32 hop block and form
    the next frontier. No n x n array is formed.
    """
    sources = check_vertex_ids(list(sources), g.n, "BFS sources")
    cols = np.arange(len(sources))
    hops = np.full((len(sources), g.n), UNREACHABLE, dtype=np.int32)
    hops_t = hops.T  # n x |sources| view, so each source's row stays contiguous
    hops_t[sources, cols] = 0
    adj = sp.csr_matrix((np.ones(len(g.indices), dtype=np.float32), g.indices, g.indptr),
                        shape=(g.n, g.n))
    frontier = np.zeros((g.n, len(sources)), dtype=np.float32)
    frontier[sources, cols] = 1.0
    level = 0
    while True:
        level += 1
        reached = (adj @ frontier) > 0
        reached &= hops_t == UNREACHABLE
        if not reached.any():
            break
        hops_t[reached] = level
        np.copyto(frontier, reached)
    return [DistanceRow(source=int(s), dist=row) for s, row in zip(sources, hops)]


def connected_components(g: Graph) -> np.ndarray:
    """Per-vertex component ids, dense in 0..#components-1.

    Ids are assigned in order of the smallest vertex of each component.
    """
    # Imported here: csgraph adds ~0.1 s to start-up and ~9 MiB of memory, and
    # only this function needs it.
    from scipy.sparse.csgraph import connected_components as components

    return components(g.adjacency_csr(), directed=False)[1].astype(np.int64)
