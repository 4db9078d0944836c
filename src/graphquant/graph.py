"""Undirected vertex-labeled graphs in compressed sparse form.

Vertices are dense 0-based integers. The adjacency is stored CSR-style
(indptr/indices) with both directions of every edge present, neighbor
lists sorted ascending, no duplicates and no self-loops.
"""

from __future__ import annotations

import csv
import numbers
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError

MAX_VERTICES = 2 ** 31  # from_edges keys an edge as u << 32 | v in one int64


@dataclass(frozen=True)
class Graph:
    n: int
    indptr: np.ndarray   # int64, shape (n+1,)
    indices: np.ndarray  # int64, concatenated sorted neighbor lists
    labels: np.ndarray | None = None    # int64, shape (n,), values in 0..K-1
    features: np.ndarray | None = None  # float64, shape (n, d)

    @classmethod
    def from_edges(cls, n, edges, labels=None, features=None) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs of vertex ids, which
        check_vertex_ids checks against n.

        Self-loops are dropped; duplicate and reversed pairs collapse to a
        single undirected edge.
        """
        n = check_vertex_total(n)
        edges = _as_array(edges if isinstance(edges, np.ndarray) else list(edges))
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise DataError("edge array must have shape (m, 2)")
        edges = check_vertex_ids(edges.reshape(-1), n, "edge endpoints").reshape(-1, 2)
        if labels is not None:
            labels = check_label_array(range(n), labels, "graph")
            if n and labels.max() < 1:
                raise DataError("labeled graphs need at least 2 classes")
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != n:
                raise DataError(f"features must have {n} rows, got shape {features.shape}")
        loops = edges[:, 0] == edges[:, 1]
        if loops.any():
            edges = edges[~loops]
        # one int64 key u << 32 | v per direction (ids stay below MAX_VERTICES); sorted,
        # so rows come out grouped by u with ascending neighbors, and duplicates are adjacent
        m = len(edges)
        keys = np.empty(2 * m, dtype=np.int64)
        forward, reverse = keys[:m], keys[m:]
        np.left_shift(edges[:, 0], 32, out=forward)
        forward |= edges[:, 1]
        np.left_shift(edges[:, 1], 32, out=reverse)
        reverse |= edges[:, 0]
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            keys = keys[np.concatenate([[True], ~repeated])]
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) << 32)
        return cls(n=n, indptr=indptr.astype(np.int64, copy=False), indices=keys & 0xFFFFFFFF,
                   labels=labels, features=features)

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


def check_vertex_ids(ids, n: int, what: str, nonempty: bool = False) -> np.ndarray:
    """`ids` as an int64 array, checked at the boundary: every id must be an
    integer (or a string that spells one) in 0..n-1, and the list must not be
    empty when `nonempty` is set. Raises DataError naming `what` otherwise, so
    no id wraps around or fails later as an index."""
    arr = _as_array(ids)
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


def check_label_array(vertices, labels, what: str = "train") -> np.ndarray:
    """The labels of the given vertices as an int64 array, checked at the boundary:
    one non-negative integer label per vertex (`vertices` None: a flat list of
    labels). Raises DataError otherwise, so no label broadcasts, truncates or
    wraps around; `what` names the vertex set in the message."""
    labels = _as_array(labels)
    count = labels.size if vertices is None else len(vertices)
    if labels.shape != (count,):
        raise DataError(f"expected one {what} label per {what} vertex ({count}), "
                        f"got shape {labels.shape}")
    if labels.size and labels.dtype.kind not in "iu":
        raise DataError(f"{what} labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    if labels.size and labels.min() < 0:
        raise DataError(f"{what} label out of range: {labels.min()} is negative")
    return labels


def _as_array(values) -> np.ndarray:
    """`values` as an array; a list that mixes bools into its numbers, which
    numpy reads as 0 and 1, or whose rows differ in length, as an array of
    objects, which the checks reject."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged: numpy makes no array of numbers of it
        return np.fromiter(values, dtype=object)
    if arr.dtype.kind in "iuf" and not isinstance(values, np.ndarray):
        objects = np.asarray(values, dtype=object)
        if any(isinstance(x, (bool, np.bool_)) for x in objects.flat):
            return objects
    return arr


def is_real(value) -> bool:
    """Whether `value` is a real number that a float holds, numpy's scalars
    included; a bool is not, nor an integer past the float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max))


def is_whole(value) -> bool:
    """Whether `value` is an integer or a float (or fraction) that holds one exactly;
    a bool is neither."""
    return is_real(value) and (isinstance(value, numbers.Integral)
                               or float(value).is_integer() and value == int(value))


def check_count(value, what: str, minimum: int = 0) -> int:
    """`value`, a count, size, seed or iteration number, as an int: an integer
    or a float that holds one (as YAML reads `100.0`), at least `minimum`.
    Raises ConfigError naming `what` otherwise, so no bool, fraction, NaN,
    infinity or integer past the float range is truncated or fails later inside
    numpy."""
    if not is_whole(value) or value < minimum:
        raise ConfigError(f"{what} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def check_real(value, what: str, interval: str) -> int | float:
    """`value`, a rate, scale, probability or exponent, as an int if it is an integer,
    else as a float: a real number in `interval`, written as "(0, 1]" with inf for an
    unbounded end. Raises ConfigError naming `what` and the interval otherwise."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not (is_real(value) and (lo < value if interval[0] == "(" else lo <= value)
            and (value < hi if interval[-1] == ")" else value <= hi)):
        raise ConfigError(f"{what} must be in {interval}, got {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def check_vertex_total(n) -> int:
    """`n`, a vertex count, as an int; a DataError past MAX_VERTICES, or if the
    vertex index would not fit in free memory, before any allocation."""
    if check_count(n, "vertex count") > MAX_VERTICES:
        raise DataError(f"{n} vertices exceed the vertex limit of 2**31")
    # from_edges' indptr and the searchsorted probe that builds it: n + 1 int64 each
    need, free = 16 * (int(n) + 1), available_memory()
    if free is not None and need > free:
        raise DataError(f"{n} vertices need {need / 2**30:.1f} GiB for the vertex index, "
                        f"more than the {free / 2**30:.1f} GiB of free memory")
    return int(n)


def available_memory() -> int | None:
    """Bytes of physical memory free now, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def check_probability_rows(probs, K: int | None, tol: float) -> np.ndarray:
    """`probs` as a float64 array of probability rows: numbers (no text or bools), K
    columns (any number if K is None), finite, non-negative, each row summing to 1
    within `tol`. Raises DataError naming the first fault otherwise."""
    probs = _as_array(probs)
    if probs.ndim != 2:
        raise DataError(f"probability rows must form a 2-D array, got shape {probs.shape}")
    if K is not None and probs.shape[1] != K:
        raise DataError(f"expected {K} columns, got {probs.shape[1]}")
    if probs.dtype.kind not in "iuf":
        raise DataError("non-numeric probability")
    probs = probs.astype(np.float64, copy=False)
    if not np.isfinite(probs).all():
        raise DataError("non-finite probability")
    if probs.size and probs.min() < 0:
        raise DataError("negative probability")
    off = np.flatnonzero(np.abs(probs.sum(axis=1) - 1.0) > tol)
    if off.size:
        raise DataError(f"probabilities sum to {probs[off[0]].sum():.8f}, not 1")
    return probs


def load_graph(edge_path, labels_path=None, features_path=None) -> Graph:
    """Load a graph from an edge file plus optional labels/features files.

    Edge file: one "u v" pair per line (space or tab separated), '#' starts
    a comment. Labels file: one integer per line, line i labels vertex i.
    Features file: one comma-separated row of reals per vertex.

    The vertex count is the number of label lines, or without a labels file
    max edge endpoint + 1.
    """
    edges = _parse_edge_file(edge_path)
    labels = _parse_labels_file(labels_path) if labels_path is not None else None
    # Graph.from_edges checks the ids against n
    n = len(labels) if labels is not None else int(edges.max(initial=-1)) + 1
    features = _parse_features_file(features_path, n) if features_path is not None else None
    return Graph.from_edges(n, edges, labels=labels, features=features)


def save_graph(g: Graph, edge_path, labels_path=None, features_path=None) -> None:
    """Write a graph in the format accepted by load_graph (one edge per line, u < v)."""
    src, dst = g.edge_arrays()
    mask = src < dst
    lines = [f"{u} {v}" for u, v in zip(src[mask].tolist(), dst[mask].tolist())]
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


def read_text(path, error=DataError) -> str:
    """The contents of a file as text, newlines as in open(); `error` (a data
    error by default) naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                    f"at offset {exc.start})") from None


def write_csv(path, fields, rows) -> None:
    """Write a CSV table to `path`: the header `fields`, then one line per row of
    cells. A float is written in its shortest round-trip digits (the csv module's
    str, Python's repr), None as an empty cell, and a tuple as its items joined by
    ';'. An existing file is truncated in place; lines end in \\r\\n, the csv
    module's default."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fields)
        writer.writerows([";".join(cell) if isinstance(cell, tuple) else cell for cell in row]
                         for row in rows)


def guarded_loadtxt(data: str | bytes, source, dtype, **kwargs) -> np.ndarray | None:
    """`source` -- a file with contents `data` (text or bytes), or its lines --
    parsed by one np.loadtxt call; None where np.loadtxt rejects it or might read
    a number otherwise than int() and float() do. They agree on ASCII text without
    \\x1c-\\x1f, which np.loadtxt skips as blanks where int() and float() reject
    them; other characters np.loadtxt may misread as digits ('1\\u01fe' as 472).
    numpy from 1.23 on may parse an int token such as '1.5' through float, with
    only a DeprecationWarning: a rejection too.
    """
    separators = b"\x1c\x1d\x1e\x1f" if isinstance(data, bytes) else "\x1c\x1d\x1e\x1f"
    if not data.isascii() or any(sep in data for sep in separators):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without rows is valid
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(source, dtype=dtype, encoding="utf-8", **kwargs)
    except (ValueError, DeprecationWarning):
        return None


def read_table(path, dtype, row, check=None, delimiter=None, comments=None,
               text=None) -> np.ndarray:
    """The rows of a text file as one 2-D array of `dtype`, skipping blank lines
    and, with `comments`, comment lines.

    `row(line)` is the format's rule for one stripped line: it returns the
    line's values or raises DataError with the reason. `check(table)` tells
    whether the rules accept every row of an array that np.loadtxt parsed, for
    what np.loadtxt cannot check. Where guarded_loadtxt returns None or `check`
    fails, the rows come from the rules, and the error names the first line
    they reject or that has another number of values than the first. So a file
    is accepted exactly when its rules accept it. `text` is the file's contents
    if the caller has read them.
    """
    source = path  # np.loadtxt reads a path faster than a list of lines
    if delimiter is not None:
        text = read_text(path) if text is None else text
        source = text.split("\n")
        # np.loadtxt skips empty lines, but lines of blanks only without a delimiter
        if any(map(str.isspace, source)):
            source = [line for line in source if not line.isspace()]
    # where np.loadtxt reads the path, the guard scans the bytes: faster to read than the text
    data = Path(path).read_bytes() if text is None else text
    table = guarded_loadtxt(data, source, dtype, delimiter=delimiter, comments=comments, ndmin=2)
    if table is not None and (check is None or check(table)):
        return table
    if text is None:
        text = read_text(path)
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or (comments and line.startswith(comments)):
            continue
        try:
            values = np.array(row(line), dtype=dtype)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        except OverflowError:
            raise DataError(f"{path}:{lineno}: value out of range in {line!r}") from None
        if rows and len(values) != len(rows[0]):
            raise DataError(f"{path}:{lineno}: expected {len(rows[0])} columns, "
                            f"got {len(values)}")
        rows.append(values)
    return np.array(rows, dtype=dtype).reshape(-1, len(rows[0]) if rows else 1)


def _parse_edge_file(path) -> np.ndarray:
    return read_table(path, np.int64, _edge_row, comments="#",
                      check=lambda e: e.size == 0 or (e.shape[1] == 2 and e.min() >= 0)
                      ).reshape(-1, 2)


def _edge_row(line: str) -> tuple[int, int]:
    parts = line.split("#", 1)[0].split()
    if len(parts) != 2:
        raise DataError(f"expected 'u v', got {line!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataError(f"non-integer vertex id in {line!r}") from None
    if u < 0 or v < 0:
        raise DataError("negative vertex id")
    return u, v


def _parse_labels_file(path) -> np.ndarray:
    return read_table(path, np.int64, _label_row, check=lambda y: y.shape[1] == 1).reshape(-1)


def _label_row(line: str) -> tuple[int]:
    try:
        return (int(line),)
    except ValueError:
        raise DataError(f"expected an integer label, got {line!r}") from None


def _parse_features_file(path, n) -> np.ndarray:
    features = read_table(path, np.float64, _feature_row, delimiter=",")
    if len(features) != n:
        raise DataError(f"features file has {len(features)} rows, expected {n}")
    return features


def _feature_row(line: str) -> list[float]:
    try:
        return [float(tok) for tok in line.split(",")]
    except ValueError:
        raise DataError("non-numeric feature value") from None


def bfs_distances(g: Graph, sources) -> np.ndarray:
    """Exact unweighted hop distances, one row per source: an |sources| x n
    array of unsigned integers whose largest value marks no path. It is uint8
    (255: no path) and widens to the next unsigned type only if a level
    reaches that value.

    One level-synchronous BFS from all sources at once, bit-parallel as in
    MS-BFS (Then et al. 2015): bit j of a vertex's word w stands for source
    64w + j, so a word holds 64 searches. The frontier and the seen-set are
    word columns over the vertices; one level ORs each vertex's neighbor words
    (the boolean form of the sparse product A @ F of Kepner & Gilbert 2011)
    and keeps the bits not yet seen. No n x n array is formed.
    """
    sources = check_vertex_ids(list(sources), g.n, "BFS sources")
    num_words = -(-len(sources) // 64)
    cols = np.arange(len(sources))
    hops = np.full((len(sources), g.n), np.iinfo(np.uint8).max, dtype=np.uint8)
    hops[cols, sources] = 0
    # word w of vertex v is frontier[w, v]; duplicate sources set several bits
    frontier = np.zeros((num_words, g.n), dtype=np.uint64)
    np.bitwise_or.at(frontier, (cols // 64, sources),
                     np.left_shift(np.uint64(1), (cols % 64).astype(np.uint64)))
    seen = frontier.copy()
    # reduceat needs non-empty segments: only vertices with neighbors get words
    linked = np.flatnonzero(g.degrees)
    starts = g.indptr[linked]
    level = 0
    while frontier.any():
        level += 1
        for w in np.flatnonzero(frontier.any(axis=1)):
            reached = np.zeros(g.n, dtype=np.uint64)
            reached[linked] = np.bitwise_or.reduceat(frontier[w][g.indices], starts)
            reached &= ~seen[w]
            seen[w] |= reached
            frontier[w] = reached
            if not reached.any():
                continue
            if level == np.iinfo(hops.dtype).max:
                hops = _widen(hops)
            # bit b of vertex v's word as entry (b, v), 0 or 1; a new bit's entry
            # holds the no-path value, so subtracting takes it to the level
            # without a branch per entry. Bits past the last source are never set.
            rows = hops[64 * w:64 * (w + 1)]
            bits = np.unpackbits(reached.astype("<u8", copy=False).view(np.uint8).reshape(g.n, 8),
                                 axis=1, bitorder="little")[:, :len(rows)].T
            rows -= np.multiply(bits, np.iinfo(hops.dtype).max - level, dtype=hops.dtype)
    return hops


def _widen(hops: np.ndarray) -> np.ndarray:
    """`hops` in the next wider unsigned type, no-path entries moved to its maximum."""
    wide = hops.astype(f"uint{16 * hops.itemsize}")
    wide[hops == np.iinfo(hops.dtype).max] = np.iinfo(wide.dtype).max
    return wide

