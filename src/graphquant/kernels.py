"""Vertex kernels backing the kernel-density weights: teleporting random-walk
(PPR) rows computed exactly or through a pruned-sparse matrix, shortest-path,
feature inner-product, and the constant kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .graph import Graph, UNREACHABLE, bfs_distances

DEFAULT_ALPHA = 0.1       # teleport probability per walk step
DEFAULT_WALK_LEN = 10     # number of walk steps (matrix power)
DEFAULT_INTERP = 0.9      # weight of the PPR term in the interpolated kernel
DEFAULT_GAMMA = 3.0       # decay rate of the shortest-path kernel

CONSTANT = "constant"
PPR = "ppr"
SHORTEST_PATH = "sp"
FEATURE = "feature"

DENSE = "dense"
SPARSE = "sparse"


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a vertex kernel.

    kind "ppr" evaluates interp * walk_probability + (1 - interp), where the
    walk probability is entry (v, v') of (alpha*I + (1-alpha)*Abar)^walk_len.
    kind "sp" evaluates exp(-gamma * hops), 0 for disconnected pairs.
    kind "feature" evaluates max(0, <x_v, x_v'>); "constant" is all ones.
    PPR mode "dense" computes only the needed rows exactly; "sparse" goes
    through the pruned-sparse matrix with prune_threshold.
    """
    kind: str
    alpha: float = DEFAULT_ALPHA
    walk_len: int = DEFAULT_WALK_LEN
    interp: float = DEFAULT_INTERP
    mode: str = DENSE
    prune_threshold: float = 0.0
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if self.kind not in (CONSTANT, PPR, SHORTEST_PATH, FEATURE):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.kind == PPR:
            if not 0.0 < self.alpha < 1.0:
                raise ConfigError(f"ppr alpha must be in (0,1), got {self.alpha}")
            if self.walk_len < 1:
                raise ConfigError(f"ppr walk_len must be >= 1, got {self.walk_len}")
            if not 0.0 <= self.interp <= 1.0:
                raise ConfigError(f"ppr interp must be in [0,1], got {self.interp}")
            if self.mode not in (DENSE, SPARSE):
                raise ConfigError(f"ppr mode must be dense or sparse, got {self.mode!r}")
            if self.prune_threshold < 0.0:
                raise ConfigError("ppr prune_threshold must be >= 0")
        if self.kind == SHORTEST_PATH and self.gamma <= 0.0:
            raise ConfigError(f"sp gamma must be > 0, got {self.gamma}")

    @classmethod
    def constant(cls) -> "KernelSpec":
        return cls(kind=CONSTANT)

    @classmethod
    def ppr(cls, alpha=DEFAULT_ALPHA, walk_len=DEFAULT_WALK_LEN, interp=DEFAULT_INTERP,
            mode=DENSE, prune_threshold=0.0) -> "KernelSpec":
        return cls(kind=PPR, alpha=alpha, walk_len=walk_len, interp=interp,
                   mode=mode, prune_threshold=prune_threshold)

    @classmethod
    def shortest_path(cls, gamma=DEFAULT_GAMMA) -> "KernelSpec":
        return cls(kind=SHORTEST_PATH, gamma=gamma)

    @classmethod
    def feature(cls) -> "KernelSpec":
        return cls(kind=FEATURE)


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel values k(rows[i], cols[j]); the first argument indexes rows."""
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray  # shape (len(rows), len(cols)), entries >= 0


def normalized_adjacency_dense(g: Graph) -> np.ndarray:
    """Column-normalized adjacency A @ D^-1; isolated vertices self-absorb."""
    a = g.adjacency_csr().toarray()
    deg = g.degrees.astype(np.float64)
    abar = np.zeros_like(a)
    nz = deg > 0
    abar[:, nz] = a[:, nz] / deg[nz]
    iso = np.where(~nz)[0]
    abar[iso, iso] = 1.0
    return abar


def normalized_adjacency_sparse(g: Graph) -> sp.csr_matrix:
    deg = g.degrees.astype(np.float64)
    inv = np.zeros(g.n)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    abar = g.adjacency_csr() @ sp.diags(inv)
    iso = np.where(~nz)[0]
    if len(iso):
        ident = sp.csr_matrix((np.ones(len(iso)), (iso, iso)), shape=(g.n, g.n))
        abar = abar + ident
    return abar.tocsr()


def _check_ppr_params(alpha, walk_len):
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    if walk_len < 0:
        raise ConfigError(f"walk_len must be >= 0, got {walk_len}")


def ppr_matrix_dense(g: Graph, alpha: float, walk_len: int) -> np.ndarray:
    """Full n x n matrix of walk probabilities (alpha*I + (1-alpha)*Abar)^walk_len."""
    _check_ppr_params(alpha, walk_len)
    base = alpha * np.eye(g.n) + (1.0 - alpha) * normalized_adjacency_dense(g)
    return np.linalg.matrix_power(base, walk_len)


def ppr_matrix_sparse_pruned(g: Graph, alpha: float, walk_len: int,
                             prune_threshold: float) -> sp.csr_matrix:
    """Sparse walk-probability matrix, zeroing product entries below the
    threshold after every sparse multiplication.

    With prune_threshold = 0 this equals the dense power exactly (up to
    floating-point rounding). The teleport term alpha*R is carried over
    unpruned each step, so aggressive thresholds leave a diagonal remainder.
    """
    _check_ppr_params(alpha, walk_len)
    if prune_threshold < 0.0:
        raise ConfigError("prune_threshold must be >= 0")
    abar = normalized_adjacency_sparse(g)
    result = sp.identity(g.n, format="csr")
    for _ in range(walk_len):
        prod = (abar @ result).tocsr()
        if prune_threshold > 0.0:
            prod.data[prod.data < prune_threshold] = 0.0
            prod.eliminate_zeros()
        result = (alpha * result + (1.0 - alpha) * prod).tocsr()
    return result


def _walk(step_matrix, alpha: float, walk_len: int, x: np.ndarray) -> np.ndarray:
    """walk_len steps x <- alpha*x + (1-alpha)*(step_matrix @ x)."""
    for _ in range(walk_len):
        x = alpha * x + (1.0 - alpha) * (step_matrix @ x)
    return x


def ppr_matrix_rows(g: Graph, alpha: float, walk_len: int, rows) -> np.ndarray:
    """Rows `rows` of the walk-probability matrix, shape (len(rows), n).

    Walks the n x len(rows) indicator block with Abar^T, so only sparse x dense
    products are formed, never the n x n matrix. Equals
    ppr_matrix_dense(g, alpha, walk_len)[rows] up to floating-point rounding.
    """
    _check_ppr_params(alpha, walk_len)
    rows = np.asarray(rows, dtype=np.int64)
    abar_t = normalized_adjacency_sparse(g).T.tocsr()
    block = np.zeros((g.n, len(rows)))
    block[rows, np.arange(len(rows))] = 1.0
    return np.ascontiguousarray(_walk(abar_t, alpha, walk_len, block).T)


def make_ppr_density(spec: KernelSpec, g: Graph, rows):
    """Dense-mode PPR kernel density of each row vertex over samples.

    The returned callable maps a list of samples to a (len(rows), len(samples))
    array whose column j is mean_c k(rows[i], c) over the vertices c of sample j,
    that is interp * (Pi u_j)[rows[i]] + (1 - interp) with u_j the sample's
    empirical distribution (duplicates count) and Pi the walk matrix. All
    samples walk together: walk_len sparse x dense steps on an n x len(samples)
    block, and no len(rows) x n block is built. Each column equals
    make_evaluator(spec, g, rows)(cols).mean(axis=1) up to floating-point
    rounding.
    """
    rows = np.asarray(rows, dtype=np.int64)
    abar = normalized_adjacency_sparse(g)
    lam = spec.interp

    def density(samples):
        block = np.zeros((g.n, len(samples)))
        for j, cols in enumerate(samples):
            block[:, j] = np.bincount(cols, minlength=g.n) / len(cols)
        return lam * _walk(abar, spec.alpha, spec.walk_len, block)[rows] + (1.0 - lam)
    return density


def evaluate_kernel(spec: KernelSpec, g: Graph, rows, cols) -> KernelMatrix:
    """Evaluate k(rows[i], cols[j]) for every pair; rows are the density-query
    vertices, cols the sample vertices."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = make_evaluator(spec, g, rows)(cols)
    return KernelMatrix(rows=rows, cols=cols, values=values)


def make_evaluator(spec: KernelSpec, g: Graph, rows):
    """Bind the expensive per-row resources once; the returned callable maps a
    column vertex list to the kernel value matrix. Lets batch runs reuse walk
    matrices and BFS distances across many samples."""
    rows = np.asarray(rows, dtype=np.int64)
    if spec.kind == CONSTANT:
        return lambda cols: np.ones((len(rows), len(cols)), dtype=np.float64)
    if spec.kind == PPR:
        if spec.mode == DENSE:
            pi_rows = ppr_matrix_rows(g, spec.alpha, spec.walk_len, rows)
        else:
            pi = ppr_matrix_sparse_pruned(g, spec.alpha, spec.walk_len, spec.prune_threshold)
            pi_rows = np.asarray(pi[rows, :].todense())
        lam = spec.interp

        def ppr_values(cols):
            cols = np.asarray(cols, dtype=np.int64)
            return lam * pi_rows[:, cols] + (1.0 - lam)
        return ppr_values
    if spec.kind == SHORTEST_PATH:
        dist = np.stack([row.dist for row in bfs_distances(g, rows)]) if len(rows) \
            else np.empty((0, g.n), dtype=np.int32)
        gamma = spec.gamma

        def sp_values(cols):
            cols = np.asarray(cols, dtype=np.int64)
            d = dist[:, cols]
            vals = np.exp(-gamma * d.astype(np.float64))
            vals[d == UNREACHABLE] = 0.0
            return vals
        return sp_values
    if spec.kind == FEATURE:
        if g.features is None:
            raise ConfigError("feature kernel requires vertex features")
        x_rows = g.features[rows]
        feats = g.features

        def feature_values(cols):
            cols = np.asarray(cols, dtype=np.int64)
            return np.maximum(x_rows @ feats[cols].T, 0.0)
        return feature_values
    raise ConfigError(f"unknown kernel kind {spec.kind!r}")
