"""Vertex kernels backing the kernel-density weights: teleporting random-walk
(PPR), shortest-path, feature inner-product, and the constant kernel.

Every kernel is used the same way: `make_evaluator` binds it to the rows
that need densities and returns a linear map on vertex distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .graph import Graph, UNREACHABLE, bfs_distances, check_vertex_ids

DEFAULT_ALPHA = 0.1       # teleport probability per walk step
DEFAULT_WALK_LEN = 10     # number of walk steps (matrix power)
DEFAULT_INTERP = 0.9      # weight of the PPR term in the interpolated kernel
DEFAULT_GAMMA = 3.0       # decay rate of the shortest-path kernel

CONSTANT = "constant"
PPR = "ppr"
SHORTEST_PATH = "sp"
FEATURE = "feature"


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of a vertex kernel.

    kind "ppr" evaluates interp * walk_probability + (1 - interp), where the
    walk probability is entry (v, v') of (alpha*I + (1-alpha)*Abar)^walk_len.
    kind "sp" evaluates exp(-gamma * hops), 0 for disconnected pairs.
    kind "feature" evaluates max(0, <x_v, x_v'>); "constant" is all ones.
    """
    kind: str
    alpha: float = DEFAULT_ALPHA
    walk_len: int = DEFAULT_WALK_LEN
    interp: float = DEFAULT_INTERP
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
        if self.kind == SHORTEST_PATH and self.gamma <= 0.0:
            raise ConfigError(f"sp gamma must be > 0, got {self.gamma}")

    @classmethod
    def constant(cls) -> "KernelSpec":
        return cls(kind=CONSTANT)

    @classmethod
    def ppr(cls, alpha=DEFAULT_ALPHA, walk_len=DEFAULT_WALK_LEN,
            interp=DEFAULT_INTERP) -> "KernelSpec":
        return cls(kind=PPR, alpha=alpha, walk_len=walk_len, interp=interp)

    @classmethod
    def shortest_path(cls, gamma=DEFAULT_GAMMA) -> "KernelSpec":
        return cls(kind=SHORTEST_PATH, gamma=gamma)

    @classmethod
    def feature(cls) -> "KernelSpec":
        return cls(kind=FEATURE)


def normalized_adjacency_sparse(g: Graph) -> sp.csr_matrix:
    """Column-normalized adjacency A @ D^-1; isolated vertices self-absorb.

    Built from the graph's CSR arrays: entry (u, v) is 1/deg(v), and each
    isolated vertex, whose row is empty, gets its self-loop inserted there, so
    column indices stay sorted. Without isolated vertices nothing is inserted.
    """
    deg = g.degrees
    inv = np.zeros(g.n)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    data, indices, indptr = inv[g.indices], g.indices, g.indptr
    iso = np.flatnonzero(~nz)
    if iso.size:
        at = g.indptr[iso]
        data, indices = np.insert(data, at, 1.0), np.insert(indices, at, iso)
        indptr = indptr + np.concatenate([[0], np.cumsum(~nz)])
    return sp.csr_matrix((data, indices, indptr), shape=(g.n, g.n))


def _check_ppr_params(alpha, walk_len):
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    if walk_len < 0:
        raise ConfigError(f"walk_len must be >= 0, got {walk_len}")


def ppr_matrix_dense(g: Graph, alpha: float, walk_len: int) -> np.ndarray:
    """Full n x n matrix of walk probabilities (alpha*I + (1-alpha)*Abar)^walk_len."""
    _check_ppr_params(alpha, walk_len)
    base = alpha * np.eye(g.n) + (1.0 - alpha) * normalized_adjacency_sparse(g).toarray()
    return np.linalg.matrix_power(base, walk_len)


def ppr_matrix_sparse_pruned(g: Graph, alpha: float, walk_len: int,
                             threshold: float) -> sp.csr_matrix:
    """Sparse walk-probability matrix, zeroing product entries below the
    threshold after every sparse multiplication.

    With threshold = 0 this equals the dense power exactly (up to
    floating-point rounding). The teleport term alpha*R is carried over
    unpruned each step, so aggressive thresholds leave a diagonal remainder.
    """
    _check_ppr_params(alpha, walk_len)
    if threshold < 0.0:
        raise ConfigError("threshold must be >= 0")
    abar = normalized_adjacency_sparse(g)
    result = sp.identity(g.n, format="csr")
    for _ in range(walk_len):
        prod = (abar @ result).tocsr()
        if threshold > 0.0:
            prod.data[prod.data < threshold] = 0.0
            prod.eliminate_zeros()
        result = (alpha * result + (1.0 - alpha) * prod).tocsr()
    return result


def make_evaluator(spec: KernelSpec, g: Graph, rows):
    """The kernel rows `rows` as a linear map on vertex distributions.

    The returned callable maps an n x S matrix D whose columns are vertex
    distributions (each summing to 1) to K[rows, :] @ D, shape (len(rows), S):
    entry (i, j) is the mean kernel value of rows[i] under distribution j.
    Applied to indicator columns it gives kernel values; applied to a sample's
    empirical distribution, the kernel density over that sample. The per-row
    resources are built once, here. `rows` must be vertex ids of `g`.
    """
    rows = check_vertex_ids(rows, g.n, "kernel rows")
    if spec.kind == CONSTANT:
        return lambda dists: np.ones((len(rows), dists.shape[1]))
    if spec.kind == PPR:
        # Pi D by walk_len sparse x dense steps on D itself, so neither the n x n
        # walk matrix nor its rows are formed; the (1 - interp) term uses that
        # every column of D sums to 1
        abar = normalized_adjacency_sparse(g)
        alpha, lam = spec.alpha, spec.interp

        def ppr_map(dists):
            x = dists
            for _ in range(spec.walk_len):
                x = alpha * x + (1.0 - alpha) * (abar @ x)
            return lam * x[rows] + (1.0 - lam)
        return ppr_map
    if spec.kind == SHORTEST_PATH:
        block = _shortest_path_block(g, rows, spec.gamma)
    elif g.features is None:
        raise ConfigError("feature kernel requires vertex features")
    else:
        block = np.maximum(g.features[rows] @ g.features.T, 0.0)
    return lambda dists: block @ dists


def _shortest_path_block(g: Graph, rows: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * hops) from each row vertex to every vertex, 0 where unreachable;
    the int32 hop matrix is freed on return."""
    if len(rows) == 0:
        return np.empty((0, g.n))
    hops = np.stack([row.dist for row in bfs_distances(g, rows)])
    block = -gamma * hops
    np.exp(block, out=block)
    block[hops == UNREACHABLE] = 0.0
    return block
