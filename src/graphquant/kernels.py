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
from .graph import Graph, bfs_distances, check_count, check_real, check_vertex_ids

DEFAULT_ALPHA = 0.1       # teleport probability per walk step
DEFAULT_WALK_LEN = 10     # number of walk steps
DEFAULT_INTERP = 0.9      # weight of the PPR term in the interpolated kernel
DEFAULT_GAMMA = 3.0       # decay rate of the shortest-path kernel

# float64 bytes of the row chunk in which the shortest-path kernel's values are
# made from the hop block
SP_CHUNK_BYTES = 2 ** 20

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
            object.__setattr__(self, "alpha", check_real(self.alpha, "ppr alpha", "(0, 1)"))
            object.__setattr__(self, "walk_len", check_count(self.walk_len, "ppr walk_len", 1))
            object.__setattr__(self, "interp", check_real(self.interp, "ppr interp", "[0, 1]"))
        if self.kind == SHORTEST_PATH:
            # a float: an integer -gamma does not fit the uint8 hop block it scales
            object.__setattr__(self, "gamma", float(check_real(self.gamma, "sp gamma", "(0, inf)")))

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


def ppr_matrix_rows(abar: sp.csr_matrix, rows: np.ndarray, dists: np.ndarray,
                    alpha: float, walk_len: int) -> np.ndarray:
    """(Pi D)[rows] for the walk matrix Pi = (alpha*I + (1-alpha)*Abar)^walk_len,
    by walk_len sparse x dense steps on D itself (Kepner & Gilbert 2011), so
    neither Pi nor its rows are formed. `abar` is normalized_adjacency_sparse.
    Each step adds (1-alpha)*(Abar x) to alpha*x in one buffer kept across the
    steps; `dists` itself is never written to."""
    x, walked = dists, np.empty(dists.shape)
    for _ in range(walk_len):
        step = abar @ x
        step *= 1.0 - alpha
        np.multiply(x, alpha, out=walked)
        walked += step
        x = walked
    return x[rows]


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
        # the (1 - interp) term uses that every column of D sums to 1
        abar = normalized_adjacency_sparse(g)
        lam = spec.interp

        def ppr_map(dists):
            # looked up on this module, so tracing sees the call
            walked = ppr_matrix_rows(abar, rows, dists, spec.alpha, spec.walk_len)
            return lam * walked + (1.0 - lam)
        return ppr_map
    if spec.kind == SHORTEST_PATH:
        return _shortest_path_map(g, rows, spec.gamma)
    if g.features is None:
        raise ConfigError("feature kernel requires vertex features")
    block = np.maximum(g.features[rows] @ g.features.T, 0.0)
    return lambda dists: block @ dists


def _shortest_path_map(g: Graph, rows: np.ndarray, gamma: float):
    """D -> exp(-gamma * hops[rows, :]) @ D, 0 for no path. Only the hop block
    is kept, one small integer per pair; the kernel values are made for a chunk
    of rows at a time, so no float64 |rows| x n block is formed."""
    hops = bfs_distances(g, rows)  # looked up on this module, so tracing sees the call
    no_path = np.iinfo(hops.dtype).max
    step = max(1, min(len(rows), SP_CHUNK_BYTES // max(8 * g.n, 1)))

    def sp_map(dists):
        # one buffer for all chunks: an array this large made fresh per chunk
        # costs a page fault per 4 KiB page
        values = np.empty((step, g.n))
        out = np.empty((len(rows), dists.shape[1]))
        for r in range(0, len(rows), step):
            chunk = hops[r:r + step]
            kernel = values[:len(chunk)]
            np.multiply(chunk, -gamma, out=kernel)
            np.exp(kernel, out=kernel)
            kernel[chunk == no_path] = 0.0
            out[r:r + len(chunk)] = kernel @ dists
        return out
    return sp_map
