import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant import kernels
from graphquant.errors import ConfigError, DataError
from graphquant.estimation import kde_density
from graphquant.graph import Graph, bfs_distances
from graphquant.kernels import (KernelSpec, make_evaluator, normalized_adjacency_sparse,
                                ppr_matrix_rows)
from graphquant.shift import generate_sbm

from test_graph import frontier_bfs, random_graph, small_graphs


def two_path():
    return Graph.from_edges(2, [(0, 1)])


def kernel_values(spec, g, rows, cols):
    """k(rows[i], cols[j]): the evaluator applied to the indicator columns of cols."""
    return make_evaluator(spec, g, rows)(np.eye(g.n)[:, cols])


def walk_matrix(g, alpha, walk_len):
    """The n x n walk probabilities of the walk SIS runs: the ppr evaluator at
    interp 1 for every row, applied to the identity."""
    spec = KernelSpec.ppr(alpha=alpha, walk_len=walk_len, interp=1.0)
    return make_evaluator(spec, g, range(g.n))(np.eye(g.n))


def traced_peak(call):
    """The peak bytes traced by tracemalloc, numpy's arrays included, while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_kernel_matrix(spec, g):
    """The full n x n kernel matrix from the slow oracles: the dense matrix power,
    a Python frontier BFS, explicit feature inner products."""
    if spec.kind == kernels.CONSTANT:
        return np.ones((g.n, g.n))
    if spec.kind == kernels.PPR:
        return spec.interp * ppr_matrix_dense(g, spec.alpha, spec.walk_len) + (1.0 - spec.interp)
    if spec.kind == kernels.SHORTEST_PATH:
        # no path is an infinite hop count, and exp(-inf) = 0
        return np.exp(-spec.gamma * np.stack([frontier_bfs(g, s) for s in range(g.n)]))
    return np.maximum(g.features @ g.features.T, 0.0)


def csgraph_shortest_path_block(g, rows, gamma):
    """exp(-gamma * hops) with the hops from scipy's csgraph BFS, one search per
    row; no path is an infinite hop count, and exp(-inf) = 0. The oracle for the
    sp evaluator."""
    from scipy.sparse.csgraph import shortest_path

    if len(rows) == 0:
        return np.empty((0, g.n))
    return np.exp(-gamma * shortest_path(g.adjacency_csr(), unweighted=True, indices=rows))


def sp_kernel_block(g, rows, gamma):
    """The sp evaluator for `rows` applied to the identity: its kernel rows."""
    return make_evaluator(KernelSpec.shortest_path(gamma), g, rows)(np.eye(g.n))


def dense_normalized_adjacency(g):
    """A @ D^-1 built entry by entry in a dense array, isolated vertices
    self-absorbing: the oracle for normalized_adjacency_sparse."""
    a = g.adjacency_csr().toarray()
    deg = g.degrees.astype(np.float64)
    abar = np.zeros_like(a)
    nz = deg > 0
    abar[:, nz] = a[:, nz] / deg[nz]
    iso = np.where(~nz)[0]
    abar[iso, iso] = 1.0
    return abar


def ppr_matrix_dense(g, alpha, walk_len):
    """(alpha*I + (1-alpha)*Abar)^walk_len by a dense matrix power: the small-n
    oracle for the walk."""
    base = alpha * np.eye(g.n) + (1.0 - alpha) * dense_normalized_adjacency(g)
    return np.linalg.matrix_power(base, walk_len)


def matmul_normalized_adjacency(g):
    """A @ diags(1/deg) plus a self-loop per isolated vertex, by sparse products:
    the construction normalized_adjacency_sparse replaced."""
    deg = g.degrees.astype(np.float64)
    inv = np.zeros(g.n)
    nz = deg > 0
    inv[nz] = 1.0 / deg[nz]
    abar = g.adjacency_csr() @ sp.diags(inv)
    iso = np.where(~nz)[0]
    if len(iso):
        abar = abar + sp.csr_matrix((np.ones(len(iso)), (iso, iso)), shape=(g.n, g.n))
    return abar.tocsr()


kernel_specs = st.one_of(
    st.just(KernelSpec.constant()),
    st.builds(KernelSpec.ppr, alpha=st.floats(0.01, 0.99), walk_len=st.integers(1, 12),
              interp=st.floats(0.0, 1.0)),
    st.builds(KernelSpec.shortest_path, gamma=st.floats(0.1, 5.0)),
    st.just(KernelSpec.feature()))


class TestMakeEvaluator:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), g=small_graphs(), spec=kernel_specs)
    def test_matches_oracle_kernel_matrix(self, data, g, spec):
        d = data.draw(st.integers(1, 3))
        feats = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=g.n * d, max_size=g.n * d))
        g = dataclasses.replace(g, features=np.asarray(feats).reshape(g.n, d))
        vertex = st.integers(0, g.n - 1)
        rows = np.asarray(data.draw(st.lists(vertex, max_size=2 * g.n)), dtype=np.int64)
        oracle = oracle_kernel_matrix(spec, g)[rows]
        evaluator = make_evaluator(spec, g, rows)

        # indicator columns give kernel values
        values = evaluator(np.eye(g.n))
        assert values.shape == (len(rows), g.n)
        assert np.allclose(values, oracle, rtol=0.0, atol=1e-12)

        # empirical distributions give the mean kernel value (duplicates count)
        samples = [np.asarray(cols, dtype=np.int64) for cols in data.draw(
            st.lists(st.lists(vertex, min_size=1, max_size=3 * g.n), min_size=1, max_size=3))]
        density = kde_density(evaluator, samples, g.n)
        assert density.shape == (len(rows), len(samples))
        for j, cols in enumerate(samples):
            assert np.allclose(density[:, j], oracle[:, cols].mean(axis=1), rtol=0.0, atol=1e-12)


    @pytest.mark.parametrize("spec", [KernelSpec.constant(), KernelSpec.ppr(),
                                      KernelSpec.shortest_path()])
    @pytest.mark.parametrize("rows", [[-1, 3], [25], [1.5], [[0, 1]]])
    def test_bad_rows_rejected(self, spec, rows):
        # [-1, 3] used to evaluate vertex 19, [25] raised IndexError, [1.5] read vertex 1
        g = random_graph(20, 0.2, seed=2)
        with pytest.raises(DataError):
            make_evaluator(spec, g, rows)


class TestShortestPathBlock:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), g=small_graphs(),
           gamma=st.sampled_from([0.1, 1.0, 3.0, 50.0]))
    def test_bit_identical_to_csgraph_oracle(self, data, g, gamma):
        rows = np.asarray(data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)),
                          dtype=np.int64)
        block = sp_kernel_block(g, rows, gamma)
        expected = csgraph_shortest_path_block(g, rows, gamma)
        assert block.dtype == expected.dtype and block.shape == expected.shape
        assert np.array_equal(block, expected)

    def test_bit_identical_on_block_graph(self):
        g = generate_sbm([100] * 4, 0.05, 0.005, seed=7)
        rows = np.random.default_rng(1).choice(g.n, size=60, replace=False)
        assert np.array_equal(sp_kernel_block(g, rows, 3.0),
                              csgraph_shortest_path_block(g, rows, 3.0))

    def test_row_chunks_give_the_same_rows(self, monkeypatch):
        g = generate_sbm([100] * 4, 0.05, 0.005, seed=7)
        rows = np.random.default_rng(2).choice(g.n, size=60)
        dists = np.random.default_rng(3).random((g.n, 5))
        dists /= dists.sum(axis=0)
        whole = make_evaluator(KernelSpec.shortest_path(), g, rows)(dists)
        # 7 rows per chunk: 8 full chunks and a last one of 4
        monkeypatch.setattr(kernels, "SP_CHUNK_BYTES", 8 * g.n * 7)
        assert np.array_equal(sp_kernel_block(g, rows, 3.0),
                              csgraph_shortest_path_block(g, rows, 3.0))
        chunked = make_evaluator(KernelSpec.shortest_path(), g, rows)(dists)
        assert np.allclose(chunked, whole, rtol=1e-14, atol=0.0)
        assert np.allclose(chunked, csgraph_shortest_path_block(g, rows, 3.0) @ dists,
                           rtol=1e-14, atol=0.0)

    def test_evaluator_keeps_one_byte_per_pair(self, monkeypatch):
        held = []

        def keep(g, rows):
            held.append(bfs_distances(g, rows))
            return held[-1]
        monkeypatch.setattr(kernels, "bfs_distances", keep)
        g = generate_sbm([100] * 4, 0.05, 0.005, seed=7)
        make_evaluator(KernelSpec.shortest_path(), g, np.arange(0, g.n, 3))
        (hops,) = held
        assert hops.dtype == np.uint8 and hops.shape == (len(range(0, g.n, 3)), g.n)

    def test_sp_quantify_does_not_load_csgraph(self, fresh_python):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from graphquant import KernelSpec, PredictionSet, QuantifierSpec, quantify\n"
            "from graphquant.shift import generate_sbm\n"
            "g = generate_sbm([30, 30], 0.2, 0.02, seed=1)\n"
            "preds = PredictionSet.from_hard(g.labels, K=2)\n"
            "train, test = np.arange(0, 60, 2), np.arange(1, 60, 2)\n"
            "spec = QuantifierSpec(base='acc', kernel_q=KernelSpec.shortest_path())\n"
            "quantify(spec, g, train, g.labels[train], test, preds)\n"
            "print('scipy.sparse.csgraph' in sys.modules)\n"
            "import scipy.sparse.csgraph\n"
            "print('scipy.sparse.csgraph' in sys.modules)\n")
        out = fresh_python(script)
        # the explicit import shows the check can see it
        assert out == ["False", "True"]


class TestPprDense:
    """The n x n walk probabilities, read off the walk applied to the identity."""

    def test_single_step_hand_case(self):
        pi = walk_matrix(two_path(), alpha=0.1, walk_len=1)
        assert np.allclose(pi, [[0.1, 0.9], [0.9, 0.1]], atol=1e-12)

    def test_two_step_hand_case(self):
        pi = walk_matrix(two_path(), alpha=0.1, walk_len=2)
        assert np.allclose(pi, [[0.82, 0.18], [0.18, 0.82]], atol=1e-12)

    def test_zero_steps_is_identity(self):
        g = random_graph(12, 0.3, seed=0)
        walked = ppr_matrix_rows(normalized_adjacency_sparse(g), np.arange(12), np.eye(12),
                                 0.3, 0)
        assert np.array_equal(walked, np.eye(12))

    def test_columns_stochastic(self):
        for seed in range(5):
            g = random_graph(30, 0.15, seed=seed)
            pi = walk_matrix(g, 0.1, 10)
            assert np.abs(pi.sum(axis=0) - 1.0).max() < 1e-9
            assert pi.min() >= 0.0 and pi.max() <= 1.0 + 1e-12

    def test_isolated_vertex_column_self_absorbs(self):
        g = Graph.from_edges(3, [(0, 1)])
        abar = normalized_adjacency_sparse(g).toarray()
        assert abar[2, 2] == 1.0
        pi = walk_matrix(g, 0.2, 4)
        assert np.abs(pi.sum(axis=0) - 1.0).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs())
    def test_normalized_adjacency_bit_identical_to_dense_oracle(self, g):
        assert np.array_equal(normalized_adjacency_sparse(g).toarray(),
                              dense_normalized_adjacency(g))

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs())
    def test_normalized_adjacency_bit_identical_to_matmul_and_sorted(self, g):
        abar = normalized_adjacency_sparse(g)
        assert np.array_equal(abar.toarray(), matmul_normalized_adjacency(g).toarray())
        assert abar.nnz == len(g.indices) + int((g.degrees == 0).sum())
        for v in range(g.n):
            assert np.all(np.diff(abar.indices[abar.indptr[v]:abar.indptr[v + 1]]) > 0)

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            walk_matrix(two_path(), alpha=1.0, walk_len=1)
        with pytest.raises(ConfigError, match="alpha"):
            walk_matrix(two_path(), alpha=0.0, walk_len=1)


class TestPprRows:
    """Walk-probability rows: the ppr evaluator at interp 1 on indicator columns."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), g=small_graphs(),
           alpha=st.floats(0.01, 0.99), walk_len=st.integers(1, 12))
    def test_matches_dense_oracle_rows(self, data, g, alpha, walk_len):
        rows = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        spec = KernelSpec.ppr(alpha=alpha, walk_len=walk_len, interp=1.0)
        got = kernel_values(spec, g, rows, range(g.n))
        assert got.shape == (len(rows), g.n)
        assert np.allclose(got, ppr_matrix_dense(g, alpha, walk_len)[rows],
                           rtol=0.0, atol=1e-12)

    def test_zero_steps_is_indicator(self):
        # a ppr spec needs walk_len >= 1; zero steps are the walk function's own
        g = random_graph(6, 0.4, seed=3)
        dists = np.random.default_rng(3).random((6, 4))
        got = ppr_matrix_rows(normalized_adjacency_sparse(g), [4, 1], dists, 0.2, 0)
        assert np.array_equal(got, dists[[4, 1]])

    def test_alpha_out_of_range(self):
        for bad_alpha in (0.0, 1.0):
            with pytest.raises(ConfigError):
                make_evaluator(KernelSpec.ppr(alpha=bad_alpha, walk_len=1), two_path(), [0])

    def test_dense_mode_never_builds_full_matrix(self):
        # under 1/8 of one n x n float64 block (8 MB at n = 1,000); the walk holds
        # a few n x 10 blocks
        g = generate_sbm([250] * 4, 0.02, 0.002, seed=9)
        evaluator = make_evaluator(KernelSpec.ppr(interp=1.0), g, [3, 0])
        indicators = np.eye(g.n)[:, :10]
        values = []
        assert traced_peak(lambda: values.append(evaluator(indicators))) < g.n * g.n
        assert values[0].shape == (2, 10)


class TestPprDensity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), g=small_graphs(), alpha=st.floats(0.01, 0.99),
           walk_len=st.integers(1, 12), interp=st.floats(0.0, 1.0))
    def test_matches_evaluator_and_dense_oracle(self, data, g, alpha, walk_len, interp):
        vertex = st.integers(0, g.n - 1)
        rows = np.asarray(data.draw(st.lists(vertex, max_size=2 * g.n)), dtype=np.int64)
        # duplicate sample vertices count once per occurrence
        samples = [np.asarray(cols, dtype=np.int64) for cols in data.draw(
            st.lists(st.lists(vertex, min_size=1, max_size=3 * g.n), min_size=1, max_size=3))]
        spec = KernelSpec.ppr(alpha=alpha, walk_len=walk_len, interp=interp)
        got = kde_density(make_evaluator(spec, g, rows), samples, g.n)
        assert got.shape == (len(rows), len(samples))
        pi = ppr_matrix_dense(g, alpha, walk_len)
        for j, cols in enumerate(samples):
            by_indicators = kernel_values(spec, g, rows, cols).mean(axis=1)
            assert np.allclose(got[:, j], by_indicators, rtol=0.0, atol=1e-12)
            oracle = (interp * pi[np.ix_(rows, cols)] + (1.0 - interp)).mean(axis=1)
            assert np.allclose(got[:, j], oracle, rtol=0.0, atol=1e-12)

    def test_builds_no_row_block(self):
        # under 1/8 of one n x n float64 block at n = 1,000
        g = generate_sbm([250] * 4, 0.02, 0.002, seed=9)
        evaluator = make_evaluator(KernelSpec.ppr(), g, [3, 0])
        densities = []
        assert traced_peak(lambda: densities.append(
            kde_density(evaluator, [[1, 1, 5], [7]], g.n))) < g.n * g.n
        assert densities[0].shape == (2, 2)


class TestEvaluateKernel:
    """Per-pair kernel values, read off the evaluator applied to indicator columns."""

    def test_constant_all_ones(self):
        g = random_graph(10, 0.3, seed=1)
        assert np.array_equal(kernel_values(KernelSpec.constant(), g, [0, 1, 2], [3, 4]),
                              np.ones((3, 2)))

    def test_shortest_path_values(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        values = kernel_values(KernelSpec.shortest_path(gamma=3.0), g, [0], [0, 1, 2])
        assert values[0, 0] == 1.0
        assert values[0, 1] == pytest.approx(math.exp(-3.0), abs=1e-12)
        assert values[0, 2] == pytest.approx(math.exp(-6.0), abs=1e-12)

    def test_shortest_path_disconnected_is_zero(self):
        g = Graph.from_edges(3, [(0, 1)])
        values = kernel_values(KernelSpec.shortest_path(gamma=3.0), g, [0], [2])
        assert values[0, 0] == 0.0

    @pytest.mark.parametrize("gamma", [3, np.int64(2)])
    def test_shortest_path_integer_gamma_is_a_float(self, gamma):
        # an integer gamma ended in OverflowError: -gamma did not fit the uint8 hop block
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        spec = KernelSpec.shortest_path(gamma)
        assert type(spec.gamma) is float
        assert np.array_equal(kernel_values(spec, g, [0, 2], [0, 1, 2]),
                              kernel_values(KernelSpec.shortest_path(float(gamma)), g, [0, 2],
                                            [0, 1, 2]))

    def test_shortest_path_monotone_in_distance(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        vals = kernel_values(KernelSpec.shortest_path(gamma=0.5), g, [0], range(5))[0]
        assert all(vals[i] > vals[i + 1] for i in range(4))
        assert vals[0] == 1.0

    def test_interpolated_ppr_entry(self):
        values = kernel_values(KernelSpec.ppr(alpha=0.1, walk_len=1, interp=0.9),
                               two_path(), [0], [1])
        assert values[0, 0] == pytest.approx(0.91, abs=1e-12)

    def test_interpolated_range(self):
        g = random_graph(25, 0.15, seed=4)
        spec = KernelSpec.ppr(alpha=0.1, walk_len=10, interp=0.9)
        values = kernel_values(spec, g, range(25), range(25))
        assert values.min() >= 1.0 - 0.9 - 1e-12
        assert values.max() <= 1.0 + 1e-12

    def test_feature_kernel_clamps_negative(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 2.0]])
        g = Graph.from_edges(3, [(0, 1), (1, 2)], features=feats)
        values = kernel_values(KernelSpec.feature(), g, [0, 1], [0, 1, 2])
        assert values[0, 1] == 0.0  # inner product -1 clamped
        assert values[0, 0] == 1.0
        assert values[1, 2] == 0.0

    def test_feature_kernel_requires_features(self):
        with pytest.raises(ConfigError):
            make_evaluator(KernelSpec.feature(), two_path(), [0])

    def test_orientation_first_argument_is_row(self):
        # star: column normalization makes walk probabilities asymmetric
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        pi = ppr_matrix_dense(g, 0.1, 1)
        spec = KernelSpec.ppr(alpha=0.1, walk_len=1, interp=1.0)
        values = kernel_values(spec, g, [1], [0])
        assert values[0, 0] == pytest.approx(pi[1, 0], abs=1e-15)
        assert pi[1, 0] != pi[0, 1]


class TestKernelSpecValidation:
    def test_bad_params_rejected(self):
        for bad_alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigError):
                KernelSpec.ppr(alpha=bad_alpha)
        with pytest.raises(ConfigError):
            KernelSpec.ppr(walk_len=0)
        with pytest.raises(ConfigError):
            KernelSpec.ppr(interp=1.2)
        with pytest.raises(ConfigError):
            KernelSpec.shortest_path(gamma=0.0)
        with pytest.raises(ConfigError):
            KernelSpec(kind="mystery")
