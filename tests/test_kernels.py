import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant import kernels
from graphquant.errors import ConfigError
from graphquant.graph import Graph
from graphquant.kernels import (KernelSpec, evaluate_kernel, make_evaluator, make_ppr_density,
                                normalized_adjacency_dense, ppr_matrix_dense, ppr_matrix_rows,
                                ppr_matrix_sparse_pruned)

from test_graph import random_graph, small_graphs


def two_path():
    return Graph.from_edges(2, [(0, 1)])


class TestPprDense:
    def test_single_step_hand_case(self):
        pi = ppr_matrix_dense(two_path(), alpha=0.1, walk_len=1)
        assert np.allclose(pi, [[0.1, 0.9], [0.9, 0.1]], atol=1e-12)

    def test_two_step_hand_case(self):
        pi = ppr_matrix_dense(two_path(), alpha=0.1, walk_len=2)
        assert np.allclose(pi, [[0.82, 0.18], [0.18, 0.82]], atol=1e-12)

    def test_zero_steps_is_identity(self):
        g = random_graph(12, 0.3, seed=0)
        assert np.array_equal(ppr_matrix_dense(g, 0.3, 0), np.eye(12))

    def test_columns_stochastic(self):
        for seed in range(5):
            g = random_graph(30, 0.15, seed=seed)
            pi = ppr_matrix_dense(g, 0.1, 10)
            assert np.abs(pi.sum(axis=0) - 1.0).max() < 1e-9
            assert pi.min() >= 0.0 and pi.max() <= 1.0 + 1e-12

    def test_isolated_vertex_column_self_absorbs(self):
        g = Graph.from_edges(3, [(0, 1)])
        abar = normalized_adjacency_dense(g)
        assert abar[2, 2] == 1.0
        pi = ppr_matrix_dense(g, 0.2, 4)
        assert np.abs(pi.sum(axis=0) - 1.0).max() < 1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            ppr_matrix_dense(two_path(), alpha=1.0, walk_len=1)
        with pytest.raises(ConfigError):
            ppr_matrix_dense(two_path(), alpha=0.0, walk_len=1)


class TestPprSparsePruned:
    def test_zero_threshold_matches_dense(self):
        g = random_graph(20, 0.2, seed=2)
        dense = ppr_matrix_dense(g, 0.1, 5)
        sparse = ppr_matrix_sparse_pruned(g, 0.1, 5, 0.0).toarray()
        assert np.abs(dense - sparse).max() < 1e-9

    def test_zero_threshold_matches_dense_on_larger_graphs(self):
        for seed in range(3):
            g = random_graph(100, 0.05, seed=seed)
            dense = ppr_matrix_dense(g, 0.15, 6)
            sparse = ppr_matrix_sparse_pruned(g, 0.15, 6, 0.0).toarray()
            assert np.abs(dense - sparse).max() < 1e-9

    def test_full_pruning_leaves_diagonal_remainder(self):
        # min degree 2, so every product entry is < 1 and gets pruned each step
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        got = ppr_matrix_sparse_pruned(g, 0.1, 3, 1.0).toarray()
        assert np.allclose(got, 0.1 ** 3 * np.eye(3), atol=1e-15)

    def test_mild_threshold_no_entry_below(self):
        got = ppr_matrix_sparse_pruned(two_path(), 0.1, 2, 0.05).toarray()
        dense = ppr_matrix_dense(two_path(), 0.1, 2)
        assert np.abs(got - dense).max() < 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            ppr_matrix_sparse_pruned(two_path(), 0.1, 1, -0.1)


class TestPprRows:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), g=small_graphs(),
           alpha=st.floats(0.01, 0.99), walk_len=st.integers(0, 12))
    def test_matches_dense_oracle_rows(self, data, g, alpha, walk_len):
        rows = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
        got = ppr_matrix_rows(g, alpha, walk_len, rows)
        assert got.shape == (len(rows), g.n)
        assert np.allclose(got, ppr_matrix_dense(g, alpha, walk_len)[rows],
                           rtol=0.0, atol=1e-12)

    def test_zero_steps_is_indicator(self):
        g = random_graph(6, 0.4, seed=3)
        assert np.array_equal(ppr_matrix_rows(g, 0.2, 0, [4, 1]), np.eye(6)[[4, 1]])

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            ppr_matrix_rows(two_path(), alpha=1.0, walk_len=1, rows=[0])

    def test_dense_mode_never_builds_full_matrix(self, monkeypatch):
        def full_matrix(*args):
            raise AssertionError("n x n walk matrix built")
        monkeypatch.setattr(kernels, "ppr_matrix_dense", full_matrix)
        monkeypatch.setattr(kernels, "normalized_adjacency_dense", full_matrix)
        g = random_graph(20, 0.2, seed=9)
        km = evaluate_kernel(KernelSpec.ppr(interp=1.0), g, [3, 0], range(20))
        assert km.values.shape == (2, 20)


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
        got = make_ppr_density(spec, g, rows)(samples)
        assert got.shape == (len(rows), len(samples))
        pi = ppr_matrix_dense(g, alpha, walk_len)
        evaluator = make_evaluator(spec, g, rows)
        for j, cols in enumerate(samples):
            by_evaluator = evaluator(cols).mean(axis=1)
            assert np.allclose(got[:, j], by_evaluator, rtol=0.0, atol=1e-12)
            oracle = (interp * pi[np.ix_(rows, cols)] + (1.0 - interp)).mean(axis=1)
            assert np.allclose(got[:, j], oracle, rtol=0.0, atol=1e-12)

    def test_builds_no_row_block(self, monkeypatch):
        def block(*args):
            raise AssertionError("walk-probability rows built")
        for name in ("ppr_matrix_rows", "ppr_matrix_dense", "normalized_adjacency_dense"):
            monkeypatch.setattr(kernels, name, block)
        g = random_graph(20, 0.2, seed=9)
        density = make_ppr_density(KernelSpec.ppr(), g, [3, 0])
        assert density([[1, 1, 5], [7]]).shape == (2, 2)


class TestEvaluateKernel:
    def test_constant_all_ones(self):
        g = random_graph(10, 0.3, seed=1)
        km = evaluate_kernel(KernelSpec.constant(), g, [0, 1, 2], [3, 4])
        assert np.array_equal(km.values, np.ones((3, 2)))

    def test_shortest_path_values(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        km = evaluate_kernel(KernelSpec.shortest_path(gamma=3.0), g, [0], [0, 1, 2])
        assert km.values[0, 0] == 1.0
        assert km.values[0, 1] == pytest.approx(math.exp(-3.0), abs=1e-12)
        assert km.values[0, 2] == pytest.approx(math.exp(-6.0), abs=1e-12)

    def test_shortest_path_disconnected_is_zero(self):
        g = Graph.from_edges(3, [(0, 1)])
        km = evaluate_kernel(KernelSpec.shortest_path(gamma=3.0), g, [0], [2])
        assert km.values[0, 0] == 0.0

    def test_shortest_path_monotone_in_distance(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        km = evaluate_kernel(KernelSpec.shortest_path(gamma=0.5), g, [0], range(5))
        vals = km.values[0]
        assert all(vals[i] > vals[i + 1] for i in range(4))
        assert vals[0] == 1.0

    def test_interpolated_ppr_entry(self):
        km = evaluate_kernel(KernelSpec.ppr(alpha=0.1, walk_len=1, interp=0.9),
                             two_path(), [0], [1])
        assert km.values[0, 0] == pytest.approx(0.91, abs=1e-12)

    def test_interpolated_range(self):
        g = random_graph(25, 0.15, seed=4)
        spec = KernelSpec.ppr(alpha=0.1, walk_len=10, interp=0.9)
        km = evaluate_kernel(spec, g, range(25), range(25))
        assert km.values.min() >= 1.0 - 0.9 - 1e-12
        assert km.values.max() <= 1.0 + 1e-12

    def test_sparse_mode_matches_dense_mode(self):
        g = random_graph(30, 0.15, seed=5)
        rows, cols = [0, 5, 7], [1, 2, 3, 4]
        dense = evaluate_kernel(KernelSpec.ppr(mode="dense"), g, rows, cols)
        sparse = evaluate_kernel(KernelSpec.ppr(mode="sparse"), g, rows, cols)
        assert np.abs(dense.values - sparse.values).max() < 1e-9

    def test_feature_kernel_clamps_negative(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 2.0]])
        g = Graph.from_edges(3, [(0, 1), (1, 2)], features=feats)
        km = evaluate_kernel(KernelSpec.feature(), g, [0, 1], [0, 1, 2])
        assert km.values[0, 1] == 0.0  # inner product -1 clamped
        assert km.values[0, 0] == 1.0
        assert km.values[1, 2] == 0.0

    def test_feature_kernel_requires_features(self):
        with pytest.raises(ConfigError):
            evaluate_kernel(KernelSpec.feature(), two_path(), [0], [1])

    def test_orientation_first_argument_is_row(self):
        # star: column normalization makes walk probabilities asymmetric
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        pi = ppr_matrix_dense(g, 0.1, 1)
        spec = KernelSpec.ppr(alpha=0.1, walk_len=1, interp=1.0)
        km = evaluate_kernel(spec, g, [1], [0])
        assert km.values[0, 0] == pytest.approx(pi[1, 0], abs=1e-15)
        assert pi[1, 0] != pi[0, 1]


class TestKernelSpecValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            KernelSpec.ppr(alpha=1.5)
        with pytest.raises(ConfigError):
            KernelSpec.ppr(walk_len=0)
        with pytest.raises(ConfigError):
            KernelSpec.ppr(interp=1.2)
        with pytest.raises(ConfigError):
            KernelSpec.shortest_path(gamma=0.0)
        with pytest.raises(ConfigError):
            KernelSpec(kind="mystery")
