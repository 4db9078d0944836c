import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant.errors import ConfigError, DataError
from graphquant.estimation import (HARD, SOFT, PredictionSet,
                                   confusion_estimate, density_ratio, kde_density,
                                   nacc_confusion_estimate, nacc_features,
                                   nacc_prevalence, prevalence_vector)
from graphquant.graph import Graph
from graphquant.kernels import KernelSpec, make_evaluator

from test_graph import random_graph, small_graphs


def block_kernel(values):
    """The linear map D -> values @ D: a kernel given by its rows."""
    values = np.asarray(values, dtype=np.float64)
    return lambda dists: values @ dists


class TestPredictionSet:
    def test_hard_argmax_ties_to_lowest(self):
        p = PredictionSet.from_soft(np.array([[0.5, 0.5], [0.2, 0.8]]))
        assert list(p.hard) == [0, 1]

    def test_needs_a_channel(self):
        with pytest.raises(DataError):
            PredictionSet(K=2)

    def test_bad_soft_rows_rejected(self):
        with pytest.raises(DataError):
            PredictionSet.from_soft(np.array([[0.5, 0.6]]))
        with pytest.raises(DataError):
            PredictionSet.from_soft(np.array([[-0.1, 1.1]]))

    def test_non_finite_soft_rows_rejected(self):
        # a NaN row would otherwise pass the checks and get hard label 0
        for bad in ([[np.nan, np.nan]], [[np.inf, 0.0]], [[0.5, 0.5], [np.nan, 1.0]]):
            with pytest.raises(DataError, match="finite"):
                PredictionSet.from_soft(np.array(bad))

    def test_missing_channel_raises(self):
        p = PredictionSet.from_hard([0, 1], K=2)
        with pytest.raises(ConfigError):
            p.require(SOFT)


class TestKdeDensity:
    def test_constant_kernel_gives_one(self):
        g = random_graph(5, 0.3, seed=0)
        kernel = make_evaluator(KernelSpec.constant(), g, [0, 1, 2])
        assert np.array_equal(kde_density(kernel, [[0, 1, 2, 3, 4]], g.n), np.ones((3, 1)))

    def test_row_mean(self):
        density = kde_density(block_kernel([[0.2, 0.4]]), [[0, 1], [1, 1, 0]], 2)
        assert density[0, 0] == pytest.approx(0.3, abs=1e-15)
        # duplicates count once per occurrence
        assert density[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_ppr_row(self):
        g = Graph.from_edges(2, [(0, 1)])
        spec = KernelSpec.ppr(alpha=0.1, walk_len=1, interp=1.0)
        d = kde_density(make_evaluator(spec, g, [0]), [[0, 1]], g.n)
        assert d[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError):
            kde_density(block_kernel(np.ones((2, 3))), [[0], []], 3)


class TestDensityRatio:
    def test_equal_densities_give_unit_weights(self):
        d = np.array([0.5, 0.1, 0.9])
        assert np.array_equal(density_ratio(d, d.copy()), np.ones(3))

    def test_simple_ratio(self):
        assert density_ratio([0.5], [0.25])[0] == pytest.approx(2.0)

    def test_floor_prevents_division_by_zero(self):
        assert density_ratio([0.3], [0.0], floor=1e-6)[0] == pytest.approx(3e5)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            density_ratio([1.0], [1.0, 2.0])


class TestPrevalenceVector:
    def test_hard_histogram(self):
        p = PredictionSet.from_hard([0, 0, 1, 1], K=2)
        assert np.array_equal(prevalence_vector(p, [0, 1, 2, 3], HARD), [0.5, 0.5])

    def test_soft_mean(self):
        p = PredictionSet.from_soft(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert np.allclose(prevalence_vector(p, [0, 1], SOFT), [0.75, 0.25])

    def test_single_class(self):
        p = PredictionSet.from_hard([2, 2, 2], K=3)
        assert np.array_equal(prevalence_vector(p, [0, 1, 2], HARD), [0, 0, 1])

    def test_duplicates_count(self):
        p = PredictionSet.from_hard([0, 1], K=2)
        assert np.array_equal(prevalence_vector(p, [0, 0, 0, 1], HARD), [0.75, 0.25])

    def test_empty_vertices_rejected(self):
        p = PredictionSet.from_hard([0, 1], K=2)
        with pytest.raises(DataError):
            prevalence_vector(p, [], HARD)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=60))
    def test_matches_brute_force_histogram(self, labels):
        p = PredictionSet.from_hard(labels, K=5)
        got = prevalence_vector(p, np.arange(len(labels)), HARD)
        want = [sum(1 for y in labels if y == i) / len(labels) for i in range(5)]
        assert np.allclose(got, want, atol=1e-12)


class TestConfusionEstimate:
    def test_perfect_classifier_is_identity(self):
        p = PredictionSet.from_hard([0, 1, 2], K=3)
        est = confusion_estimate(p, [0, 1, 2], [0, 1, 2])
        assert np.array_equal(est.C, np.eye(3))
        assert est.zero_support == ()

    def test_weighted_counts(self):
        p = PredictionSet.from_hard([0, 1], K=2)
        est = confusion_estimate(p, [0, 1], [0, 0], weights=[1.0, 3.0])
        assert np.allclose(est.C[:, 0], [0.25, 0.75])
        assert est.zero_support == (1,)
        assert np.allclose(est.C[:, 1], [0.5, 0.5])  # uniform fallback column

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(0)
        p = PredictionSet.from_hard(rng.integers(0, 3, 30), K=3)
        train = np.arange(30)
        labels = rng.integers(0, 3, 30)
        w = rng.random(30) + 0.1
        a = confusion_estimate(p, train, labels, weights=w)
        b = confusion_estimate(p, train, labels, weights=7.5 * w)
        assert np.abs(a.C - b.C).max() < 1e-12

    def test_all_equal_weights_match_unweighted(self):
        rng = np.random.default_rng(1)
        p = PredictionSet.from_hard(rng.integers(0, 3, 40), K=3)
        train = np.arange(40)
        labels = rng.integers(0, 3, 40)
        a = confusion_estimate(p, train, labels, weights=np.full(40, 3.0))
        b = confusion_estimate(p, train, labels, weights=None)
        assert np.abs(a.C - b.C).max() < 1e-12

    def test_soft_mode(self):
        soft = np.array([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]])
        p = PredictionSet.from_soft(soft)
        est = confusion_estimate(p, [0, 1, 2], [0, 0, 1], mode=SOFT)
        assert np.allclose(est.C[:, 0], [0.6, 0.4])
        assert np.allclose(est.C[:, 1], [0.1, 0.9])

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        for mode in (HARD, SOFT):
            soft = rng.dirichlet(np.ones(4), size=50)
            p = PredictionSet.from_soft(soft)
            labels = rng.integers(0, 4, 50)
            w = rng.random(50)
            est = confusion_estimate(p, np.arange(50), labels, weights=w, mode=mode)
            assert np.abs(est.C.sum(axis=0) - 1.0).max() < 1e-9


def add_at_nacc_features(g, preds):
    """nacc_features with its neighbour counts summed by np.add.at: the body
    the bincount version replaced, and its oracle."""
    hard = preds.require(HARD)
    src, dst = g.edge_arrays()
    counts = np.zeros((g.n, preds.K), dtype=np.int64)
    np.add.at(counts, (src, hard[dst]), 1)
    majority = np.argmax(counts, axis=1)
    isolated = g.degrees == 0
    majority[isolated] = hard[isolated]
    return hard.copy(), majority


class TestNaccFeatures:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), g=small_graphs(), K=st.integers(1, 4))
    def test_bit_identical_to_add_at_oracle(self, data, g, K):
        hard = data.draw(st.lists(st.integers(0, K - 1), min_size=g.n, max_size=g.n))
        preds = PredictionSet.from_hard(hard, K=K)
        own, nbr = nacc_features(g, preds)
        expected_own, expected_nbr = add_at_nacc_features(g, preds)
        assert own.dtype == expected_own.dtype and nbr.dtype == expected_nbr.dtype
        assert np.array_equal(own, expected_own) and np.array_equal(nbr, expected_nbr)

    def test_triangle_uniform_prediction(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        p = PredictionSet.from_hard([1, 1, 1], K=2)
        own, nbr = nacc_features(g, p)
        assert list(own) == [1, 1, 1]
        assert list(nbr) == [1, 1, 1]

    def test_star_majority(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        p = PredictionSet.from_hard([0, 1, 1, 2], K=3)
        own, nbr = nacc_features(g, p)
        assert (own[0], nbr[0]) == (0, 1)

    def test_isolated_vertex_falls_back_to_own(self):
        g = Graph.from_edges(1, [])
        p = PredictionSet.from_hard([2], K=3)
        own, nbr = nacc_features(g, p)
        assert (own[0], nbr[0]) == (2, 2)

    def test_tie_breaks_to_lowest_label(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        p = PredictionSet.from_hard([0, 2, 1], K=3)
        _, nbr = nacc_features(g, p)
        assert nbr[0] == 1  # neighbors predicted {2, 1}: tie -> lowest

    def test_deterministic(self):
        g = random_graph(40, 0.1, seed=9)
        p = PredictionSet.from_hard(np.random.default_rng(0).integers(0, 3, 40), K=3)
        a = nacc_features(g, p)
        b = nacc_features(g, p)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestNaccPrevalence:
    def test_triangle_all_one_pair(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        p = PredictionSet.from_hard([1, 1, 1], K=2)
        out = nacc_prevalence(nacc_features(g, p), p, [0, 1, 2])
        assert out[1 * 2 + 1] == 1.0
        assert out.sum() == pytest.approx(1.0)

    def test_isolated_pair_fallback(self):
        g = Graph.from_edges(2, [])
        p = PredictionSet.from_hard([0, 1], K=2)
        out = nacc_prevalence(nacc_features(g, p), p, [0, 1])
        assert np.array_equal(out, [0.5, 0.0, 0.0, 0.5])

    def test_sums_to_one_soft(self):
        g = random_graph(30, 0.1, seed=3)
        soft = np.random.default_rng(4).dirichlet(np.ones(3), size=30)
        p = PredictionSet.from_soft(soft)
        for mode in (HARD, SOFT):
            out = nacc_prevalence(nacc_features(g, p), p, np.arange(30), mode)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestNaccConfusion:
    def test_homophilic_perfect_classifier(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        labels = np.array([0, 0, 0, 1, 1, 1])
        p = PredictionSet.from_hard(labels, K=2)
        est = nacc_confusion_estimate(nacc_features(g, p), p, np.arange(6), labels)
        assert est.C[0, 0] == 1.0  # class 0 -> pair (0,0)
        assert est.C[3, 1] == 1.0  # class 1 -> pair (1,1)

    def test_single_member_column(self):
        g = Graph.from_edges(2, [(0, 1)])
        p = PredictionSet.from_hard([0, 1], K=2)
        est = nacc_confusion_estimate(nacc_features(g, p), p, [0], [0])
        # vertex 0: own=0, neighbor majority=1 -> pair (0,1)
        assert np.array_equal(est.C[:, 0], [0.0, 1.0, 0.0, 0.0])
        assert est.zero_support == (1,)

    def test_column_sums(self):
        g = random_graph(50, 0.08, seed=5)
        rng = np.random.default_rng(6)
        p = PredictionSet.from_soft(rng.dirichlet(np.ones(3), size=50))
        labels = rng.integers(0, 3, 50)
        for mode in (HARD, SOFT):
            est = nacc_confusion_estimate(nacc_features(g, p), p, np.arange(50), labels,
                                          weights=rng.random(50) + 0.05, mode=mode)
            assert est.C.shape == (9, 3)
            assert np.abs(est.C.sum(axis=0) - 1.0).max() < 1e-9


class TestConstantKernelReducesToUnweighted:
    def test_sis_pipeline_with_constant_kernel_is_unweighted(self):
        g = random_graph(40, 0.1, seed=7)
        rng = np.random.default_rng(8)
        p = PredictionSet.from_hard(rng.integers(0, 3, 40), K=3)
        train = np.arange(0, 20)
        labels = rng.integers(0, 3, 20)
        test = np.arange(20, 40)
        kernel = make_evaluator(KernelSpec.constant(), g, train)
        q_d = kde_density(kernel, [test], g.n)[:, 0]
        p_d = kde_density(kernel, [train], g.n)[:, 0]
        weights = density_ratio(q_d, p_d)
        weighted = confusion_estimate(p, train, labels, weights=weights)
        unweighted = confusion_estimate(p, train, labels, weights=None)
        assert np.abs(weighted.C - unweighted.C).max() < 1e-12
