import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant.errors import ConfigError, DataError
from graphquant.estimation import (DENSITY_FLOOR, HARD, SOFT, PredictionSet,
                                   confusion_estimate, density_ratio, kde_density,
                                   nacc_features, outcome_matrix, prevalence_vector)
from graphquant.graph import Graph
from graphquant.kernels import KernelSpec, make_evaluator
from graphquant.shift import generate_sbm, uniform_split

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
        assert density_ratio([0.3], [0.0])[0] == pytest.approx(0.3 / DENSITY_FLOOR)
        assert density_ratio([0.3], [DENSITY_FLOOR / 2])[0] == pytest.approx(0.3 / DENSITY_FLOOR)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            density_ratio([1.0], [1.0, 2.0])


def oracle_prevalence(preds, vertices, mode):
    """Prediction prevalence by bincount or row mean: the estimator the outcome
    matrix replaced, and its oracle."""
    vertices = np.asarray(vertices, dtype=np.int64)
    channel = preds.require(mode)
    if mode == HARD:
        return np.bincount(channel[vertices], minlength=preds.K) / len(vertices)
    return channel[vertices].mean(axis=0)


def oracle_normalize_columns(num, denom):
    m = num.shape[0]
    C = np.empty_like(num)
    zero_support = []
    for i in range(num.shape[1]):
        if denom[i] > 0:
            C[:, i] = num[:, i] / denom[i]
        else:
            C[:, i] = 1.0 / m
            zero_support.append(i)
    return C, tuple(zero_support)


def oracle_confusion(preds, train_vertices, train_labels, weights, mode):
    """Weighted confusion by np.add.at (hard) or one product per class (soft):
    the estimator the outcome matrix replaced, and its oracle."""
    train_vertices = np.asarray(train_vertices, dtype=np.int64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    K = preds.K
    num = np.zeros((K, K))
    if mode == HARD:
        np.add.at(num, (preds.hard[train_vertices], train_labels), weights)
    else:
        for i in range(K):
            sel = train_labels == i
            if sel.any():
                num[:, i] = weights[sel] @ preds.soft[train_vertices[sel]]
    denom = np.bincount(train_labels, weights=weights, minlength=K)
    return oracle_normalize_columns(num, denom)


def oracle_nacc_prevalence(nbr, preds, vertices, mode):
    """Prevalence over (own, neighbor-majority) pairs by bincount or
    np.add.at: the NACC estimator the outcome matrix replaced, and its oracle."""
    vertices = np.asarray(vertices, dtype=np.int64)
    K = preds.K
    if mode == HARD:
        pairs = preds.hard[vertices] * K + nbr[vertices]
        return np.bincount(pairs, minlength=K * K) / len(vertices)
    out = np.zeros(K * K)
    for j in range(K):
        np.add.at(out, j * K + nbr[vertices], preds.soft[vertices, j])
    return out / len(vertices)


def oracle_nacc_confusion(nbr, preds, train_vertices, train_labels, weights, mode):
    """Weighted (K^2, K) confusion over (own, neighbor-majority) pairs by
    np.add.at: the NACC estimator the outcome matrix replaced, and its oracle."""
    train_vertices = np.asarray(train_vertices, dtype=np.int64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    K = preds.K
    num = np.zeros((K * K, K))
    if mode == HARD:
        pairs = preds.hard[train_vertices] * K + nbr[train_vertices]
        np.add.at(num, (pairs, train_labels), weights)
    else:
        nbr_t = nbr[train_vertices]
        for j in range(K):
            np.add.at(num, (j * K + nbr_t, train_labels),
                      weights * preds.soft[train_vertices, j])
    denom = np.bincount(train_labels, weights=weights, minlength=K)
    return oracle_normalize_columns(num, denom)


class TestPrevalenceVector:
    def test_hard_histogram(self):
        p = PredictionSet.from_hard([0, 0, 1, 1], K=2)
        assert np.array_equal(prevalence_vector(outcome_matrix(p, HARD), [0, 1, 2, 3]),
                              [0.5, 0.5])

    def test_soft_mean(self):
        p = PredictionSet.from_soft(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert np.allclose(prevalence_vector(outcome_matrix(p, SOFT), [0, 1]), [0.75, 0.25])

    def test_single_class(self):
        p = PredictionSet.from_hard([2, 2, 2], K=3)
        assert np.array_equal(prevalence_vector(outcome_matrix(p, HARD), [0, 1, 2]),
                              [0, 0, 1])

    def test_duplicates_count(self):
        p = PredictionSet.from_hard([0, 1], K=2)
        assert np.array_equal(prevalence_vector(outcome_matrix(p, HARD), [0, 0, 0, 1]),
                              [0.75, 0.25])

    def test_empty_vertices_rejected(self):
        p = PredictionSet.from_hard([0, 1], K=2)
        with pytest.raises(DataError):
            prevalence_vector(outcome_matrix(p, HARD), [])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=60))
    def test_matches_brute_force_histogram(self, labels):
        p = PredictionSet.from_hard(labels, K=5)
        got = prevalence_vector(outcome_matrix(p, HARD), np.arange(len(labels)))
        want = [sum(1 for y in labels if y == i) / len(labels) for i in range(5)]
        assert np.allclose(got, want, atol=1e-12)


class TestConfusionEstimate:
    def test_perfect_classifier_is_identity(self):
        p = PredictionSet.from_hard([0, 1, 2], K=3)
        C, zero_support = confusion_estimate(outcome_matrix(p, HARD), [0, 1, 2], [0, 1, 2], 3)
        assert np.array_equal(C, np.eye(3))
        assert zero_support == ()

    def test_weighted_counts(self):
        p = PredictionSet.from_hard([0, 1], K=2)
        C, zero_support = confusion_estimate(outcome_matrix(p, HARD), [0, 1], [0, 0], 2,
                                             weights=[1.0, 3.0])
        assert np.allclose(C[:, 0], [0.25, 0.75])
        assert zero_support == (1,)
        assert np.allclose(C[:, 1], [0.5, 0.5])  # uniform fallback column

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(0)
        p = PredictionSet.from_hard(rng.integers(0, 3, 30), K=3)
        train = np.arange(30)
        labels = rng.integers(0, 3, 30)
        w = rng.random(30) + 0.1
        outcomes = outcome_matrix(p, HARD)
        a, _ = confusion_estimate(outcomes, train, labels, 3, weights=w)
        b, _ = confusion_estimate(outcomes, train, labels, 3, weights=7.5 * w)
        assert np.abs(a - b).max() < 1e-12

    def test_all_equal_weights_match_unweighted(self):
        rng = np.random.default_rng(1)
        p = PredictionSet.from_hard(rng.integers(0, 3, 40), K=3)
        train = np.arange(40)
        labels = rng.integers(0, 3, 40)
        outcomes = outcome_matrix(p, HARD)
        a, _ = confusion_estimate(outcomes, train, labels, 3, weights=np.full(40, 3.0))
        b, _ = confusion_estimate(outcomes, train, labels, 3, weights=None)
        assert np.abs(a - b).max() < 1e-12

    def test_soft_mode(self):
        soft = np.array([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]])
        p = PredictionSet.from_soft(soft)
        C, _ = confusion_estimate(outcome_matrix(p, SOFT), [0, 1, 2], [0, 0, 1], 2)
        assert np.allclose(C[:, 0], [0.6, 0.4])
        assert np.allclose(C[:, 1], [0.1, 0.9])

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        for mode in (HARD, SOFT):
            soft = rng.dirichlet(np.ones(4), size=50)
            p = PredictionSet.from_soft(soft)
            labels = rng.integers(0, 4, 50)
            w = rng.random(50)
            C, _ = confusion_estimate(outcome_matrix(p, mode), np.arange(50), labels, 4,
                                      weights=w)
            assert np.abs(C.sum(axis=0) - 1.0).max() < 1e-9


@st.composite
def estimation_problems(draw):
    """Predictions (hard-only or soft) on a small graph, a training list with
    duplicates, labels that may leave classes without support, and weights
    that include zeros."""
    g = draw(small_graphs())
    K = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        preds = PredictionSet.from_soft(rng.dirichlet(np.ones(K), size=g.n))
    else:
        preds = PredictionSet.from_hard(rng.integers(0, K, size=g.n), K=K)
    train = rng.integers(0, g.n, size=draw(st.integers(0, 2 * g.n)))
    labels = rng.integers(0, draw(st.integers(1, K)), size=len(train))
    weights = rng.random(len(train)) * (rng.random(len(train)) < 0.7)
    sample = rng.integers(0, g.n, size=draw(st.integers(1, 2 * g.n)))
    return g, preds, train, labels, weights, sample


class TestOutcomeMatrixMatchesOracles:
    @settings(max_examples=150, deadline=None)
    @given(problem=estimation_problems(), nacc=st.booleans(), weighted=st.booleans())
    def test_confusion_and_prevalence(self, problem, nacc, weighted):
        g, preds, train, labels, weights, sample = problem
        weights = weights if weighted else np.ones(len(train))
        nbr = nacc_features(g, preds) if nacc else None
        for mode in (HARD, SOFT) if preds.soft is not None else (HARD,):
            outcomes = outcome_matrix(preds, mode, nbr)
            C, zero_support = confusion_estimate(outcomes, train, labels, preds.K,
                                                 weights if weighted else None)
            p_hat = prevalence_vector(outcomes, sample)
            if nacc:
                C_want, zero_want = oracle_nacc_confusion(nbr, preds, train, labels,
                                                          weights, mode)
                p_want = oracle_nacc_prevalence(nbr, preds, sample, mode)
            else:
                C_want, zero_want = oracle_confusion(preds, train, labels, weights, mode)
                p_want = oracle_prevalence(preds, sample, mode)
            assert C.shape == C_want.shape and p_hat.shape == p_want.shape
            assert np.allclose(C, C_want, rtol=0.0, atol=1e-14)
            assert np.allclose(p_hat, p_want, rtol=0.0, atol=1e-14)
            assert zero_support == zero_want


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
    return majority


class TestNaccFeatures:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), g=small_graphs(), K=st.integers(1, 4))
    def test_bit_identical_to_add_at_oracle(self, data, g, K):
        hard = data.draw(st.lists(st.integers(0, K - 1), min_size=g.n, max_size=g.n))
        preds = PredictionSet.from_hard(hard, K=K)
        nbr = nacc_features(g, preds)
        expected = add_at_nacc_features(g, preds)
        assert nbr.dtype == expected.dtype and np.array_equal(nbr, expected)

    def test_triangle_uniform_prediction(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        p = PredictionSet.from_hard([1, 1, 1], K=2)
        assert list(nacc_features(g, p)) == [1, 1, 1]

    def test_star_majority(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        p = PredictionSet.from_hard([0, 1, 1, 2], K=3)
        assert nacc_features(g, p)[0] == 1

    def test_isolated_vertex_falls_back_to_own(self):
        g = Graph.from_edges(1, [])
        p = PredictionSet.from_hard([2], K=3)
        assert nacc_features(g, p)[0] == 2

    def test_tie_breaks_to_lowest_label(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        p = PredictionSet.from_hard([0, 2, 1], K=3)
        assert nacc_features(g, p)[0] == 1  # neighbors predicted {2, 1}: tie -> lowest

    def test_deterministic(self):
        g = random_graph(40, 0.1, seed=9)
        p = PredictionSet.from_hard(np.random.default_rng(0).integers(0, 3, 40), K=3)
        assert np.array_equal(nacc_features(g, p), nacc_features(g, p))


def nacc_outcomes(g, preds, mode=HARD):
    return outcome_matrix(preds, mode, nacc_features(g, preds))


class TestNaccPrevalence:
    def test_triangle_all_one_pair(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        p = PredictionSet.from_hard([1, 1, 1], K=2)
        out = prevalence_vector(nacc_outcomes(g, p), [0, 1, 2])
        assert out[1 * 2 + 1] == 1.0
        assert out.sum() == pytest.approx(1.0)

    def test_isolated_pair_fallback(self):
        g = Graph.from_edges(2, [])
        p = PredictionSet.from_hard([0, 1], K=2)
        out = prevalence_vector(nacc_outcomes(g, p), [0, 1])
        assert np.array_equal(out, [0.5, 0.0, 0.0, 0.5])

    def test_sums_to_one_soft(self):
        g = random_graph(30, 0.1, seed=3)
        soft = np.random.default_rng(4).dirichlet(np.ones(3), size=30)
        p = PredictionSet.from_soft(soft)
        for mode in (HARD, SOFT):
            out = prevalence_vector(nacc_outcomes(g, p, mode), np.arange(30))
            assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestNaccConfusion:
    def test_homophilic_perfect_classifier(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        labels = np.array([0, 0, 0, 1, 1, 1])
        p = PredictionSet.from_hard(labels, K=2)
        C, _ = confusion_estimate(nacc_outcomes(g, p), np.arange(6), labels, 2)
        assert C[0, 0] == 1.0  # class 0 -> pair (0,0)
        assert C[3, 1] == 1.0  # class 1 -> pair (1,1)

    def test_single_member_column(self):
        g = Graph.from_edges(2, [(0, 1)])
        p = PredictionSet.from_hard([0, 1], K=2)
        C, zero_support = confusion_estimate(nacc_outcomes(g, p), [0], [0], 2)
        # vertex 0: own=0, neighbor majority=1 -> pair (0,1)
        assert np.array_equal(C[:, 0], [0.0, 1.0, 0.0, 0.0])
        assert zero_support == (1,)

    def test_column_sums(self):
        g = random_graph(50, 0.08, seed=5)
        rng = np.random.default_rng(6)
        p = PredictionSet.from_soft(rng.dirichlet(np.ones(3), size=50))
        labels = rng.integers(0, 3, 50)
        for mode in (HARD, SOFT):
            C, _ = confusion_estimate(nacc_outcomes(g, p, mode), np.arange(50), labels, 3,
                                      weights=rng.random(50) + 0.05)
            assert C.shape == (9, 3)
            assert np.abs(C.sum(axis=0) - 1.0).max() < 1e-9

    def test_neighborhood_profiles_separate_merged_classes(self):
        # acceptance criterion 05's setup: the classifier merges classes 1 and
        # 2, so plain ACC's C is singular, while the neighbor majority tells
        # them apart and NACC's C is well conditioned
        g = generate_sbm([500, 60, 260], 0.4, 0.2, seed=42)
        preds = PredictionSet.from_hard(np.where(g.labels == 0, 0, 1), K=3)
        train = uniform_split(g, (0.0, 0.25, 0.75), seed=1).quantifier_train
        plain, _ = confusion_estimate(outcome_matrix(preds, HARD), train, g.labels[train], 3)
        nacc, _ = confusion_estimate(nacc_outcomes(g, preds), train, g.labels[train], 3)
        plain_sv = np.linalg.svd(plain, compute_uv=False)
        nacc_sv = np.linalg.svd(nacc, compute_uv=False)
        assert plain_sv[-1] < 1e-12
        assert nacc_sv[-1] > 0.8
        assert nacc_sv[0] / nacc_sv[-1] < 1.5


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
        outcomes = outcome_matrix(p, HARD)
        weighted, _ = confusion_estimate(outcomes, train, labels, 3, weights=weights)
        unweighted, _ = confusion_estimate(outcomes, train, labels, 3, weights=None)
        assert np.abs(weighted - unweighted).max() < 1e-12
