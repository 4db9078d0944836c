import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant import estimation, quantifiers
from graphquant.errors import ConfigError, DataError
from graphquant.estimation import (PredictionSet, confusion_estimate, outcome_matrix,
                                   prevalence_vector)
from graphquant.graph import Graph
from graphquant.kernels import KernelSpec
from graphquant.quantifiers import QuantifierSpec, _WeightContext, quantify, quantify_batch
from graphquant.shift import generate_sbm, sample_rw
from graphquant.solver import solve_simplex_lsq

from test_graph import small_graphs


def synthetic_channel_setup():
    """Training set whose empirical confusion is exactly [[0.9,0.2],[0.1,0.8]]
    and a test set with prediction prevalence (0.55, 0.45)."""
    train_labels = np.array([0] * 10 + [1] * 10)
    train_preds = np.array([0] * 9 + [1] + [0] * 2 + [1] * 8)
    test_preds = np.array([0] * 55 + [1] * 45)
    preds = PredictionSet.from_hard(np.concatenate([train_preds, test_preds]), K=2)
    g = Graph.from_edges(120, [])
    train = np.arange(20)
    test = np.arange(20, 120)
    return g, train, train_labels, test, preds


class TestSpecs:
    def test_invalid_combinations(self):
        with pytest.raises(ConfigError):
            QuantifierSpec(base="cc", nacc=True)
        with pytest.raises(ConfigError):
            QuantifierSpec(base="mlpe", kernel_q=KernelSpec.constant())
        with pytest.raises(ConfigError):
            QuantifierSpec(base="nope")

    def test_names(self):
        assert QuantifierSpec(base="mlpe").name == "mlpe"
        assert QuantifierSpec(base="cc").name == "cc"
        assert QuantifierSpec(base="cc", probabilistic=True).name == "pcc"
        assert QuantifierSpec(base="acc").name == "acc"
        sis = QuantifierSpec(base="acc", probabilistic=True, nacc=True,
                             kernel_q=KernelSpec.ppr())
        assert sis.name == "pacc+sis+nacc"


class TestMlpe:
    def test_training_histogram(self):
        g = Graph.from_edges(6, [], labels=[0, 0, 1, 1, 2, 2])
        out = quantify(QuantifierSpec(base="mlpe"), g, np.arange(6), g.labels, [0, 1])
        assert np.allclose(out.q, [1 / 3, 1 / 3, 1 / 3])

    def test_invariant_to_test_set(self):
        g = Graph.from_edges(6, [], labels=[0, 1, 0, 1, 0, 1])
        spec = QuantifierSpec(base="mlpe")
        a = quantify(spec, g, np.arange(6), g.labels, [0])
        b = quantify(spec, g, np.arange(6), g.labels, [3, 4, 5])
        assert np.array_equal(a.q, b.q)


class TestCc:
    def test_hard_count(self):
        g = Graph.from_edges(4, [])
        preds = PredictionSet.from_hard([0, 0, 0, 1], K=2)
        out = quantify(QuantifierSpec(base="cc"), g, [0], [0], [0, 1, 2, 3], preds)
        assert np.allclose(out.q, [0.75, 0.25])

    def test_invariant_to_train_labels(self):
        g = Graph.from_edges(4, [])
        preds = PredictionSet.from_hard([0, 1, 1, 0], K=2)
        spec = QuantifierSpec(base="cc")
        a = quantify(spec, g, [0, 1], [0, 0], [2, 3], preds)
        b = quantify(spec, g, [0, 1], [1, 1], [2, 3], preds)
        assert np.array_equal(a.q, b.q)

    def test_probabilistic_mean(self):
        g = Graph.from_edges(2, [])
        preds = PredictionSet.from_soft(np.array([[1.0, 0.0], [0.5, 0.5]]))
        out = quantify(QuantifierSpec(base="cc", probabilistic=True),
                       g, [0], [0], [0, 1], preds)
        assert np.allclose(out.q, [0.75, 0.25])


class TestAcc:
    def test_perfect_classifier_equals_cc(self):
        rng = np.random.default_rng(0)
        g = Graph.from_edges(40, [], labels=rng.integers(0, 3, 40))
        preds = PredictionSet.from_hard(g.labels, K=3)
        train = np.arange(20)
        test = np.arange(20, 40)
        acc = quantify(QuantifierSpec(base="acc"), g, train, g.labels[train], test, preds)
        cc = quantify(QuantifierSpec(base="cc"), g, train, g.labels[train], test, preds)
        assert np.abs(acc.q - cc.q).max() < 1e-9

    def test_synthetic_channel_end_to_end(self):
        g, train, train_labels, test, preds = synthetic_channel_setup()
        out = quantify(QuantifierSpec(base="acc"), g, train, train_labels, test, preds)
        assert np.allclose(out.q, [0.5, 0.5], atol=1e-6)

    def test_sis_constant_kernels_match_plain_acc(self):
        rng = np.random.default_rng(1)
        g = generate_sbm([20, 20], 0.2, 0.05, seed=1)
        preds = PredictionSet.from_soft(rng.dirichlet(np.ones(2), size=40))
        train = np.arange(0, 20)
        test = np.arange(20, 40)
        plain = QuantifierSpec(base="acc")
        sis = QuantifierSpec(base="acc", kernel_q=KernelSpec.constant(),
                             kernel_p=KernelSpec.constant())
        a = quantify(plain, g, train, g.labels[train], test, preds)
        b = quantify(sis, g, train, g.labels[train], test, preds)
        assert np.abs(a.q - b.q).max() < 1e-9

    def test_kernel_p_defaults_to_constant(self):
        g = generate_sbm([20, 20], 0.3, 0.05, seed=2)
        preds = PredictionSet.from_hard(g.labels, K=2)
        train = np.arange(0, 30)
        test = np.arange(30, 40)
        explicit = QuantifierSpec(base="acc", kernel_q=KernelSpec.ppr(),
                                  kernel_p=KernelSpec.constant())
        implicit = QuantifierSpec(base="acc", kernel_q=KernelSpec.ppr())
        a = quantify(explicit, g, train, g.labels[train], test, preds)
        b = quantify(implicit, g, train, g.labels[train], test, preds)
        assert np.array_equal(a.q, b.q)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        g = generate_sbm([15, 15, 15], 0.3, 0.05, seed=3)
        soft = rng.dirichlet(np.ones(3), size=45)
        train = np.arange(0, 30)
        test = np.arange(30, 45)
        perm = np.array([2, 0, 1])  # new label of old class i is perm[i]
        for spec in (QuantifierSpec(base="cc"),
                     QuantifierSpec(base="acc"),
                     QuantifierSpec(base="acc", probabilistic=True),
                     QuantifierSpec(base="mlpe")):
            preds = PredictionSet.from_soft(soft)
            out = quantify(spec, g, train, g.labels[train], test, preds)
            preds_p = PredictionSet.from_soft(soft[:, np.argsort(perm)])
            labels_p = perm[g.labels]
            out_p = quantify(spec, g, train, labels_p[train], test, preds_p)
            assert np.abs(out_p.q - out.q[np.argsort(perm)]).max() < 1e-9

    def test_diagnostics_carried_not_raised(self):
        # class 2 missing from train: zero-support flag, run completes
        g = Graph.from_edges(10, [], labels=[0, 1, 2] * 3 + [0])
        preds = PredictionSet.from_hard(g.labels, K=3)
        out = quantify(QuantifierSpec(base="acc"), g, [0, 1], [0, 1], [2, 3, 4], preds)
        assert any(f.startswith("zero-support") for f in out.flags)

    def test_nacc_system_shape(self):
        g = generate_sbm([20, 20], 0.3, 0.02, seed=4)
        preds = PredictionSet.from_hard(g.labels, K=2)
        train = np.arange(0, 30)
        out = quantify(QuantifierSpec(base="acc", nacc=True), g, train,
                       g.labels[train], np.arange(30, 40), preds)
        assert out.q.shape == (2,)
        assert abs(out.q.sum() - 1.0) < 1e-9


class TestBatch:
    def test_singleton_batch_equals_quantify(self):
        g, train, train_labels, test, preds = synthetic_channel_setup()
        spec = QuantifierSpec(base="acc")
        single = quantify(spec, g, train, train_labels, test, preds)
        (batched,) = quantify_batch(spec, g, train, train_labels, [test], preds)
        assert np.array_equal(single.q, batched.q)

    def test_identical_samples_identical_outputs(self):
        g, train, train_labels, test, preds = synthetic_channel_setup()
        spec = QuantifierSpec(base="acc")
        a, b = quantify_batch(spec, g, train, train_labels, [test, test], preds)
        assert np.array_equal(a.q, b.q)

    def test_batch_matches_per_sample_loop_with_sis(self):
        g = generate_sbm([40, 40, 40], 0.15, 0.02, seed=5)
        rng = np.random.default_rng(6)
        preds = PredictionSet.from_soft(rng.dirichlet(np.ones(3), size=120))
        train = np.arange(0, 120, 2)
        pool = np.arange(1, 120, 2)
        samples = sample_rw(g, pool, g.labels[pool], seeds_per_label=3, n=20, seed=7)
        assert len(samples) >= 6
        spec = QuantifierSpec(base="acc", probabilistic=True, nacc=True,
                              kernel_q=KernelSpec.ppr(alpha=0.1, walk_len=4, interp=0.9))
        batched = quantify_batch(spec, g, train, g.labels[train],
                                 [s.vertices for s in samples], preds)
        for s, est in zip(samples, batched):
            loop = quantify(spec, g, train, g.labels[train], s.vertices, preds)
            assert np.abs(loop.q - est.q).max() < 1e-12


class TestVertexIds:
    def test_negative_test_ids_rejected_not_wrapped(self):
        # numpy indexing used to wrap these to the last three vertices: [1,0,0], zero-support:2
        g, train, train_labels, test, preds = synthetic_channel_setup()
        with pytest.raises(DataError):
            quantify(QuantifierSpec(base="acc"), g, train, train_labels, [-1, -2, -3], preds)

    @pytest.mark.parametrize("sample", [[120], [0.5, 1.5], []])
    def test_bad_sample_rejected(self, sample):
        g, train, train_labels, test, preds = synthetic_channel_setup()
        for base in ("mlpe", "cc", "acc"):
            with pytest.raises(DataError):
                quantify_batch(QuantifierSpec(base=base), g, train, train_labels,
                               [test, sample], preds)

    def test_train_out_of_range_rejected(self):
        g, train, train_labels, test, preds = synthetic_channel_setup()
        with pytest.raises(DataError):
            quantify(QuantifierSpec(base="acc"), g, np.append(train, 500),
                     np.append(train_labels, 0), test, preds)

    @pytest.mark.parametrize("base", ["acc", "mlpe", "cc"])
    def test_train_label_count_mismatch_rejected(self, base):
        # acc raised numpy's ValueError and mlpe returned [0, 1] without an error
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        preds = PredictionSet.from_hard([0, 1, 1, 0], K=2)
        with pytest.raises(DataError, match="one train label per train vertex"):
            quantify(QuantifierSpec(base=base), g, [0, 1, 2], [1], [3], preds)


class TestNaccFeaturesOncePerBatch:
    def test_one_feature_pass_and_identical_estimates(self, monkeypatch):
        g = generate_sbm([30, 30, 30], 0.2, 0.02, seed=3)
        rng = np.random.default_rng(4)
        preds = PredictionSet.from_soft(rng.dirichlet(np.ones(3), size=90))
        train, pool = np.arange(0, 90, 2), np.arange(1, 90, 2)
        samples = [rng.choice(pool, size=20) for _ in range(4)]
        calls = []
        original = estimation.nacc_features

        def counting(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(estimation, "nacc_features", counting)
        for mode_probabilistic in (False, True):
            spec = QuantifierSpec(base="acc", nacc=True, probabilistic=mode_probabilistic)
            calls.clear()
            batched = quantify_batch(spec, g, train, g.labels[train], samples, preds)
            assert len(calls) == 1
            mode = "soft" if mode_probabilistic else "hard"
            for s, est in zip(samples, batched):
                # the system as built with the features recomputed in every call
                C, _ = confusion_estimate(outcome_matrix(preds, mode, original(g, preds)),
                                          train, g.labels[train], 3)
                p_hat = prevalence_vector(outcome_matrix(preds, mode, original(g, preds)), s)
                assert np.array_equal(solve_simplex_lsq(C, p_hat).q, est.q)


class TestConfusionOncePerBatch:
    def test_unweighted_once_per_batch_sis_once_per_sample(self, monkeypatch):
        g = generate_sbm([30, 30, 30], 0.2, 0.02, seed=3)
        rng = np.random.default_rng(4)
        preds = PredictionSet.from_soft(rng.dirichlet(np.ones(3), size=90))
        train, pool = np.arange(0, 90, 2), np.arange(1, 90, 2)
        samples = [rng.choice(pool, size=20) for _ in range(4)]
        calls = []
        original = quantifiers.confusion_estimate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(quantifiers, "confusion_estimate", counting)
        sis = KernelSpec.ppr(alpha=0.1, walk_len=4, interp=0.9)
        for spec, expected in ((QuantifierSpec(base="cc"), 0),
                               (QuantifierSpec(base="acc"), 1),
                               (QuantifierSpec(base="acc", probabilistic=True, nacc=True), 1),
                               (QuantifierSpec(base="acc", kernel_q=sis), len(samples)),
                               (QuantifierSpec(base="acc", nacc=True, kernel_q=sis),
                                len(samples))):
            calls.clear()
            quantify_batch(spec, g, train, g.labels[train], samples, preds)
            assert len(calls) == expected, spec.name


class TestWeightsOncePerShift:
    def test_two_classifiers_build_q_densities_once(self, monkeypatch):
        g = generate_sbm([30, 30, 30], 0.2, 0.02, seed=3)
        rng = np.random.default_rng(5)
        train, pool = np.arange(0, 90, 2), np.arange(1, 90, 2)
        samples = [rng.choice(pool, size=20) for _ in range(3)]
        preds_per_clf = [PredictionSet.from_soft(rng.dirichlet(np.ones(3), size=90))
                         for _ in range(2)]
        spec = QuantifierSpec(base="acc", kernel_q=KernelSpec.shortest_path())
        calls = []
        original = quantifiers.kde_density

        def counting(kernel, batch, n):
            calls.append(len(batch))
            return original(kernel, batch, n)
        monkeypatch.setattr(quantifiers, "kde_density", counting)
        cache: dict = {}
        for preds in preds_per_clf:
            # a fresh list of equal arrays: matched on contents, not identity
            batch = [s.copy() for s in samples]
            shared = quantify_batch(spec, g, train, g.labels[train], batch, preds,
                                    weight_cache=cache)
            alone = quantify_batch(spec, g, train, g.labels[train], batch, preds)
            assert all(np.array_equal(a.q, b.q) for a, b in zip(shared, alone))
        # one p density and one q batch for the shared cache, two per fresh one
        assert calls == [1, 3, 1, 3, 1, 3]

        calls.clear()
        changed = [s.copy() for s in samples]
        changed[1][0] = pool[pool != changed[1][0]][0]
        quantify_batch(spec, g, train, g.labels[train], changed, preds_per_clf[0],
                       weight_cache=cache)
        assert calls == [3]
        calls.clear()
        quantify_batch(spec, g, train, g.labels[train], samples[:2], preds_per_clf[0],
                       weight_cache=cache)
        assert calls == [2]

    def test_recomputed_batch_gives_fresh_weights(self):
        g = generate_sbm([20, 20], 0.3, 0.05, seed=8)
        train = np.arange(0, 40, 2)
        context = _WeightContext(QuantifierSpec(base="acc", kernel_q=KernelSpec.ppr()),
                                 g, train)
        first = context.weights_for([np.array([1, 3, 5])])
        second = context.weights_for([np.array([1, 3, 7])])
        fresh = _WeightContext(QuantifierSpec(base="acc", kernel_q=KernelSpec.ppr()),
                               g, train).weights_for([np.array([1, 3, 7])])
        assert not np.array_equal(first[0], second[0])
        assert np.array_equal(second[0], fresh[0])

        # the same array changed in place is a new batch
        sample = np.array([1, 3, 5])
        context.weights_for([sample])
        sample[2] = 7
        assert np.array_equal(context.weights_for([sample])[0], fresh[0])


@st.composite
def relabelled_problems(draw):
    """A labelled small graph (isolated vertices, several components) with soft
    predictions, a training list and a test sample, plus the same problem with
    every vertex id v renamed perm[v]; list order is kept."""
    g = draw(small_graphs().filter(lambda g: g.n >= 4))
    K = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, K, size=g.n)
    labels[:2] = [0, 1]  # at least two classes
    soft = rng.dirichlet(np.ones(K), size=g.n)
    order = rng.permutation(g.n)
    train = order[:draw(st.integers(1, g.n - 1))]
    sample = rng.choice(order, size=draw(st.integers(1, 2 * g.n)))
    perm = rng.permutation(g.n)
    src, dst = g.edge_arrays()
    renamed_labels, renamed_soft = np.empty_like(labels), np.empty_like(soft)
    renamed_labels[perm], renamed_soft[perm] = labels, soft
    original = (Graph.from_edges(g.n, np.column_stack([src, dst]), labels=labels),
                PredictionSet.from_soft(soft), train, sample)
    renamed = (Graph.from_edges(g.n, np.column_stack([perm[src], perm[dst]]),
                                labels=renamed_labels),
               PredictionSet.from_soft(renamed_soft), perm[train], perm[sample])
    return original, renamed


class TestRelabelling:
    @settings(max_examples=80, deadline=None)
    @given(problems=relabelled_problems())
    def test_counting_estimates_bit_identical(self, problems):
        specs = (QuantifierSpec(base="cc"), QuantifierSpec(base="acc"),
                 QuantifierSpec(base="cc", probabilistic=True),
                 QuantifierSpec(base="acc", probabilistic=True, nacc=True))
        for spec in specs:
            (g, preds, train, sample), (g2, preds2, train2, sample2) = problems
            a = quantify(spec, g, train, g.labels[train], sample, preds)
            b = quantify(spec, g2, train2, g2.labels[train2], sample2, preds2)
            assert np.array_equal(a.q, b.q) and a.flags == b.flags, spec.name

    @settings(max_examples=80, deadline=None)
    @given(problems=relabelled_problems())
    def test_importance_weights_agree(self, problems):
        ppr, sp = KernelSpec.ppr(), KernelSpec.shortest_path()
        for spec in (QuantifierSpec(kernel_q=ppr), QuantifierSpec(kernel_q=sp),
                     QuantifierSpec(kernel_q=ppr, kernel_p=sp)):
            (g, _, train, sample), (g2, _, train2, sample2) = problems
            a = _WeightContext(spec, g, train).weights_for([sample])[0]
            b = _WeightContext(spec, g2, train2).weights_for([sample2])[0]
            assert np.allclose(a, b, rtol=0.0, atol=1e-12), spec


class TestStatisticalRecovery:
    def test_acc_recovers_known_channel(self):
        # predictions drawn through a fixed known channel; with large train and
        # test sets the adjusted estimate concentrates on the true prevalence
        channel = np.array([[0.8, 0.1, 0.1],
                            [0.1, 0.8, 0.1],
                            [0.1, 0.1, 0.8]])  # column i: P(pred | y=i)
        q_star = np.array([0.2, 0.3, 0.5])
        n_train, n_test = 6000, 10000
        errors = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            train_labels = rng.integers(0, 3, n_train)
            test_labels = rng.choice(3, size=n_test, p=q_star)
            labels = np.concatenate([train_labels, test_labels])
            hard = np.array([rng.choice(3, p=channel[:, y]) for y in labels])
            preds = PredictionSet.from_hard(hard, K=3)
            g = Graph.from_edges(n_train + n_test, [])
            out = quantify(QuantifierSpec(base="acc"), g, np.arange(n_train),
                           train_labels, np.arange(n_train, n_train + n_test), preds)
            errors.append(np.abs(out.q - q_star).mean())
        assert np.mean(errors) <= 0.02
