"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from graphquant.classifiers import enq_predict
from graphquant.config import parse_config
from graphquant.estimation import PredictionSet
from graphquant.graph import Graph, bfs_distances
from graphquant.harness import ae, rae, run_experiment
from graphquant.kernels import KernelSpec
from graphquant.quantifiers import QuantifierSpec, quantify, quantify_batch
from graphquant.shift import (generate_sbm, largest_remainder_counts, sample_bfs,
                              sample_pps, sample_rw, save_samples, uniform_split,
                              zipf_distribution)
from graphquant.solver import solve_simplex_lsq

from test_graph import as_distances, floyd_warshall, random_graph
from test_kernels import ppr_matrix_dense, walk_matrix
from test_solver import simplex_grid


@contextmanager
def criterion(name, time_limit):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < time_limit, f"{name} exceeded its {time_limit}s budget"


def mean_ae(samples, estimates):
    return float(np.mean([ae(s.true_prev, e.q) for s, e in zip(samples, estimates)]))


def test_criterion_01_sis_generalizes_acc():
    with criterion("01 constant-kernel importance sampling equals plain adjustment", 5.0):
        worst = 0.0
        for trial in range(50):
            rng = np.random.default_rng(trial)
            k = 2 + trial % 3
            g = generate_sbm([15] * k, 0.3, 0.1, seed=trial)
            preds = PredictionSet.from_soft(rng.dirichlet(np.ones(k), size=g.n))
            perm = rng.permutation(g.n)
            train, test = perm[: g.n // 2], perm[g.n // 2:]
            train_labels = g.labels[train]
            probabilistic = bool(trial % 2)
            plain = QuantifierSpec(base="acc", probabilistic=probabilistic)
            sis = QuantifierSpec(base="acc", probabilistic=probabilistic,
                                 kernel_q=KernelSpec.constant(),
                                 kernel_p=KernelSpec.constant())
            a = quantify(plain, g, train, train_labels, test, preds)
            b = quantify(sis, g, train, train_labels, test, preds)
            worst = max(worst, float(np.abs(a.q - b.q).max()))
        assert worst <= 1e-9, f"worst deviation {worst}"


def _draw_through_channel(rng, labels, channel):
    cum = np.cumsum(channel.T[labels], axis=1)
    u = rng.random(len(labels))
    return (u[:, None] > cum).sum(axis=1)


def test_criterion_02_acc_statistical_recovery():
    with criterion("02 adjusted count recovers the true prevalence", 10.0):
        channel = np.array([[0.8, 0.1, 0.1],
                            [0.1, 0.8, 0.1],
                            [0.1, 0.1, 0.8]])
        q_star = np.array([0.5, 0.3, 0.2])
        n = 10_000
        g = Graph.from_edges(2 * n, [])
        train = np.arange(n)
        test = np.arange(n, 2 * n)
        spec = QuantifierSpec(base="acc")
        errors = []
        for trial in range(50):
            rng = np.random.default_rng(trial)
            train_labels = rng.integers(0, 3, n)
            test_labels = rng.choice(3, size=n, p=q_star)
            hard = _draw_through_channel(rng, np.concatenate([train_labels, test_labels]),
                                         channel)
            preds = PredictionSet.from_hard(hard, K=3)
            out = quantify(spec, g, train, train_labels, test, preds)
            errors.append(ae(q_star, out.q))
        assert np.mean(errors) <= 0.02, f"mean AE {np.mean(errors):.4f}"


def test_criterion_03_solver_oracle_equivalence():
    with criterion("03 solver matches the simplex grid search", 30.0):
        grids = {k: simplex_grid(k, 1e-3) for k in (2, 3)}
        rng = np.random.default_rng(2024)
        for trial in range(200):
            k = 2 + trial % 2
            m = k if trial % 3 else k * k
            C = rng.random((m, k))
            if trial % 5 == 0:
                C[:, -1] = C[:, 0]  # collinear columns now and then
            C /= np.maximum(C.sum(axis=0), 1e-9)
            p = rng.dirichlet(np.ones(m))
            result = solve_simplex_lsq(C, p)
            residuals = grids[k] @ C.T - p
            grid_best = float(np.min(np.einsum("ij,ij->i", residuals, residuals)))
            assert result.objective <= grid_best + 1e-6
        interior = solve_simplex_lsq(np.array([[0.9, 0.2], [0.1, 0.8]]),
                                     np.array([0.55, 0.45]))
        assert np.abs(interior.q - [0.5, 0.5]).max() <= 1e-6


def test_criterion_04_ppr_correctness():
    # walk_matrix: make_evaluator(KernelSpec.ppr(alpha, walk_len, interp=1.0), g,
    # range(n)) applied to the identity, the walk SIS runs
    with criterion("04 walk probabilities of the SIS walk", 5.0):
        for seed in range(20):
            g = random_graph(20 + seed * 2, 0.12, seed=seed)
            pi = walk_matrix(g, 0.1, 5)
            assert np.abs(pi.sum(axis=0) - 1.0).max() <= 1e-9
            assert np.abs(pi - ppr_matrix_dense(g, 0.1, 5)).max() <= 1e-9
        path = Graph.from_edges(2, [(0, 1)])
        assert np.abs(walk_matrix(path, 0.1, 1) - [[0.1, 0.9], [0.9, 0.1]]).max() <= 1e-12
        assert np.abs(walk_matrix(path, 0.1, 2) - [[0.82, 0.18], [0.18, 0.82]]).max() <= 1e-12


def test_criterion_05_nacc_identifiability():
    with criterion("05 neighborhood profiles break merged-class ambiguity", 30.0):
        # classes 1 and 2 are merged by the classifier (both predicted 1) but
        # class-1 vertices sit in a small block pulled toward the class-0 hub,
        # so their neighbor majority is 0 while class-2 vertices see majority 1
        g = generate_sbm([500, 60, 260], 0.4, 0.2, seed=42)
        labels = g.labels
        preds = PredictionSet.from_hard(np.where(labels == 0, 0, 1), K=3)
        split = uniform_split(g, (0.0, 0.25, 0.75), seed=1)
        train, pool = split.quantifier_train, split.test
        samples = sample_pps(pool, labels[pool], 3, num_dists=20, n=100, seed=7)
        assert len(samples) == 20
        plain = quantify_batch(QuantifierSpec(base="acc"), g, train, labels[train],
                               [s.vertices for s in samples], preds)
        nacc = quantify_batch(QuantifierSpec(base="acc", nacc=True), g, train,
                              labels[train], [s.vertices for s in samples], preds)
        plain_ae, nacc_ae = mean_ae(samples, plain), mean_ae(samples, nacc)
        assert nacc_ae < plain_ae, f"nacc {nacc_ae:.4f} vs acc {plain_ae:.4f}"


def test_criterion_06_sis_under_covariate_shift():
    with criterion("06 importance sampling beats plain adjustment under walk shift", 60.0):
        # four blocks, two per class: each class spans a large well-separated
        # block and a small noisy one, so the local confusion around a walk
        # sample differs from the global estimate
        g = generate_sbm([220, 220, 70, 70], 0.08, 0.003,
                         block_labels=[0, 1, 0, 1], seed=8)
        labels = g.labels
        split = uniform_split(g, (0.08, 0.42, 0.5), seed=48)
        preds = enq_predict(g, split.classifier_train, labels[split.classifier_train])
        train, pool = split.quantifier_train, split.test
        samples = sample_rw(g, pool, labels[pool], seeds_per_label=20, n=120,
                            walk_len=10, alpha=0.1, seed=98)
        assert len(samples) == 40
        specs = {
            "cc": QuantifierSpec(base="cc"),
            "acc": QuantifierSpec(base="acc"),
            "sis": QuantifierSpec(base="acc",
                                  kernel_q=KernelSpec.ppr(alpha=0.1, walk_len=10,
                                                          interp=0.9)),
        }
        means = {}
        for name, spec in specs.items():
            outs = quantify_batch(spec, g, train, labels[train],
                                  [s.vertices for s in samples], preds)
            means[name] = mean_ae(samples, outs)
        assert means["sis"] < means["acc"], f"{means}"
        assert means["acc"] < means["cc"], f"{means}"


def test_criterion_07_metric_exactness():
    with criterion("07 error metrics", 5.0):
        assert ae([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert abs(ae([0.5, 0.5], [0.3, 0.7]) - 0.2) < 1e-15
        assert abs(ae([1.0, 0.0], [0.0, 1.0]) - 1.0) < 1e-15
        assert rae([0.5, 0.5], [0.5, 0.5], 100) == 0.0
        assert rae([1.0, 0.0], [1.0, 0.0], 17) == 0.0
        unsmoothed = 0.4
        assert abs(rae([0.5, 0.5], [0.3, 0.7], 10 ** 9) - unsmoothed) <= 1e-6


def test_criterion_08_sampler_contracts(tmp_path):
    with criterion("08 sampler contracts", 30.0):
        # realized class counts equal the largest-remainder targets when the
        # pool has enough vertices of every class
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(20, 120))
            per_class = n + int(rng.integers(0, 50))
            pool_labels = np.repeat(np.arange(k), per_class)
            pool_vertices = np.arange(len(pool_labels))
            seed = int(rng.integers(0, 10 ** 6))
            (sample,) = sample_pps(pool_vertices, pool_labels, k, num_dists=1,
                                   n=n, seed=seed)
            target = np.asarray([float(t) for t in sample.params["target"]])
            expected = largest_remainder_counts(n, target)
            realized = np.bincount(pool_labels[sample.vertices], minlength=k)
            assert np.array_equal(realized, expected)
            assert not sample.flagged
        # byte-reproducibility of every sampler under a fixed seed
        g = generate_sbm([50, 50, 50], 0.15, 0.01, seed=3)
        pool = np.arange(g.n)
        for name, draw in {
            "pps": lambda s: sample_pps(pool, g.labels, 3, num_dists=5, n=40, seed=s),
            "bfs": lambda s: sample_bfs(g, pool, g.labels, seeds_per_label=3, n=40, seed=s),
            "rw": lambda s: sample_rw(g, pool, g.labels, seeds_per_label=3, n=40, seed=s),
        }.items():
            paths = []
            for run in range(2):
                path = tmp_path / f"{name}-{run}.txt"
                save_samples(draw(99), path)
                paths.append(path.read_bytes())
            assert paths[0] == paths[1], f"{name} sampler not reproducible"
        # Zipf target for two classes at unit exponent
        assert sorted(zipf_distribution(2, 1.0)) == sorted([2 / 3, 1 / 3])
        targets = {tuple(np.round(s.params["target"], 6))
                   for s in sample_pps(pool, g.labels, 2, num_dists=10, n=10, seed=1)}
        for t in targets:
            assert sorted(t) == sorted((round(1 / 3, 6), round(2 / 3, 6)))


def test_criterion_09_end_to_end_determinism(tmp_path):
    with criterion("09 experiment reruns are byte-identical", 60.0):
        raw = {
            "dataset": {"name": "det-check",
                        "sbm": {"blocks": [60, 60], "p_in": 0.2, "p_out": 0.02,
                                "seed": 9}},
            "split": {"fractions": [0.1, 0.3, 0.6]},
            "classifiers": [{"name": "enq", "kind": "enq"},
                            {"name": "lp", "kind": "label_prop", "iterations": 10}],
            "quantifiers": [{"name": "cc", "base": "cc"},
                            {"name": "pacc", "base": "acc", "probabilistic": True},
                            {"name": "acc+sis", "base": "acc",
                             "kernel_q": {"kind": "ppr", "walk_len": 4}}],
            "shifts": [{"name": "pps", "kind": "pps", "n": 25, "num_dists": 4},
                       {"name": "rw", "kind": "rw", "n": 25, "seeds_per_label": 2}],
            "repetitions": 2,
            "seed": 31,
            "output": str(tmp_path / "results.csv"),
        }
        cfg = parse_config(raw, base_dir=tmp_path)
        run_experiment(cfg)
        first = (tmp_path / "results.csv").read_bytes()
        run_experiment(cfg)
        second = (tmp_path / "results.csv").read_bytes()
        assert first == second and len(first) > 0


def test_criterion_10_bfs_distance_oracle():
    with criterion("10 hop distances match the all-pairs oracle", 30.0):
        for seed in range(30):
            n = 10 + (seed * 7) % 21  # 10..30 vertices
            g = random_graph(n, 0.08 + 0.01 * (seed % 5), seed=seed)
            oracle = floyd_warshall(g)
            # one hop-block row per source, read with its no-path value as inf
            assert np.array_equal(as_distances(bfs_distances(g, range(g.n))), oracle)
