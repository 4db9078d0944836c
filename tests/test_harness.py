import logging
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import betainc

from graphquant import harness, quantifiers
from graphquant.cli import save_split
from graphquant.config import parse_config
from graphquant.errors import DataError
from graphquant.harness import (ResultRow, ae, aggregate, rae, read_results_csv,
                                run_experiment, student_t_sf, welch_one_sided_pvalue)
from graphquant.shift import ShiftSample, SplitSpec, uniform_split, write_manifest
from graphquant.harness import load_dataset

EXPECTED_CSV = Path(__file__).parent / "expected_csv"


def betainc_student_t_sf(t: float, dof: float) -> float:
    """The t tail through scipy.special.betainc: the oracle for student_t_sf.
    It rounds x = dof/(dof + t²) before betainc sees it, so near x = 1 it is
    less exact than the function it checks."""
    if dof <= 0:
        raise DataError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    x = dof / (dof + t * t)
    tail = 0.5 * float(betainc(dof / 2.0, 0.5, x))
    return tail if t > 0 else 1.0 - tail


def tie_loop_ranks(means: dict[str, float]) -> dict[str, float]:
    """Rank 1 = lowest mean; each run of tied means shares the mean of its
    ranks, found by walking the sorted means: the oracle for aggregate's ranks."""
    ordered = sorted(means, key=lambda n: means[n])
    ranks: dict[str, float] = {}
    i = 0
    while i < len(ordered):
        j = i
        while j + 1 < len(ordered) and means[ordered[j + 1]] == means[ordered[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[ordered[k]] = shared
        i = j + 1
    return ranks


def base_config(tmp_path, **overrides):
    raw = {
        "dataset": {"name": "toy-sbm",
                    "sbm": {"blocks": [60, 60], "p_in": 0.2, "p_out": 0.02, "seed": 3}},
        "split": {"fractions": [0.1, 0.3, 0.6]},
        "classifiers": [{"name": "enq", "kind": "enq"}],
        "quantifiers": [{"name": "cc", "base": "cc"}, {"name": "acc", "base": "acc"}],
        "shifts": [{"name": "pps", "kind": "pps", "n": 30, "num_dists": 4}],
        "repetitions": 1,
        "seed": 11,
        "output": str(tmp_path / "results.csv"),
    }
    raw.update(overrides)
    return parse_config(raw, base_dir=tmp_path)


class TestAe:
    def test_zero_on_equal(self):
        assert ae([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_hand_value(self):
        assert ae([0.5, 0.5], [0.3, 0.7]) == pytest.approx(0.2, abs=1e-15)

    def test_max_for_binary(self):
        assert ae([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            ae([1.0], [0.5, 0.5])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_symmetric_and_bounded(self, k, seed):
        rng = np.random.default_rng(seed)
        q, q_hat = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        val = ae(q, q_hat)
        assert val == ae(q_hat, q)
        assert 0.0 <= val <= 1.0


class TestRae:
    def test_zero_on_equal(self):
        assert rae([0.5, 0.5], [0.5, 0.5], 100) == 0.0

    def test_zero_prevalence_is_smoothed(self):
        assert rae([1.0, 0.0], [1.0, 0.0], 50) == 0.0
        assert np.isfinite(rae([1.0, 0.0], [0.8, 0.2], 50))

    def test_large_sample_limit_matches_unsmoothed(self):
        q = np.array([0.5, 0.5])
        q_hat = np.array([0.3, 0.7])
        unsmoothed = np.mean(np.abs(q - q_hat) / q)
        assert abs(rae(q, q_hat, 10 ** 9) - unsmoothed) < 1e-6
        assert unsmoothed == pytest.approx(0.4)

    def test_sample_size_validation(self):
        with pytest.raises(DataError):
            rae([1.0], [1.0], 0)


class TestWelch:
    def test_matches_scipy_tail(self):
        for t, dof in [(0.5, 3.0), (2.1, 17.4), (-1.3, 8.0), (0.0, 5.0)]:
            assert student_t_sf(t, dof) == pytest.approx(
                scipy_stats.t.sf(t, dof), abs=1e-12)

    def test_matches_scipy_welch(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(0.3, 0.1, size=12)
            b = rng.normal(0.25, 0.05, size=9)
            expected = scipy_stats.ttest_ind(a, b, equal_var=False, alternative="greater")
            assert welch_one_sided_pvalue(a, b) == pytest.approx(expected.pvalue, abs=1e-10)

    def test_identical_samples_give_half(self):
        a = np.array([0.1, 0.2, 0.3])
        assert welch_one_sided_pvalue(a, a.copy()) == pytest.approx(0.5)

    def test_degenerate_constant_samples(self):
        worse = np.array([0.5, 0.5, 0.5])
        best = np.array([0.25, 0.25, 0.25])
        assert welch_one_sided_pvalue(worse, best) == 0.0
        assert welch_one_sided_pvalue(best, worse) == 1.0
        assert welch_one_sided_pvalue(best, best.copy()) == 0.5

    def test_tiny_variances_give_the_p_value_of_the_unscaled_data(self):
        # the squared variances underflowed, so the dof was 0/0 and p NaN
        worse, best = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = welch_one_sided_pvalue(worse * 1e-84, best * 1e-84)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(welch_one_sided_pvalue(worse, best), rel=1e-12)

    def test_single_observation_equal_means_give_half(self):
        assert welch_one_sided_pvalue(np.array([0.3]), np.array([0.3])) == 0.5
        assert welch_one_sided_pvalue(np.array([0.25]), np.array([0.0, 0.25, 0.5])) == 0.5
        assert welch_one_sided_pvalue(np.array([0.4]), np.array([0.3])) == 0.0
        assert welch_one_sided_pvalue(np.array([0.2]), np.array([0.3])) == 1.0


class TestStudentTail:
    """student_t_sf against the betainc oracle and scipy.stats.t.sf. Welch's
    dof is at most the rows of both groups less two, so dof <= 1e3 covers
    every realistic aggregate."""

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(-300.0, 300.0), dof=st.floats(0.05, 1e3))
    def test_matches_oracle_and_scipy(self, t, dof):
        tail = student_t_sf(t, dof)
        assert abs(tail - scipy_stats.t.sf(t, dof)) <= 1e-12
        # the oracle's rounded x costs it up to 1e-7 where 1 - x is tiny (t = 2.4e-7
        # at dof 564); from 1 - x >= 1e-3 on that rounding stays below 1e-13
        if t * t / (dof + t * t) >= 1e-3:
            assert abs(tail - betainc_student_t_sf(t, dof)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(-300.0, 300.0), dof=st.floats(1e3, 1e7))
    def test_matches_scipy_at_large_dof(self, t, dof):
        assert abs(student_t_sf(t, dof) - scipy_stats.t.sf(t, dof)) <= 1e-8

    def test_large_dof_tiny_t_does_not_round_to_half(self):
        # x = dof/(dof + t²) rounds to 1.0 here, so the oracle returns exactly 0.5
        t, dof = 8.8e-6, 5.9e6
        assert betainc_student_t_sf(t, dof) == 0.5
        assert student_t_sf(t, dof) == pytest.approx(scipy_stats.t.sf(t, dof), abs=1e-12)

    @pytest.mark.parametrize("dof", [0.05, 1.0, 7.5, 1e3, 1e7])
    def test_zero_and_infinite_t(self, dof):
        assert student_t_sf(0.0, dof) == 0.5
        assert student_t_sf(-0.0, dof) == 0.5
        assert student_t_sf(math.inf, dof) == 0.0
        assert student_t_sf(-math.inf, dof) == 1.0

    def test_infinite_dof_is_the_normal_tail(self):
        for t in [-2.0, 0.0, 0.3, 4.0]:
            assert student_t_sf(t, math.inf) == pytest.approx(
                scipy_stats.norm.sf(t), abs=1e-15)

    def test_nan_gives_nan(self):
        assert math.isnan(student_t_sf(math.nan, 5.0))
        assert math.isnan(student_t_sf(1.0, math.nan))

    @pytest.mark.parametrize("dof", [0.0, -1.0, -math.inf])
    def test_nonpositive_dof_rejected(self, dof):
        with pytest.raises(DataError):
            student_t_sf(1.0, dof)


class TestAggregate:
    def row(self, quantifier, ae_val, dataset="d", shift="s", classifier="c", sample_id=0):
        return ResultRow(dataset=dataset, shift=shift, classifier=classifier,
                         quantifier=quantifier, repetition=0, sample_id=sample_id,
                         sample_size=10, ae=ae_val, rae=ae_val)

    def test_single_quantifier_rank_one(self):
        rows = [self.row("acc", 0.1, sample_id=i) for i in range(3)]
        summary, ranks = aggregate(rows)
        assert summary[0]["ae_rank"] == 1.0
        assert ranks[0]["ae_avg_rank"] == 1.0
        assert summary[0]["ae_best"] == 1

    def test_two_quantifiers_two_blocks_average_ranks(self):
        rows = []
        for shift in ("s1", "s2"):
            for i in range(3):
                rows.append(self.row("good", 0.1, shift=shift, sample_id=i))
                rows.append(self.row("bad", 0.2, shift=shift, sample_id=i))
        summary, ranks = aggregate(rows)
        by_name = {r["quantifier"]: r for r in ranks}
        assert by_name["good"]["ae_avg_rank"] == 1.0
        assert by_name["bad"]["ae_avg_rank"] == 2.0

    def test_identical_samples_both_flagged_best(self):
        rows = []
        for i, v in enumerate([0.1, 0.15, 0.2]):
            rows.append(self.row("a", v, sample_id=i))
            rows.append(self.row("b", v, sample_id=i))
        summary, _ = aggregate(rows)
        assert all(rec["ae_best"] == 1 for rec in summary)

    def test_clearly_worse_not_flagged(self):
        rng = np.random.default_rng(1)
        rows = []
        for i in range(30):
            rows.append(self.row("good", 0.05 + 0.01 * rng.random(), sample_id=i))
            rows.append(self.row("bad", 0.50 + 0.01 * rng.random(), sample_id=i))
        summary, _ = aggregate(rows)
        by_name = {r["quantifier"]: r for r in summary}
        assert by_name["good"]["ae_best"] == 1
        assert by_name["bad"]["ae_best"] == 0

    def test_tied_means_share_rank(self):
        rows = []
        for i in range(3):
            rows.append(self.row("a", 0.1, sample_id=i))
            rows.append(self.row("b", 0.1, sample_id=i))
            rows.append(self.row("c", 0.3, sample_id=i))
        summary, _ = aggregate(rows)
        by_name = {r["quantifier"]: r for r in summary}
        assert by_name["a"]["ae_rank"] == 1.5
        assert by_name["b"]["ae_rank"] == 1.5
        assert by_name["c"]["ae_rank"] == 3.0

    def test_rank_permutation_equivariance(self):
        rows = [self.row(name, v, sample_id=i)
                for i in range(4)
                for name, v in [("x", 0.3), ("y", 0.1), ("z", 0.2)]]
        summary_a, _ = aggregate(rows)
        summary_b, _ = aggregate(list(reversed(rows)))
        key = lambda recs: {(r["quantifier"]): (r["ae_rank"], r["ae_mean"]) for r in recs}
        assert key(summary_a) == key(summary_b)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 1.0]),
                              st.floats(0, 1)), min_size=1, max_size=8))
    def test_ranks_match_tie_loop(self, means):
        rows = [self.row(f"q{i}", v) for i, v in enumerate(means)]
        summary, _ = aggregate(rows)
        expected = tie_loop_ranks({f"q{i}": v for i, v in enumerate(means)})
        for metric in ("ae_rank", "rae_rank"):
            got = {rec["quantifier"]: rec[metric] for rec in summary}
            assert got == expected
            assert all(type(rank) is float for rank in got.values())

    def test_error_rows_are_skipped(self):
        rows = [self.row("a", 0.1)]
        rows.append(ResultRow(dataset="d", shift="s", classifier="c", quantifier="a",
                              repetition=0, sample_id=1, sample_size=10,
                              ae=None, rae=None, flags=("error:DataError",)))
        summary, _ = aggregate(rows)
        assert summary[0]["count"] == 1

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate([])


def write_report_files(out: Path) -> list[str]:
    """Write the five CSV tables of the package from fixed inputs into `out`:
    results, summary and ranks of a run, a split and a sample manifest. The
    inputs hold quoted text, repeating fractions, a failed row, joined flags,
    tied means, an absent start vertex and numpy ints. Returns the file names."""
    def row(shift, quantifier, sample_id, ae_val, rae_val, flags=()):
        return ResultRow('d,"x"', shift, "enq", quantifier, 0, sample_id, 20,
                         ae_val, rae_val, flags)
    rows = [row("pps", "a", 0, 0.1, 1 / 3), row("pps", "a", 1, 0.2, 2 / 3),
            row("pps", "b", 0, 0.2, 0.5), row("pps", "b", 1, 0.1, 0.5),
            row("pps", "c", 0, 0.0, 0.0), row("pps", "c", 1, 1e-17, 0.1 + 0.2),
            row("pps", "c", 2, None, None, ("error:DataError",))]
    rows += [row("bfs", q, 0, 0.3, 0.7, ("zero-support:1", "sample-short")) for q in "abc"]
    harness.write_results_csv(rows, out / "results.csv")
    summary, avg_ranks = aggregate(rows)
    harness.write_summary_csv(summary, out / "summary.csv")
    harness.write_ranks_csv(avg_ranks, out / "summary_ranks.csv")
    save_split(SplitSpec(np.array([5, 1]), np.array([3], dtype=np.int32), np.array([0, 2, 4])),
               out / "split.csv")
    samples = [ShiftSample(np.array([0, 2, 2]), np.array([1.0, 0.0]), "pps", 3,
                           params={"n": 3, "target": (2 / 3, 1 / 3), "zipf_exponent": 1.0}),
               ShiftSample(np.array([4]), np.array([0.0, 1.0]), "rw", 3,
                           params={"alpha": 0.1, "walk_len": 10}, start=np.int64(4),
                           flagged=True)]
    write_manifest(samples, out / "manifest.csv", "samples.txt")
    return ["results.csv", "summary.csv", "summary_ranks.csv", "split.csv", "manifest.csv"]


class TestWrittenFiles:
    def test_bytes_match_expected_files(self, tmp_path):
        for name in write_report_files(tmp_path):
            assert (tmp_path / name).read_bytes() == (EXPECTED_CSV / name).read_bytes(), name

    def test_existing_file_is_replaced(self, tmp_path):
        (tmp_path / "results.csv").write_text("x" * 10000)
        write_report_files(tmp_path)
        assert ((tmp_path / "results.csv").read_bytes()
                == (EXPECTED_CSV / "results.csv").read_bytes())

    def test_results_read_back_as_written(self, tmp_path):
        write_report_files(tmp_path)
        loaded = read_results_csv(tmp_path / "results.csv")
        harness.write_results_csv(loaded, tmp_path / "again.csv")
        assert ((tmp_path / "again.csv").read_bytes()
                == (EXPECTED_CSV / "results.csv").read_bytes())


class TestRunExperiment:
    def test_row_count_and_schema(self, tmp_path):
        cfg = base_config(tmp_path)
        rows = run_experiment(cfg)
        # 4 PPS samples x 2 quantifiers x 1 classifier x 1 repetition
        assert len(rows) == 8
        loaded = read_results_csv(cfg.output)
        assert [r.quantifier for r in loaded] == [r.quantifier for r in rows]
        assert all(r.ae is not None for r in loaded)

    def test_pps_sample_count_follows_protocol(self, tmp_path):
        cfg = base_config(tmp_path, shifts=[{"name": "pps", "kind": "pps", "n": 20}],
                          quantifiers=[{"name": "cc", "base": "cc"}])
        rows = run_experiment(cfg)
        assert len(rows) == 20  # 10 * K samples with K=2, one quantifier

    def test_byte_identical_reruns(self, tmp_path):
        cfg = base_config(tmp_path)
        run_experiment(cfg)
        blob1 = open(cfg.output, "rb").read()
        run_experiment(cfg)
        blob2 = open(cfg.output, "rb").read()
        assert blob1 == blob2

    def test_mlpe_rows_match_direct_recomputation(self, tmp_path):
        cfg = base_config(tmp_path, quantifiers=[{"name": "mlpe", "base": "mlpe"}])
        rows = run_experiment(cfg)
        g = load_dataset(cfg)
        from graphquant.harness import _derive_seed
        split = uniform_split(g, cfg.fractions, seed=_derive_seed(cfg.seed, 0, 0))
        hist = np.bincount(g.labels[split.quantifier_train], minlength=g.num_classes)
        hist = hist / hist.sum()
        from graphquant.harness import draw_samples
        samples = draw_samples(cfg.shifts[0], g, split.test, g.labels[split.test],
                               seed=_derive_seed(cfg.seed, 1, 0, 0), num_classes=g.num_classes)
        for row, sample in zip(rows, samples):
            assert row.ae == pytest.approx(ae(sample.true_prev, hist), abs=1e-12)

    def test_multiple_classifiers_and_shifts(self, tmp_path):
        cfg = base_config(
            tmp_path,
            classifiers=[{"name": "enq", "kind": "enq"},
                         {"name": "lp", "kind": "label_prop", "iterations": 5}],
            shifts=[{"name": "pps", "kind": "pps", "n": 20, "num_dists": 2},
                    {"name": "rw", "kind": "rw", "n": 20, "seeds_per_label": 1}],
            repetitions=2)
        rows = run_experiment(cfg)
        # per rep: pps 2 samples + rw 2 samples (1 seed x 2 labels), x2 clf x2 quant
        assert len(rows) == 2 * (2 + 2) * 2 * 2
        combos = {(r.repetition, r.shift, r.classifier, r.quantifier) for r in rows}
        assert len(combos) == 2 * 2 * 2 * 2

    def test_external_predictions_path(self, tmp_path):
        from graphquant.classifiers import save_predictions
        from graphquant.estimation import PredictionSet
        cfg0 = base_config(tmp_path)
        g = load_dataset(cfg0)
        preds = PredictionSet.from_hard(g.labels, K=g.num_classes)
        save_predictions(preds, tmp_path / "ext.csv")
        cfg = base_config(
            tmp_path,
            classifiers=[{"name": "oracle", "kind": "external", "path": "ext.csv"}])
        rows = run_experiment(cfg)
        accs = [r.ae for r in rows if r.quantifier == "acc"]
        assert np.mean(accs) < 1e-9  # perfect predictions leave nothing to adjust


SIS_PPR = {"name": "acc+sis", "base": "acc", "kernel_q": {"kind": "ppr"}}


class TestHoisting:
    def hoisting_config(self, tmp_path):
        return base_config(
            tmp_path,
            classifiers=[{"name": "enq", "kind": "enq"},
                         {"name": "lp", "kind": "label_prop", "iterations": 5}],
            quantifiers=[{"name": "acc", "base": "acc"}, SIS_PPR],
            shifts=[{"name": "pps", "kind": "pps", "n": 20, "num_dists": 2},
                    {"name": "rw", "kind": "rw", "n": 20, "seeds_per_label": 1}],
            repetitions=2)

    def test_kernels_and_fits_built_once_per_repetition(self, tmp_path, monkeypatch):
        calls = {"make_evaluator": 0, "fit_classifier": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(quantifiers, "make_evaluator")
        counting(harness, "fit_classifier")
        run_experiment(self.hoisting_config(tmp_path))
        # per repetition: the ppr kernel_q, the default constant kernel_p and
        # one fit per classifier
        assert calls == {"make_evaluator": 2 * 2, "fit_classifier": 2 * 2}

    def test_rows_equal_unhoisted_run(self, tmp_path, monkeypatch):
        cfg = self.hoisting_config(tmp_path)
        hoisted = run_experiment(cfg)
        original = harness.quantify_batch

        def without_cache(*args, weight_cache=None, **kwargs):
            return original(*args, **kwargs)
        monkeypatch.setattr(harness, "quantify_batch", without_cache)
        assert run_experiment(cfg) == hoisted


class TestQuantifierErrors:
    def test_package_error_gives_error_rows(self, tmp_path, monkeypatch, caplog):
        def failing(*args, **kwargs):
            raise DataError("weights degenerate")
        monkeypatch.setattr(harness, "quantify_batch", failing)
        with caplog.at_level(logging.WARNING, logger="graphquant.harness"):
            rows = run_experiment(base_config(tmp_path))
        assert len(rows) == 8
        assert all(r.ae is None and r.rae is None and r.flags == ("error:DataError",)
                   for r in rows)
        assert "weights degenerate" in caplog.text

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        def buggy(*args, **kwargs):
            raise RuntimeError("bug")
        monkeypatch.setattr(harness, "quantify_batch", buggy)
        with pytest.raises(RuntimeError):
            run_experiment(base_config(tmp_path))
