"""Evaluation metrics, the experiment runner and result aggregation.

A run walks repetitions x shifts x classifiers x quantifiers x samples in a
fixed order and appends one CSV row per (sample, quantifier); everything is
seeded from the base seed, so reruns of the same config are byte-identical.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from operator import attrgetter, itemgetter

import numpy as np

from .classifiers import enq_predict, label_prop_predict, load_predictions
from .config import ENQ, LABEL_PROP, ClassifierConfig, ExperimentConfig
from .errors import DataError, GraphQuantError
from .graph import Graph, check_vertex_ids, load_graph, read_text, write_csv
from .quantifiers import quantify_batch
from .shift import (ShiftSample, generate_sbm, sample_bfs, sample_pps, sample_rw,
                    uniform_split)

SIGNIFICANCE = 0.05

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ResultRow:
    dataset: str
    shift: str
    classifier: str
    quantifier: str
    repetition: int
    sample_id: int
    sample_size: int
    ae: float | None
    rae: float | None
    flags: tuple[str, ...] = ()


def _error_cell(text: str) -> float | None:
    """An AE or RAE cell of a results file: empty for a failed estimate, else a
    finite non-negative number."""
    value = float(text) if text else None
    if value is not None and not 0 <= value < math.inf:
        raise ValueError(f"expected a finite non-negative error, got {text!r}")
    return value


# the fields of a results file, in order, and the reader of each one's cells
_RESULT_READERS = {"dataset": str, "shift": str, "classifier": str, "quantifier": str,
                   "repetition": int, "sample_id": int, "sample_size": int,
                   "ae": _error_cell, "rae": _error_cell,
                   "flags": lambda text: tuple(text.split(";")) if text else ()}
RESULT_FIELDS = list(_RESULT_READERS)


def ae(q, q_hat) -> float:
    """Absolute error: mean componentwise deviation between prevalence vectors."""
    q = np.asarray(q, dtype=np.float64)
    q_hat = np.asarray(q_hat, dtype=np.float64)
    if q.shape != q_hat.shape:
        raise DataError(f"prevalence vectors differ in shape: {q.shape} vs {q_hat.shape}")
    return float(np.abs(q - q_hat).mean())


def rae(q, q_hat, sample_size: int) -> float:
    """Relative absolute error with additive smoothing 1/(2*sample_size).

    Both vectors are smoothed, which keeps the metric defined when a class has
    zero true prevalence in the sample.
    """
    q = np.asarray(q, dtype=np.float64)
    q_hat = np.asarray(q_hat, dtype=np.float64)
    if q.shape != q_hat.shape:
        raise DataError(f"prevalence vectors differ in shape: {q.shape} vs {q_hat.shape}")
    if sample_size <= 0:
        raise DataError("sample_size must be positive")
    eps = 1.0 / (2.0 * sample_size)
    k = len(q)
    q_s = (q + eps) / (1.0 + k * eps)
    q_hat_s = (q_hat + eps) / (1.0 + k * eps)
    return float(np.mean(np.abs(q_s - q_hat_s) / q_s))


def student_t_sf(t: float, dof: float) -> float:
    """Upper tail P(T >= t) of the Student-t distribution: half the
    regularized incomplete beta I_x(dof/2, 1/2) at x = dof/(dof + t²),
    reflected for t < 0. x and 1 - x are each computed directly, so a tiny t
    at a large dof does not round x to 1. Within 1e-12 of scipy.stats.t.sf up
    to dof 1e3 and 1e-8 up to dof 1e7; an infinite dof gives the normal tail.
    NaN in gives NaN out."""
    if math.isnan(t) or math.isnan(dof):
        return math.nan
    if dof <= 0:
        raise DataError("degrees of freedom must be positive")
    if math.isinf(dof):
        return 0.5 * math.erfc(t / math.sqrt(2.0))
    t2 = t * t
    tail = 0.5 * _betainc(dof / 2.0, 0.5, dof / (dof + t2), t2 / (dof + t2))
    return tail if t > 0 else 1.0 - tail


_CF_EPS = 1e-15      # stop once a continued-fraction step changes the value by less
_CF_TINY = 1e-300    # Lentz's stand-in for a zero denominator
_CF_MAX_TERMS = 300  # the t tail needs at most ~110 for dof from 0.01 to 1e17


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given y = 1 - x computed
    separately from x. The prefactor x^a y^b / B(a, b) times a continued
    fraction (Press et al., Numerical Recipes, §6.4): on I_x(a, b) for
    x <= (a+1)/(a+b+2), else on 1 - I_y(b, a), so the fraction always
    converges fast."""
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    front = math.exp(a * math.log(x) + b * math.log(y) - _log_beta(a, b))
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - front * _beta_cf(b, a, y) / b
    return front * _beta_cf(a, b, x) / a


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of a·B(a, b)·I_x(a, b) / (x^a (1-x)^b), by the
    modified Lentz method (Thompson & Barnett, 1986)."""
    c = 1.0
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / _nonzero(1.0 + coef * d)
            c = _nonzero(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            return h
    raise GraphQuantError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _nonzero(v: float) -> float:
    return v if abs(v) > _CF_TINY else _CF_TINY


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b). From a = 100 on, with b small against a, lgamma(a) -
    lgamma(a + b) comes from Stirling's series: the difference of two large
    lgamma values would lose up to 1e-8 of the t tail near dof 1e7 to
    cancellation."""
    if a < 100.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(b) + b - b * math.log(a) - (a + b - 0.5) * math.log1p(b / a)
            + _stirling_series(a) - _stirling_series(a + b))


def _stirling_series(z: float) -> float:
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2π)/2), to O(z^-7)."""
    z2 = z * z
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * z2)) / z2) / z


def welch_one_sided_pvalue(worse: np.ndarray, best: np.ndarray) -> float:
    """p-value for H1 'mean(worse) > mean(best)' under unequal variances.

    Degenerate inputs (no variance or a single observation) fall back to
    comparing the means directly: equal means give 0.5, as a t statistic of
    0 would.
    """
    worse = np.asarray(worse, dtype=np.float64)
    best = np.asarray(best, dtype=np.float64)
    n1, n2 = len(worse), len(best)
    mean_diff = worse.mean() - best.mean()
    v1 = worse.var(ddof=1) / n1 if n1 >= 2 else 0.0
    v2 = best.var(ddof=1) / n2 if n2 >= 2 else 0.0
    pooled = v1 + v2
    if n1 < 2 or n2 < 2 or pooled == 0.0:
        return 0.5 if mean_diff == 0 else (0.0 if mean_diff > 0 else 1.0)
    t = mean_diff / math.sqrt(pooled)
    # scaled by the larger variance first, so that tiny variances do not square to 0
    scale = max(v1, v2)
    s1, s2 = v1 / scale, v2 / scale
    dof = (s1 + s2) ** 2 / (s1 ** 2 / (n1 - 1) + s2 ** 2 / (n2 - 1))
    return student_t_sf(t, dof)


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def load_dataset(cfg: ExperimentConfig) -> Graph:
    ds = cfg.dataset
    if ds.sbm is not None:
        return generate_sbm(**asdict(ds.sbm))
    return load_graph(ds.edges, labels_path=ds.labels, features_path=ds.features)


def fit_classifier(cfg: ClassifierConfig, g: Graph, train_vertices, train_labels):
    if cfg.kind == ENQ:
        return enq_predict(g, train_vertices, train_labels)
    if cfg.kind == LABEL_PROP:
        return label_prop_predict(g, train_vertices, train_labels,
                                  iterations=cfg.iterations, damping=cfg.damping)
    return load_predictions(cfg.path, g.n, g.num_classes)  # EXTERNAL, as ClassifierConfig checks


def draw_samples(shift_cfg, g: Graph, pool_vertices, pool_labels, seed: int,
                 num_classes: int) -> list[ShiftSample]:
    if shift_cfg.kind == "pps":
        # sample_pps sees no graph, so its pool is checked against the graph here
        pool_vertices = check_vertex_ids(pool_vertices, g.n, "PPS sampling pool", nonempty=True)
        return sample_pps(pool_vertices, pool_labels, num_classes,
                          num_dists=shift_cfg.num_dists, n=shift_cfg.n,
                          zipf_exponent=shift_cfg.zipf_exponent, seed=seed)
    if shift_cfg.kind == "bfs":
        return sample_bfs(g, pool_vertices, pool_labels,
                          seeds_per_label=shift_cfg.seeds_per_label, n=shift_cfg.n,
                          seed=seed, num_classes=num_classes)
    return sample_rw(g, pool_vertices, pool_labels,  # "rw", as ShiftConfig checks
                     seeds_per_label=shift_cfg.seeds_per_label, n=shift_cfg.n,
                     walk_len=shift_cfg.walk_len, alpha=shift_cfg.alpha,
                     seed=seed, num_classes=num_classes)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run the full protocol: split, fit classifiers, draw shifted samples,
    quantify every sample with every quantifier, score against the realized
    sample histogram.

    Classifier predictions and importance-weight kernels depend only on the
    repetition's split, so each is built once per repetition and shared by
    all shifts."""
    g = load_dataset(cfg)
    if g.labels is None:
        raise DataError("experiments need a labeled graph")
    K = g.num_classes
    rows: list[ResultRow] = []
    for rep in range(cfg.repetitions):
        split = uniform_split(g, cfg.fractions, seed=_derive_seed(cfg.seed, 0, rep))
        clf_train = split.classifier_train
        quant_train = split.quantifier_train
        quant_labels = g.labels[quant_train]
        pool = split.test
        pool_labels = g.labels[pool]
        preds_per_clf = [fit_classifier(clf_cfg, g, clf_train, g.labels[clf_train])
                         for clf_cfg in cfg.classifiers]
        weight_cache: dict = {}
        for shift_idx, shift_cfg in enumerate(cfg.shifts):
            samples = draw_samples(shift_cfg, g, pool, pool_labels,
                                   seed=_derive_seed(cfg.seed, 1, rep, shift_idx),
                                   num_classes=K)
            # sanity: ground truth is always the realized histogram
            for s in samples:
                realized = np.bincount(g.labels[s.vertices], minlength=K) / len(s.vertices)
                if not np.array_equal(realized, s.true_prev):
                    raise DataError("sample ground truth does not match its histogram")
            for clf_cfg, preds in zip(cfg.classifiers, preds_per_clf):
                for quant_cfg in cfg.quantifiers:
                    rows.extend(_score_quantifier(
                        cfg, g, quant_cfg, clf_cfg, shift_cfg, rep, samples,
                        quant_train, quant_labels, preds, weight_cache))
    write_results_csv(rows, cfg.output)
    return rows


def _score_quantifier(cfg, g, quant_cfg, clf_cfg, shift_cfg, rep, samples,
                      quant_train, quant_labels, preds, weight_cache) -> list[ResultRow]:
    common = dict(dataset=cfg.dataset.name, shift=shift_cfg.name,
                  classifier=clf_cfg.name, quantifier=quant_cfg.name, repetition=rep)
    try:
        estimates = quantify_batch(quant_cfg.spec, g, quant_train, quant_labels,
                                   [s.vertices for s in samples], preds,
                                   weight_cache=weight_cache)
    except GraphQuantError as exc:  # record the failure, keep the run going
        logger.warning("%s failed on shift %s, classifier %s, repetition %d: %s",
                       quant_cfg.name, shift_cfg.name, clf_cfg.name, rep, exc)
        return [ResultRow(**common, sample_id=i, sample_size=len(s.vertices),
                          ae=None, rae=None,
                          flags=("error:" + type(exc).__name__,))
                for i, s in enumerate(samples)]
    rows = []
    for i, (s, est) in enumerate(zip(samples, estimates)):
        flags = tuple(est.flags) + (("sample-short",) if s.flagged else ())
        rows.append(ResultRow(**common, sample_id=i, sample_size=len(s.vertices),
                              ae=ae(s.true_prev, est.q),
                              rae=rae(s.true_prev, est.q, len(s.vertices)),
                              flags=flags))
    return rows


def write_results_csv(rows: list[ResultRow], path) -> None:
    write_csv(path, RESULT_FIELDS, map(attrgetter(*RESULT_FIELDS), rows))


def read_results_csv(path) -> list[ResultRow]:
    """The rows of a results file. Raises DataError naming the file and line of
    a row with another number of fields than RESULT_FIELDS or with a cell its
    field's reader rejects."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header != RESULT_FIELDS:
        raise DataError(f"{path}: unexpected results header {header}")
    rows = []
    for record in filter(None, reader):  # a blank line is no row
        if len(record) != len(RESULT_FIELDS):
            raise DataError(f"{path}:{reader.line_num}: expected {len(RESULT_FIELDS)} "
                            f"fields, got {len(record)}")
        try:
            rows.append(ResultRow(*(read(cell) for read, cell
                                    in zip(_RESULT_READERS.values(), record))))
        except ValueError as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return rows


SUMMARY_FIELDS = ["dataset", "shift", "classifier", "quantifier", "count",
                  "ae_mean", "ae_se", "ae_rank", "ae_best",
                  "rae_mean", "rae_se", "rae_rank", "rae_best"]

RANK_FIELDS = ["quantifier", "ae_avg_rank", "rae_avg_rank", "blocks"]


def aggregate(rows: list[ResultRow]):
    """Summarize result rows.

    Returns (summary, avg_ranks): per (dataset, shift, classifier, quantifier)
    means with standard errors, within-block ranks by mean (ties share the mean
    rank) and a best-equivalence flag from a one-sided Welch t-test against the
    block's best mean; plus per-quantifier ranks averaged over all blocks.
    """
    if not rows:
        raise DataError("no result rows to aggregate")
    scored = [r for r in rows if r.ae is not None and r.rae is not None]
    if not scored:
        raise DataError("no scored result rows to aggregate")
    blocks: dict[tuple, dict[str, list[ResultRow]]] = {}
    for r in scored:
        block = blocks.setdefault((r.dataset, r.shift, r.classifier), {})
        block.setdefault(r.quantifier, []).append(r)
    summary = []
    rank_acc: dict[str, dict[str, list[float]]] = {}
    for block_key in sorted(blocks):
        per_quant = blocks[block_key]
        quant_names = sorted(per_quant)
        records = {name: {"dataset": block_key[0], "shift": block_key[1],
                          "classifier": block_key[2], "quantifier": name,
                          "count": len(per_quant[name])} for name in quant_names}
        for metric in ("ae", "rae"):
            values = {n: np.asarray([getattr(r, metric) for r in per_quant[n]])
                      for n in quant_names}
            means = {n: values[n].mean() for n in quant_names}
            ordered = sorted(means.values())
            best = min(quant_names, key=lambda n: (means[n], n))
            for name in quant_names:
                # rank 1 = lowest mean; tied means share the mean of their ranks
                rank = (bisect_left(ordered, means[name]) + bisect_right(ordered, means[name])
                        + 1) / 2
                records[name].update({
                    f"{metric}_mean": float(means[name]),
                    f"{metric}_se": _stderr(values[name]),
                    f"{metric}_rank": rank,
                    f"{metric}_best": int(welch_one_sided_pvalue(values[name], values[best])
                                          >= SIGNIFICANCE)})
                rank_acc.setdefault(name, {"ae": [], "rae": []})[metric].append(rank)
        summary.extend(records.values())
    avg_ranks = [{"quantifier": name,
                  "ae_avg_rank": float(np.mean(acc["ae"])),
                  "rae_avg_rank": float(np.mean(acc["rae"])),
                  "blocks": len(acc["ae"])}
                 for name, acc in sorted(rank_acc.items())]
    return summary, avg_ranks


def _stderr(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(len(values)))


def write_summary_csv(summary: list[dict], path) -> None:
    write_csv(path, SUMMARY_FIELDS, map(itemgetter(*SUMMARY_FIELDS), summary))


def write_ranks_csv(avg_ranks: list[dict], path) -> None:
    write_csv(path, RANK_FIELDS, map(itemgetter(*RANK_FIELDS), avg_ranks))
