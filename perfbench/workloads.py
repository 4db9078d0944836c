"""The three benchmark workloads: inputs made from a seed, one timed
operation, and the check of that operation's outputs.

Every workload is a closed loop from one caller: the next operation starts
when the previous one has returned. Operations call `graphquant.cli.main`
in-process, exactly as the `graphquant` command would, and read back the
files or JSON it produced.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import yaml

from graphquant import cli
from graphquant.classifiers import label_prop_predict, save_predictions
from graphquant.graph import save_graph
from graphquant.shift import generate_sbm, sample_rw, save_samples, uniform_split

DEFAULT_SEED = 7      # the seed the stored reference outputs were made with
HELD_OUT_SEED = 19    # for checking a claim on inputs a change was not written against

# An output matches its reference when every float is within ATOL and every
# flag other than the solver's convergence note is the same.
ATOL = 1e-6
SOLVER_FLAG = "solver-not-converged"

ONESHOT_SPEC = "{base: acc, kernel_q: {kind: ppr}}"

CLASSIFIERS = [{"kind": "enq"}, {"kind": "label_prop"}]

# The Baseline mix of the ROADMAP at 2k vertices: kernel builds dominate.
SIS_QUANTIFIERS = [
    {"base": "cc"},
    {"base": "acc"},
    {"base": "acc", "probabilistic": True, "nacc": True},
    {"name": "acc+sis-ppr", "base": "acc", "kernel_q": {"kind": "ppr"}},
    {"name": "acc+sis-sp", "base": "acc", "kernel_q": {"kind": "sp"}},
]

# Adjusted counting without kernels: the simplex solver dominates.
ADJUST_QUANTIFIERS = [
    {"base": "cc"},
    {"base": "cc", "probabilistic": True},
    {"base": "acc"},
    {"base": "acc", "probabilistic": True},
    {"base": "acc", "nacc": True},
    {"base": "acc", "probabilistic": True, "nacc": True},
]

# Per size: graph (blocks, p_in, p_out), shifts, repetitions.
SIS_SIZES = {
    "full": dict(blocks=[500] * 4, p_in=0.05, p_out=0.005, repetitions=1,
                 shifts=[{"kind": "pps"},
                         {"kind": "bfs", "seeds_per_label": 5},
                         {"kind": "rw", "seeds_per_label": 5}]),
    "tiny": dict(blocks=[40] * 4, p_in=0.3, p_out=0.02, repetitions=1,
                 shifts=[{"kind": "pps", "num_dists": 4, "n": 20},
                         {"kind": "bfs", "seeds_per_label": 1, "n": 20},
                         {"kind": "rw", "seeds_per_label": 1, "n": 20}]),
}
ADJUST_SIZES = {
    "full": dict(blocks=[120] * 5, p_in=0.06, p_out=0.01, repetitions=80,
                 shifts=[{"kind": "pps", "num_dists": 1}]),
    "tiny": dict(blocks=[30] * 5, p_in=0.3, p_out=0.02, repetitions=3,
                 shifts=[{"kind": "pps", "num_dists": 1, "n": 20}]),
}
ONESHOT_SIZES = {
    "full": dict(blocks=[500] * 4, p_in=0.05, p_out=0.005, seeds_per_label=6, n=100),
    "tiny": dict(blocks=[40] * 4, p_in=0.3, p_out=0.02, seeds_per_label=1, n=20),
}


@dataclass(frozen=True)
class OpResult:
    """Outcome of one timed operation: its wall time, how many outputs it
    should have produced, a digest of the bytes it produced, and the parsed
    outputs (None when the command failed)."""
    wall_s: float
    attempted: int
    md5: str
    output: object


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run `graphquant <argv>` in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL


def _number(text: str) -> float:
    """A CSV cell as a float; NaN, which fails every check, if it is not one."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _flags(text_or_list) -> list[str]:
    flags = text_or_list.split(";") if isinstance(text_or_list, str) else text_or_list
    return [f for f in flags if f and f != SOLVER_FLAG]


class Campaign:
    """`graphquant experiment --config` on a planted-partition graph, then
    `graphquant aggregate` on its results. Each result row is one output."""

    min_ops = 1
    call = "result row (campaign wall time / rows)"

    def __init__(self, name: str, sizes: dict, quantifiers: list, seed: int, size: str,
                 workdir: Path):
        self.name = name
        self.seed = seed
        self.size = size
        self.params = sizes[size]
        self.quantifiers = quantifiers
        self.config_path = workdir / f"{name}.yaml"
        self.results_path = workdir / f"{name}-results.csv"
        self.summary_path = workdir / f"{name}-summary.csv"

    def config(self) -> dict:
        p = self.params
        return {
            "dataset": {"name": self.name,
                        "sbm": {"blocks": p["blocks"], "p_in": p["p_in"],
                                "p_out": p["p_out"], "seed": self.seed}},
            "classifiers": CLASSIFIERS,
            "quantifiers": self.quantifiers,
            "shifts": p["shifts"],
            "repetitions": p["repetitions"],
            "seed": self.seed,
            "output": str(self.results_path),
        }

    @property
    def expected_rows(self) -> int:
        p = self.params
        num_classes = len(p["blocks"])
        samples = sum(s.get("num_dists", 10 * num_classes) if s["kind"] == "pps"
                      else s["seeds_per_label"] * num_classes for s in p["shifts"])
        return samples * len(CLASSIFIERS) * len(self.quantifiers) * p["repetitions"]

    def build_inputs(self) -> None:
        self.config_path.write_text(yaml.safe_dump(self.config(), sort_keys=False))

    def warm_up(self) -> None:
        """Nothing: a campaign runs for seconds, so first-call costs are noise."""

    def run_op(self, index: int) -> OpResult:
        start = time.perf_counter()
        code, _ = call_cli(["experiment", "--config", str(self.config_path)])
        if code == 0:
            code, _ = call_cli(["aggregate", "--results", str(self.results_path),
                                "--out", str(self.summary_path)])
        wall = time.perf_counter() - start
        if code != 0:
            return OpResult(wall, self.expected_rows, "", None)
        data = self.results_path.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        return OpResult(wall, max(self.expected_rows, len(rows)),
                        hashlib.md5(data).hexdigest(), rows)

    @staticmethod
    def campaign_s(results: list[OpResult]) -> float:
        return statistics.median(r.wall_s for r in results)

    @staticmethod
    def call_ms(results: list[OpResult]) -> list[float]:
        """The cost of one estimate inside each campaign."""
        return [r.wall_s * 1000.0 / r.attempted for r in results]

    @staticmethod
    def results_md5(results: list[OpResult]) -> str:
        return results[-1].md5

    def failures(self, result: OpResult, reference: list[dict] | None) -> int:
        """Rows that are missing, carry an error flag, have an AE outside
        [0, 1], or differ from the reference row at the same position."""
        if result.output is None:
            return result.attempted
        rows = result.output
        failed = result.attempted - len(rows)
        for i, row in enumerate(rows):
            bad = (any(f.startswith("error:") for f in _flags(row["flags"]))
                   or not 0.0 <= _number(row["ae"]) <= 1.0)
            if not bad and reference is not None:
                bad = i >= len(reference) or not self._same(row, reference[i])
            failed += bad
        return failed

    @staticmethod
    def _same(row: dict, ref: dict) -> bool:
        keys = ("dataset", "shift", "classifier", "quantifier", "repetition",
                "sample_id", "sample_size")
        return (all(row[k] == ref[k] for k in keys)
                and all(bool(row[k]) == bool(ref[k])
                        and (not row[k] or _close(_number(row[k]), _number(ref[k])))
                        for k in ("ae", "rae"))
                and _flags(row["flags"]) == _flags(ref["flags"]))

    def reference_file(self, ref_dir: Path) -> Path:
        return ref_dir / f"{self.name}-{self.size}-seed{self.seed}.csv"

    def write_reference(self, ref_dir: Path) -> Path:
        result = self.run_op(0)
        failed = self.failures(result, None)
        if failed:
            raise RuntimeError(f"{self.name}: {failed} outputs fail the check")
        path = self.reference_file(ref_dir)
        path.write_bytes(self.results_path.read_bytes())
        return path

    def load_reference(self, ref_dir: Path):
        """(md5 of the reference bytes, reference rows), or None."""
        path = self.reference_file(ref_dir)
        if not path.is_file():
            return None
        data = path.read_bytes()
        return (hashlib.md5(data).hexdigest(),
                list(csv.DictReader(io.StringIO(data.decode("utf-8")))))


class OneShot:
    """Back-to-back `graphquant quantify --sample-index i` calls against a
    graph, split, predictions and samples written to files at set-up. Call i
    quantifies sample i modulo the number of samples; each call is one
    output."""

    call = "quantify call"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.name = "oneshot-quantify"
        self.seed = seed
        self.size = size
        self.params = ONESHOT_SIZES[size]
        self.paths = {k: workdir / f"oneshot-{k}" for k in
                      ("edges", "labels", "split", "preds", "samples")}
        self.num_classes = len(self.params["blocks"])
        self.num_samples = self.params["seeds_per_label"] * self.num_classes

    @property
    def min_ops(self) -> int:
        """One call per sample, so that `campaign_s` covers every sample."""
        return self.num_samples

    def build_inputs(self) -> None:
        p = self.params
        g = generate_sbm(p["blocks"], p["p_in"], p["p_out"], seed=self.seed)
        save_graph(g, self.paths["edges"], labels_path=self.paths["labels"])
        split = uniform_split(g, cli.DEFAULT_FRACTIONS, seed=self.seed)
        cli.save_split(split, self.paths["split"])
        train = split.classifier_train
        save_predictions(label_prop_predict(g, train, g.labels[train]), self.paths["preds"])
        pool = split.test
        samples = sample_rw(g, pool, g.labels[pool], seeds_per_label=p["seeds_per_label"],
                            n=p["n"], seed=self.seed, num_classes=self.num_classes)
        if len(samples) != self.num_samples:
            raise RuntimeError(f"expected {self.num_samples} samples, drew {len(samples)}")
        save_samples(samples, self.paths["samples"])

    def warm_up(self) -> None:
        self.run_op(0)

    def run_op(self, index: int) -> OpResult:
        sample_index = index % self.num_samples
        argv = ["quantify", "--edges", str(self.paths["edges"]),
                "--labels", str(self.paths["labels"]), "--split", str(self.paths["split"]),
                "--preds", str(self.paths["preds"]), "--quantifier", ONESHOT_SPEC,
                "--test", str(self.paths["samples"]), "--sample-index", str(sample_index)]
        start = time.perf_counter()
        code, out = call_cli(argv)
        wall = time.perf_counter() - start
        if code != 0:
            return OpResult(wall, 1, "", None)
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return OpResult(wall, 1, "", None)
        payload["sample_index"] = sample_index
        return OpResult(wall, 1, _md5_json([payload]), payload)

    def campaign_s(self, results: list[OpResult]) -> float:
        """Time to quantify every sample once: the sum over the samples of
        each sample's median call time."""
        by_sample: dict[int, list[float]] = {}
        for i, r in enumerate(results):
            by_sample.setdefault(i % self.num_samples, []).append(r.wall_s)
        return sum(statistics.median(v) for v in by_sample.values())

    @staticmethod
    def call_ms(results: list[OpResult]) -> list[float]:
        return [r.wall_s * 1000.0 for r in results]

    @staticmethod
    def results_md5(results: list[OpResult]) -> str:
        """md5 of one output per sample, in sample order."""
        first: dict[int, dict] = {}
        for r in results:
            if r.output is not None:
                first.setdefault(r.output["sample_index"], r.output)
        return _md5_json([first[k] for k in sorted(first)])

    def failures(self, result: OpResult, reference: list[dict] | None) -> int:
        """1 if the call failed, its prevalences are not a distribution over
        the K classes, it carries an error flag, or it differs from the
        reference for the same sample; else 0."""
        payload = result.output
        if payload is None:
            return 1
        q = payload.get("prevalences", [])
        valid = (payload.get("K") == self.num_classes and len(q) == self.num_classes
                 and all(0.0 <= x <= 1.0 for x in q)
                 and math.isclose(sum(q), 1.0, abs_tol=1e-9)
                 and payload.get("test_size") == self.params["n"]
                 and not any(f.startswith("error:") for f in payload.get("flags", [])))
        if valid and reference is not None:
            index = payload["sample_index"]
            valid = (index < len(reference)
                     and len(reference[index]["prevalences"]) == len(q)
                     and all(_close(a, b) for a, b in zip(q, reference[index]["prevalences"]))
                     and _flags(payload["flags"]) == _flags(reference[index]["flags"]))
        return int(not valid)

    def reference_file(self, ref_dir: Path) -> Path:
        return ref_dir / f"{self.name}-{self.size}-seed{self.seed}.json"

    def write_reference(self, ref_dir: Path) -> Path:
        results = [self.run_op(i) for i in range(self.num_samples)]
        failed = sum(self.failures(r, None) for r in results)
        if failed:
            raise RuntimeError(f"{self.name}: {failed} outputs fail the check")
        path = self.reference_file(ref_dir)
        path.write_text(json.dumps([r.output for r in results], indent=1, sort_keys=True) + "\n")
        return path

    def load_reference(self, ref_dir: Path):
        """(md5 of one pass over the reference payloads, payloads), or None."""
        path = self.reference_file(ref_dir)
        if not path.is_file():
            return None
        payloads = json.loads(path.read_text(encoding="utf-8"))
        return _md5_json(payloads), payloads


def _md5_json(payloads: list[dict]) -> str:
    return hashlib.md5("".join(json.dumps(p, sort_keys=True) for p in payloads)
                       .encode()).hexdigest()


def make(name: str, seed: int, size: str, workdir: Path):
    if name == "sis-campaign":
        return Campaign(name, SIS_SIZES, SIS_QUANTIFIERS, seed, size, workdir)
    if name == "adjust-campaign":
        return Campaign(name, ADJUST_SIZES, ADJUST_QUANTIFIERS, seed, size, workdir)
    if name == "oneshot-quantify":
        return OneShot(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}")

