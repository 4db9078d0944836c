"""Self-test of the benchmark at tiny size.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/tests
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(*extra, workload, trace=0, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = run_bench(workload=workload)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    check = json.loads(next(line for line in proc.stdout.splitlines()
                            if line.startswith("perfbench check "))[len("perfbench check "):])
    assert check["failed_frac"] == {"value": 0.0, "unit": "ratio", "base": result["attempted"]}
    assert len(check["results_md5"]) == 32


def _perturb(path: Path) -> None:
    if path.suffix == ".csv":
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        rows[1][7] = repr(float(rows[1][7]) + 1e-3)   # the first row's AE
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
    else:
        payloads = json.loads(path.read_text())
        payloads[0]["prevalences"][0] += 1e-3
        path.write_text(json.dumps(payloads))


@pytest.mark.parametrize("workload", ["adjust-campaign", "oneshot-quantify"])
def test_reference_check_passes_unchanged_and_fails_perturbed(workload, tmp_path):
    run_bench("--write-reference", str(tmp_path), workload=workload)
    (reference,) = tmp_path.iterdir()
    same = result_of(run_bench("--reference", str(tmp_path), workload=workload))
    assert same["correct"] and same["failed"] == 0

    _perturb(reference)
    perturbed = result_of(run_bench("--reference", str(tmp_path), workload=workload))
    assert not perturbed["correct"]
    assert 0 < perturbed["failed"] <= perturbed["attempted"]


@pytest.mark.parametrize("workload,builds", [("sis-campaign", True),
                                             ("adjust-campaign", False),
                                             ("oneshot-quantify", True)])
def test_traced_run_reports_every_layer_metric(workload, builds):
    result = result_of(run_bench(workload=workload, trace=1))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert (result["metrics"]["kernels.build_calls"]["value"] > 0) == builds
    assert result["metrics"]["solver.calls"]["value"] > 0


def test_fails_without_a_result_where_there_are_no_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(workload="sis-campaign", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_a_renamed_boundary_is_reported_unmeasured(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from graphquant import quantifiers
    from graphquant.classifiers import enq_predict
    from graphquant.shift import generate_sbm

    renamed = [("quantifiers", "solve_renamed", "solver", None) if b[1] == "solve_simplex_lsq"
               else b for b in tracing.BOUNDARIES]
    monkeypatch.setattr(tracing, "BOUNDARIES", renamed)
    g = generate_sbm([20, 20], 0.3, 0.05, seed=1)
    train = list(range(0, 40, 2))
    preds = enq_predict(g, train, g.labels[train])
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span(tracing.OP_SPAN, "bench"):
        quantifiers.quantify(quantifiers.QuantifierSpec(), g, train, g.labels[train],
                             list(range(1, 40, 2)), preds)
    metrics, unmeasured = tracing.layer_metrics(tracer)
    assert tracer.unmeasured == ["quantifiers.solve_renamed"]
    assert "solver.calls" in unmeasured and metrics["solver.calls"] == (0.0, "count")
    assert metrics["estimation.confusion_s"][0] > 0
    assert quantifiers.solve_simplex_lsq.__module__ == "graphquant.solver"
