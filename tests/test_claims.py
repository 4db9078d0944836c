"""The paper's claims as a measured campaign: `experiment` then `aggregate` on
claims_homophilic.yaml, checked through summary.csv's ranks and Welch marks."""

import csv
from pathlib import Path

from graphquant.cli import main

CONFIG = Path(__file__).with_name("claims_homophilic.yaml")


def test_homophilic_claims(tmp_path):
    results, summary = tmp_path / "results.csv", tmp_path / "summary.csv"
    assert main(["experiment", "--config", str(CONFIG), "--out", str(results)]) == 0
    assert main(["aggregate", "--results", str(results), "--out", str(summary)]) == 0
    cells = {}
    with open(summary, newline="") as f:
        for row in csv.DictReader(f):
            cells.setdefault((row["shift"], row["classifier"]), {})[row["quantifier"]] = row
    assert sorted(cells) == [(shift, clf) for shift in ("bfs", "pps", "rw")
                             for clf in ("enq", "label_prop")]
    for cell, rows in cells.items():
        rank = {name: float(row["ae_rank"]) for name, row in rows.items()}
        best = [name for name, row in rows.items() if row["ae_best"] == "1"]
        # neighborhood-aware ACC is the most accurate, and the only Welch-best
        assert rank["acc+nacc"] == 1.0 and best == ["acc+nacc"], (cell, rank, best)
        # adjusting for the classifier's errors beats counting its predictions
        assert rank["acc"] < rank["cc"], (cell, rank)
