"""Command-line interface.

Subcommands: gen-graph, split, sample-shift, classify, quantify, experiment,
aggregate. Exit codes: 0 success, 1 configuration error (a usage error too),
2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import harness
from .classifiers import load_predictions, save_predictions
from .config import (DEFAULT_FRACTIONS, ENQ, LABEL_PROP, ClassifierConfig, ExperimentConfig,
                     SbmParams, ShiftConfig, load_config, load_yaml, parse_quantifier_spec)
from .errors import ConfigError, DataError
from .graph import (Graph, check_vertex_ids, guarded_loadtxt, load_graph, read_text, save_graph,
                    write_csv)
from .quantifiers import quantify
from .shift import (SplitSpec, generate_sbm, load_sample_sections, save_samples, uniform_split,
                    write_manifest)

SPLIT_ROLES = ("classifier_train", "quantifier_train", "test")

# The settings flags by command (sample-shift's plus _SEED): keys of config's tables,
# so a flag's value passes the converter, kind check and default of its key in a config.
_SEED = {"seed": config_mod._TOP["seed"]}
_SPLIT = {**config_mod._SPLIT, **_SEED}
_SAMPLE_SHIFT = {key: conv for keys in config_mod._SHIFT.values() for key, conv in keys.items()}
_CLASSIFY = {**config_mod._CLASSIFIER[ENQ], **config_mod._CLASSIFIER[LABEL_PROP]}


def _flags(args, keys: dict) -> dict:
    """The given flags of the config `keys` as a config section: a value is an int if int()
    reads it, so no large id rounds, else a float if float() does, else text."""
    def read(text):
        for number in (int, float):
            with contextlib.suppress(ValueError):
                return number(text)
        return text
    return {key: tuple(map(read, text.split(","))) if getattr(conv, "is_list", False)
            else read(text) for key, conv in keys.items()
            if (text := getattr(args, key, None)) is not None}


def _run_settings(args, keys: dict, what: str) -> dict:
    """The experiment-wide settings of `keys`: the flags given, else ExperimentConfig's defaults."""
    return config_mod._build(dict, _flags(args, keys), keys, what, **{
        f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.name in keys})


def _load_graph_args(args) -> Graph:
    return load_graph(args.edges, labels_path=args.labels, features_path=args.features)


def save_split(split: SplitSpec, path) -> None:
    write_csv(path, ["vertex", "role"],
              ((int(v), role) for role in SPLIT_ROLES for v in getattr(split, role)))


# one field wider than the longest role: a longer role that np.loadtxt cuts to
# this width still matches no role
_SPLIT_ROW = np.dtype([("vertex", np.int64), ("role", f"U{max(map(len, SPLIT_ROLES)) + 1}")])


def load_split(path, n: int) -> SplitSpec:
    """Read a split file; every row is 'vertex,role', ids must lie in 0..n-1 and
    each vertex may appear in at most one role, once."""
    text = read_text(path)
    lines = text.split("\n")
    if next(csv.reader(lines[:1]), None) != ["vertex", "role"]:
        raise DataError(f"{path}: expected header 'vertex,role'")
    by_role = _split_by_loadtxt(text, lines)
    if by_role is None:
        by_role = _split_by_row(path, text)
    parts = [np.sort(check_vertex_ids(ids, n, f"{path}: {role}"))
             for role, ids in zip(SPLIT_ROLES, by_role)]
    every = np.sort(np.concatenate(parts))
    repeated = every[1:][every[1:] == every[:-1]]
    if repeated.size:
        raise DataError(f"{path}: vertex {repeated[0]} is listed more than once")
    return SplitSpec(*parts)


def _split_by_loadtxt(text: str, lines: list[str]) -> list[np.ndarray] | None:
    """The int64 vertex ids of each role, from guarded_loadtxt on the rows after
    the header; None if that rejects the rows, or if a role is unknown."""
    rows = guarded_loadtxt(text, lines, _SPLIT_ROW, delimiter=",", quotechar='"',
                           comments=None, skiprows=1, ndmin=1)
    if rows is None:
        return None
    is_role = [rows["role"] == role for role in SPLIT_ROLES]
    if not np.logical_or.reduce(is_role).all():
        return None
    return [rows["vertex"][mask] for mask in is_role]


def _split_by_row(path, text: str) -> list[list[str]]:
    """The vertex-id strings of each role, read from the file's contents `text`
    row by row with the csv module; raises DataError naming the first row that
    is not a 'vertex,role' pair with a known role. The slow path, taken only
    where the one-call parse rejects a row or might read an id differently from
    int()."""
    by_role = {role: [] for role in SPLIT_ROLES}
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise DataError(f"{path}:{reader.line_num}: expected 'vertex,role', "
                            f"got {len(row)} fields")
        if row[1] not in by_role:
            raise DataError(f"{path}: unknown split role {row[1]!r}")
        by_role[row[1]].append(row[0])
    return list(by_role.values())


def cmd_gen_graph(args) -> int:
    sbm = config_mod._build(SbmParams, _flags(args, config_mod._SBM), config_mod._SBM, "sbm")
    g = generate_sbm(**dataclasses.asdict(sbm))
    save_graph(g, args.out_edges, labels_path=args.out_labels)
    print(f"wrote {g.n} vertices, {g.num_edges} edges")
    return 0


def cmd_split(args) -> int:
    settings = _run_settings(args, _SPLIT, "split")
    split = uniform_split(_load_graph_args(args), **settings)
    save_split(split, args.out)
    print(f"split sizes: {[len(getattr(split, role)) for role in SPLIT_ROLES]}")
    return 0


def cmd_sample_shift(args) -> int:
    shift_cfg = config_mod._section(ShiftConfig, config_mod._SHIFT, "{kind} {key}")(
        _flags(args, _SAMPLE_SHIFT), "shift", None)
    run = _run_settings(args, _SEED, "sample-shift")
    g = _load_graph_args(args)
    if g.labels is None:
        raise DataError("shift sampling needs a labels file")
    pool = load_split(args.split, g.n).test
    samples = harness.draw_samples(shift_cfg, g, pool, g.labels[pool],
                                   num_classes=g.num_classes, **run)
    save_samples(samples, args.out)
    write_manifest(samples, args.manifest, args.out)
    print(f"wrote {len(samples)} samples")
    return 0


def cmd_classify(args) -> int:
    cfg = config_mod._section(ClassifierConfig, config_mod._CLASSIFIER, "{kind} {key}")(
        {**_flags(args, _CLASSIFY), "kind": args.variant.replace("-", "_")}, "classifier", None)
    g = _load_graph_args(args)
    if g.labels is None:
        raise DataError("classification needs a labels file")
    train = load_split(args.split, g.n).classifier_train
    preds = harness.fit_classifier(cfg, g, train, g.labels[train])
    save_predictions(preds, args.out)
    print(f"wrote predictions for {preds.n} vertices")
    return 0


def cmd_quantify(args) -> int:
    g = _load_graph_args(args)
    if g.labels is None:
        raise DataError("quantification needs a labels file")
    split = load_split(args.split, g.n)
    train = split.quantifier_train
    preds = load_predictions(args.preds, g.n, g.num_classes) if args.preds else None
    spec = parse_quantifier_spec(load_yaml(args.quantifier, "--quantifier") or {})
    if args.sample_index is not None:
        sections = load_sample_sections(args.test, g.n)
        if not 0 <= args.sample_index < len(sections):
            raise DataError(f"sample index {args.sample_index} out of range "
                            f"({len(sections)} samples in {args.test})")
        test_vertices = sections[args.sample_index][1]
    else:
        test_vertices = check_vertex_ids(read_text(args.test).split(),
                                         g.n, args.test, nonempty=True)
    est = quantify(spec, g, train, g.labels[train], test_vertices, preds)
    payload = {"quantifier": spec.name, "K": est.K,
               "prevalences": [float(x) for x in est.q],
               "flags": list(est.flags), "test_size": int(len(test_vertices))}
    out = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(out + "\n")
    else:
        print(out)
    return 0


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, output=args.out)
    rows = harness.run_experiment(cfg)
    print(f"wrote {len(rows)} result rows to {cfg.output}")
    return 0


def cmd_aggregate(args) -> int:
    rows = harness.read_results_csv(args.results)
    summary, avg_ranks = harness.aggregate(rows)
    harness.write_summary_csv(summary, args.out)
    ranks_out = args.ranks_out or str(Path(args.out).with_suffix("")) + "_ranks.csv"
    harness.write_ranks_csv(avg_ranks, ranks_out)
    print(f"wrote {len(summary)} summary rows to {args.out} and ranks to {ranks_out}")
    return 0


def _add_settings(p, keys: dict) -> None:
    """A flag for each config key of `keys` but kind and name, with no type or default."""
    for key in keys:
        if key not in ("kind", "name"):
            p.add_argument("--" + key.replace("_", "-"), dest=key)


def _add_graph_args(p):
    p.add_argument("--edges", required=True, help="edge file (one 'u v' per line)")
    p.add_argument("--labels", help="labels file (one integer per line)")
    p.add_argument("--features", help="features file (comma-separated rows)")


class _Parser(argparse.ArgumentParser):
    """Usage errors as ConfigError (exit 1): argparse's exit 2 means a data error here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not change it."""
    parser = _Parser(prog="graphquant", description="Graph quantification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a planted-partition graph")
    _add_settings(p, config_mod._SBM)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("split", help="uniform split into train/train/test")
    _add_graph_args(p)
    _add_settings(p, _SPLIT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("sample-shift", help="draw shifted test samples from the test partition")
    _add_graph_args(p)
    p.add_argument("--split", required=True)
    p.add_argument("--kind", choices=list(config_mod._SHIFT), required=True)
    _add_settings(p, {**_SAMPLE_SHIFT, **_SEED})
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_sample_shift)

    p = sub.add_parser("classify", help="run a built-in classifier, write predictions")
    _add_graph_args(p)
    p.add_argument("--split", required=True)
    p.add_argument("--variant", choices=["enq", "label-prop"], default="enq")
    _add_settings(p, _CLASSIFY)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("quantify", help="estimate prevalences of one test sample")
    _add_graph_args(p)
    p.add_argument("--split", required=True)
    p.add_argument("--preds", help="predictions file (not needed for mlpe)")
    p.add_argument("--quantifier", default="{base: acc}",
                   help="YAML quantifier spec, e.g. '{base: acc, nacc: true}'")
    p.add_argument("--test", required=True,
                   help="vertex-id file, or a samples file with --sample-index")
    p.add_argument("--sample-index", type=int, dest="sample_index")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_quantify)

    p = sub.add_parser("experiment", help="run a full experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the configured output CSV")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("aggregate", help="summarize a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ranks-out", dest="ranks_out")
    p.set_defaults(func=cmd_aggregate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: a missing file, a directory, no permission
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
