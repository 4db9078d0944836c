import csv
import dataclasses
import json

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from graphquant import cli, graph, harness
from graphquant.cli import SPLIT_ROLES, build_parser, load_split, main
from graphquant.config import parse_config
from graphquant.errors import ConfigError, DataError
from graphquant.graph import check_vertex_ids, load_graph
from graphquant.shift import SplitSpec

from test_graph import NEWLINES, outcome


def run(*argv):
    return main([str(a) for a in argv])


def load_split_by_row(path, n):
    """Row-by-row split parser, rows of other than two fields rejected: the
    oracle for load_split."""
    parts = {role: [] for role in SPLIT_ROLES}
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != ["vertex", "role"]:
            raise DataError(f"{path}: expected header 'vertex,role'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{path}:{reader.line_num}: expected 'vertex,role', "
                                f"got {len(row)} fields")
            vertex, role = row
            if role not in parts:
                raise DataError(f"{path}: unknown split role {role!r}")
            parts[role].append(vertex)
    roles = [np.sort(check_vertex_ids(parts[role], n, f"{path}: {role}")) for role in SPLIT_ROLES]
    every = np.sort(np.concatenate(roles))
    repeated = every[1:][every[1:] == every[:-1]]
    if repeated.size:
        raise DataError(f"{path}: vertex {repeated[0]} is listed more than once")
    return SplitSpec(*roles)


@st.composite
def split_file_lines(draw):
    """Split-file lines: a header that is sometimes missing, reordered or too
    long, then rows with in-range, out-of-range, negative, non-integer,
    20-digit and repeated ids, ids that np.loadtxt and int() parse differently,
    unknown roles, roles longer than the parser's fixed width, quoted fields,
    blank lines and rows of one or three fields."""
    header = draw(st.sampled_from(["vertex,role"] * 4 + ["role,vertex", "vertex", "",
                                                         "vertex,role,x", '"vertex","role"']))
    vertex = st.sampled_from(["0", "1", "3", "7", "9", "10", "-1", "x", "1.5", " 2", "07", "",
                              "12345678901234567890", "1\x1c", "1\u01fe", "\u0661"])
    role = st.sampled_from(list(SPLIT_ROLES) * 2 + ["train", "Test", "", "test ",
                                                     "classifier_trainX", "test" + "x" * 40])
    pair = st.tuples(vertex, role).map(",".join)
    quoted = st.tuples(vertex, role).map(lambda vr: f'"{vr[0]}","{vr[1]}"')
    odd = st.one_of(vertex, st.tuples(vertex, role, vertex).map(",".join))
    rows = st.lists(st.one_of(pair, pair, pair, pair, quoted, odd, st.sampled_from(["", " "])),
                    max_size=8)
    return [header] + draw(rows)


def make_graph_files(tmp_path, seed=0):
    edges = tmp_path / "g.edges"
    labels = tmp_path / "g.labels"
    code = run("gen-graph", "--blocks", "40,40,40", "--p-in", "0.25",
               "--p-out", "0.03", "--seed", seed, "--out-edges", edges,
               "--out-labels", labels)
    assert code == 0
    return edges, labels


class TestGenGraphAndSplit:
    def test_gen_graph_writes_loadable_files(self, tmp_path):
        edges, labels = make_graph_files(tmp_path)
        g = load_graph(edges, labels_path=labels)
        assert g.n == 120
        assert g.num_classes == 3

    def test_split_roles_partition_vertices(self, tmp_path):
        edges, labels = make_graph_files(tmp_path)
        out = tmp_path / "split.csv"
        assert run("split", "--edges", edges, "--labels", labels,
                   "--fractions", "0.1,0.3,0.6", "--seed", 7, "--out", out) == 0
        split = load_split(out, 120)
        assert len(split.classifier_train) == 12
        assert len(split.quantifier_train) == 36
        assert len(split.test) == 72


class TestSampleShift:
    def test_writes_samples_and_manifest(self, tmp_path):
        edges, labels = make_graph_files(tmp_path)
        split = tmp_path / "split.csv"
        run("split", "--edges", edges, "--labels", labels, "--out", split)
        out = tmp_path / "samples.txt"
        manifest = tmp_path / "manifest.csv"
        code = run("sample-shift", "--edges", edges, "--labels", labels,
                   "--split", split, "--kind", "pps", "--n", 20,
                   "--num-dists", 5, "--seed", 1, "--out", out, "--manifest", manifest)
        assert code == 0
        assert len(manifest.read_text().strip().splitlines()) == 6
        assert out.exists()


class TestClassify:
    def test_enq_predictions_file(self, tmp_path):
        edges, labels = make_graph_files(tmp_path)
        split = tmp_path / "split.csv"
        run("split", "--edges", edges, "--labels", labels,
            "--fractions", "0.3,0.3,0.4", "--out", split)
        preds = tmp_path / "preds.csv"
        assert run("classify", "--edges", edges, "--labels", labels,
                   "--split", split, "--variant", "enq", "--out", preds) == 0
        assert len(preds.read_text().strip().splitlines()) == 120

    def test_label_prop_variant(self, tmp_path):
        edges, labels = make_graph_files(tmp_path)
        split = tmp_path / "split.csv"
        run("split", "--edges", edges, "--labels", labels, "--out", split)
        preds = tmp_path / "preds.csv"
        assert run("classify", "--edges", edges, "--labels", labels, "--split", split,
                   "--variant", "label-prop", "--iterations", 10, "--out", preds) == 0


class TestQuantify:
    def test_prevalence_json_from_id_file(self, tmp_path):
        edges, labels = make_graph_files(tmp_path)
        split = tmp_path / "split.csv"
        run("split", "--edges", edges, "--labels", labels,
            "--fractions", "0.3,0.3,0.4", "--out", split)
        preds = tmp_path / "preds.csv"
        run("classify", "--edges", edges, "--labels", labels, "--split", split,
            "--variant", "enq", "--out", preds)
        test_ids = tmp_path / "test.txt"
        test_ids.write_text("".join(f"{v}\n" for v in range(80, 120)))
        out = tmp_path / "prev.json"
        code = run("quantify", "--edges", edges, "--labels", labels, "--split", split,
                   "--preds", preds, "--quantifier", "{base: acc, nacc: true}",
                   "--test", test_ids, "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["quantifier"] == "acc+nacc"
        assert len(payload["prevalences"]) == 3
        assert abs(sum(payload["prevalences"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("quantifier,message", [
        ("{base: acc, nac: true}", "unknown key 'nac'"),
        ("{base: acc, kernel_q: {kind: ppr, mode: dense}}", "unknown key 'mode'"),
        ("{base: acc", "invalid YAML"),
        ("acc", "must be a mapping"),
        # both exited 2 after building the hop block, as if the data were at fault
        ("{base: acc, kernel_q: {kind: sp, gamma: .nan}}", "sp gamma must be in (0, inf)"),
        ("{base: acc, kernel_q: {kind: sp, gamma: .inf}}", "sp gamma must be in (0, inf)"),
        # exited 3 with OverflowError
        pytest.param("{base: acc, kernel_q: {kind: sp, gamma: 1%s}}" % ("0" * 400),
                     "expected a number that a float holds", id="sp-gamma-10**400"),
    ])
    def test_bad_quantifier_spec_is_config_error(self, tmp_path, quantifier, message, capsys):
        edges, labels = make_graph_files(tmp_path)
        split = tmp_path / "split.csv"
        run("split", "--edges", edges, "--labels", labels,
            "--fractions", "0.3,0.3,0.4", "--out", split)
        preds = tmp_path / "preds.csv"
        run("classify", "--edges", edges, "--labels", labels, "--split", split,
            "--variant", "enq", "--out", preds)
        test_ids = tmp_path / "test.txt"
        test_ids.write_text("".join(f"{v}\n" for v in range(80, 120)))
        code = run("quantify", "--edges", edges, "--labels", labels, "--split", split,
                   "--preds", preds, "--quantifier", quantifier, "--test", test_ids,
                   "--out", tmp_path / "prev.json")
        assert code == 1
        assert message in capsys.readouterr().err

    def test_sample_index_input(self, tmp_path):
        edges, labels = make_graph_files(tmp_path)
        split = tmp_path / "split.csv"
        run("split", "--edges", edges, "--labels", labels, "--out", split)
        samples = tmp_path / "samples.txt"
        run("sample-shift", "--edges", edges, "--labels", labels, "--split", split,
            "--kind", "rw", "--n", 15, "--seeds-per-label", 1,
            "--out", samples, "--manifest", tmp_path / "m.csv")
        out = tmp_path / "prev.json"
        code = run("quantify", "--edges", edges, "--labels", labels, "--split", split,
                   "--quantifier", "{base: mlpe}", "--test", samples,
                   "--sample-index", 0, "--out", out)
        assert code == 0
        assert json.loads(out.read_text())["quantifier"] == "mlpe"

    def test_missing_sample_index_is_data_error(self, tmp_path):
        edges, labels = make_graph_files(tmp_path)
        split = tmp_path / "split.csv"
        run("split", "--edges", edges, "--labels", labels, "--out", split)
        samples = tmp_path / "samples.txt"
        run("sample-shift", "--edges", edges, "--labels", labels, "--split", split,
            "--kind", "rw", "--n", 10, "--seeds-per-label", 1,
            "--out", samples, "--manifest", tmp_path / "m.csv")
        assert run("quantify", "--edges", edges, "--labels", labels, "--split", split,
                   "--quantifier", "{base: mlpe}", "--test", samples,
                   "--sample-index", 99) == 2


class TestVertexIdFiles:
    def quantify_files(self, tmp_path):
        """A 60-vertex graph with split and predictions files."""
        edges, labels = tmp_path / "g.edges", tmp_path / "g.labels"
        assert run("gen-graph", "--blocks", "30,30", "--p-in", "0.3", "--p-out", "0.05",
                   "--out-edges", edges, "--out-labels", labels) == 0
        split, preds = tmp_path / "split.csv", tmp_path / "preds.csv"
        run("split", "--edges", edges, "--labels", labels, "--out", split)
        run("classify", "--edges", edges, "--labels", labels, "--split", split,
            "--out", preds)
        return ["--edges", edges, "--labels", labels, "--split", split, "--preds", preds]

    # each of these exited 3 (99, abc) or 0 with wrapped ids (-1) before
    @pytest.mark.parametrize("content", ["99\n", "abc\n", "-1\n", "\n"])
    def test_bad_test_file_is_data_error(self, tmp_path, content, capsys):
        args = self.quantify_files(tmp_path)
        test_ids = tmp_path / "test.txt"
        test_ids.write_text(content)
        assert run("quantify", *args, "--test", test_ids) == 2
        assert "data error" in capsys.readouterr().err

    def test_sample_section_out_of_range(self, tmp_path):
        args = self.quantify_files(tmp_path)
        samples = tmp_path / "samples.txt"
        samples.write_text("sampler=pps,seed=0,n=2,flagged=0\n3\n60\n")
        assert run("quantify", *args, "--test", samples, "--sample-index", 0) == 2

    @pytest.mark.parametrize("rows", [["3,test", "-1,test"], ["3,test", "70,classifier_train"],
                                      ["3,test", "3,quantifier_train"], ["3,test", "3,test"],
                                      ["x,test"]])
    def test_load_split_rejects(self, tmp_path, rows):
        path = tmp_path / "split.csv"
        path.write_text("vertex,role\n" + "".join(r + "\n" for r in rows))
        with pytest.raises(DataError):
            load_split(path, n=60)

    @pytest.mark.parametrize("row,fields", [("5,test,junk", 3), ("5", 1)])
    def test_split_row_of_other_than_two_fields_rejected(self, tmp_path, row, fields):
        # the first was accepted, the extra field dropped; the second was reported
        # only as "unknown split role None"
        path = tmp_path / "split.csv"
        path.write_text(f"vertex,role\n3,test\n{row}\n")
        with pytest.raises(DataError, match=rf"split.csv:3: expected 'vertex,role', "
                                            rf"got {fields} fields"):
            load_split(path, n=60)

    @settings(max_examples=300, deadline=None)
    @given(lines=split_file_lines(), newline=NEWLINES)
    def test_load_split_accepts_and_rejects_like_row_oracle(self, tmp_path_factory, lines,
                                                            newline):
        path = tmp_path_factory.mktemp("split") / "split.csv"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        got, want = outcome(load_split, path, 10), outcome(load_split_by_row, path, 10)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, SplitSpec), got
            for a, b in zip((got.classifier_train, got.quantifier_train, got.test),
                            (want.classifier_train, want.quantifier_train, want.test)):
                assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)

    @pytest.mark.parametrize("row,message", [
        ("3,classifier_trainX", "unknown split role 'classifier_trainX'"),
        ("3,test" + "x" * 40, "unknown split role 'test" + "x" * 40 + "'"),
        ("12345678901234567890,test", "test: non-integer vertex id"),
    ])
    def test_field_past_parse_width_rejected_like_row_oracle(self, tmp_path, row, message):
        # the one-call parse reads roles into a fixed width and ids as int64; a
        # longer role or id must not be cut to fit
        path = tmp_path / "split.csv"
        path.write_text(f"vertex,role\n5,classifier_train\n{row}\n")
        got = outcome(load_split, path, 60)
        assert got == outcome(load_split_by_row, path, 60)
        assert message in got

    def test_vertex_ids_parsed_as_int_does(self, tmp_path):
        # np.loadtxt skips \x1c-\x1f as blanks and reads '1\u01fe' as 472, where
        # int() rejects both; every ASCII character, beside a digit or alone
        path = tmp_path / "split.csv"
        chars = [chr(c) for c in range(1, 128) if chr(c) not in '\n\r,"'] + ["\u01fe", "\u0661"]
        for c in chars:
            for vertex in (c, "1" + c, c + "1", "1" + c + "1"):
                path.write_text(f"vertex,role\n{vertex},test\n", encoding="utf-8")
                got, want = outcome(load_split, path, 2000), outcome(load_split_by_row, path, 2000)
                if isinstance(want, str):
                    assert got == want, repr(vertex)
                else:
                    assert np.array_equal(got.test, want.test), repr(vertex)

    def test_split_file_out_of_range_exits_2(self, tmp_path):
        args = self.quantify_files(tmp_path)
        split = args[args.index("--split") + 1]
        split.write_text(split.read_text() + "99,test\n")
        test_ids = tmp_path / "test.txt"
        test_ids.write_text("1\n2\n")
        assert run("quantify", *args, "--test", test_ids) == 2


class TestExperimentAndAggregate:
    def write_config(self, tmp_path):
        cfg = {
            "dataset": {"name": "sbm-demo",
                        "sbm": {"blocks": [50, 50], "p_in": 0.2, "p_out": 0.02, "seed": 5}},
            "split": {"fractions": [0.1, 0.3, 0.6]},
            "classifiers": [{"name": "enq", "kind": "enq"}],
            "quantifiers": [{"name": "cc", "base": "cc"},
                            {"name": "acc", "base": "acc"}],
            "shifts": [{"name": "pps", "kind": "pps", "n": 20, "num_dists": 3}],
            "repetitions": 1,
            "seed": 2,
            "output": "results.csv",
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return path

    def test_full_pipeline(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert run("experiment", "--config", cfg) == 0
        results = tmp_path / "results.csv"
        assert results.exists()
        summary = tmp_path / "summary.csv"
        assert run("aggregate", "--results", results, "--out", summary) == 0
        lines = summary.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 quantifiers
        assert (tmp_path / "summary_ranks.csv").exists()

    def test_aggregate_does_not_load_scipy_special(self, tmp_path, fresh_python):
        results = tmp_path / "results.csv"
        with open(results, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(harness.RESULT_FIELDS)
            # both quantifiers' errors spread, so the Welch t and its tail are finite
            for i, (cc, acc) in enumerate([(0.30, 0.10), (0.20, 0.15), (0.35, 0.05)]):
                writer.writerow(["d", "pps", "enq", "cc", 0, i, 20, cc, cc, ""])
                writer.writerow(["d", "pps", "enq", "acc", 0, i, 20, acc, acc, ""])
        script = (
            "import sys\n"
            "from graphquant.cli import main\n"
            f"assert main(['aggregate', '--results', {str(results)!r}, "
            f"'--out', {str(tmp_path / 'summary.csv')!r}]) == 0\n"
            "print('scipy.special' in sys.modules)\n"
            "import scipy.special\n"
            "print('scipy.special' in sys.modules)\n")
        out = fresh_python(script)
        # the last line reads True, which shows the check can see the module
        assert out[-2:] == ["False", "True"]

    def test_output_override(self, tmp_path):
        cfg = self.write_config(tmp_path)
        other = tmp_path / "other.csv"
        assert run("experiment", "--config", cfg, "--out", other) == 0
        assert other.exists()

    @pytest.mark.parametrize("row,message", [
        ("d,pps,enq,cc,0,0", "expected 10 fields, got 6"),
        ("d,pps,enq,cc,0,0,20,0.1", "expected 10 fields, got 8"),
        ("d,pps,enq,cc,0,0,20,0.1,0.2,,x", "expected 10 fields, got 11"),
        ("d,pps,enq,cc,0.5,0,20,0.1,0.2,", "invalid literal for int() with base 10: '0.5'"),
        ("d,pps,enq,cc,0,x,20,0.1,0.2,", "invalid literal for int() with base 10: 'x'"),
        ("d,pps,enq,cc,0,0,20,abc,0.2,", "could not convert string to float: 'abc'"),
        ("d,pps,enq,cc,0,0,20,nan,0.2,", "expected a finite non-negative error, got 'nan'"),
        ("d,pps,enq,cc,0,0,20,0.1,inf,", "expected a finite non-negative error, got 'inf'"),
        ("d,pps,enq,cc,0,0,20,0.1,-0.2,", "expected a finite non-negative error, got '-0.2'"),
    ])
    def test_malformed_results_row_is_two_naming_the_line(self, tmp_path, capsys, row, message):
        # the short row of 6 fields and the unreadable cells exited 3 (TypeError,
        # ValueError); the other rows were summarized without a word: a row of 8
        # fields as unscored, one of 11 without its last cell, and the errors as
        # given, NaN summaries included
        results = tmp_path / "results.csv"
        results.write_text(",".join(harness.RESULT_FIELDS) + "\n"
                           + "d,pps,enq,cc,0,0,20,0.1,0.2,\n\n" + row + "\n")
        assert run("aggregate", "--results", results, "--out", tmp_path / "summary.csv") == 2
        err = capsys.readouterr().err
        assert f"{results}:4: " in err and message in err
        assert not (tmp_path / "summary.csv").exists()

    def test_internal_error_in_quantifier_is_three(self, tmp_path, monkeypatch):
        def buggy(*args, **kwargs):
            raise RuntimeError("bug")
        monkeypatch.setattr(harness, "quantify_batch", buggy)
        assert run("experiment", "--config", self.write_config(tmp_path)) == 3


class TestParser:
    def test_built_once_and_unchanged_by_parsing(self, tmp_path, capsys):
        parser = build_parser()
        assert build_parser() is parser
        out = tmp_path / "split.csv"
        edges, labels = make_graph_files(tmp_path)
        first = parser.parse_args(["split", "--edges", str(edges), "--out", str(out),
                                   "--seed", "3"])
        second = parser.parse_args(["split", "--edges", str(edges), "--out", str(out)])
        # a flag stays text until config reads it; one not given is None, so the
        # dataclass default applies
        assert first.seed == "3" and second.seed is None and second.labels is None
        assert run("split", "--edges", edges, "--labels", labels, "--out", out) == 0


class _Captured(Exception):
    pass


def capture(record):
    """A stand-in for the function a command passes its settings to: records its
    arguments, then stops the command."""
    def stop(*args, **kwargs):
        record.append((args, kwargs))
        raise _Captured
    return stop


# Flag values and their YAML twins: integers (some past a float's precision),
# whole and other floats, infinities and text that no number parser reads.
SCALARS = st.one_of(st.integers(-3, 60), st.integers(2 ** 53, 2 ** 70),
                    st.integers(0, 60).map(float), st.floats(-1e3, 1e3),
                    st.floats(allow_nan=False), st.sampled_from(["abc", "x1", "true"]))
SEEDS = st.one_of(st.integers(0, 2 ** 70), st.integers(0, 60).map(float),
                  st.floats(0, 1e3), st.sampled_from(["abc"]))


def flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(flag_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def some_of(keys: dict):
    """Settings: a value for each of some of `keys` (key -> strategy)."""
    return st.fixed_dictionaries({}, optional=keys)


SETTINGS = {
    "gen-graph": some_of({"blocks": st.lists(SCALARS, min_size=1, max_size=3),
                          "p_in": SCALARS, "p_out": SCALARS,
                          "block_labels": st.lists(SCALARS, min_size=1, max_size=3),
                          "seed": SCALARS}),
    "split": some_of({"fractions": st.lists(SCALARS, min_size=3, max_size=3), "seed": SEEDS}),
    "sample-shift": st.tuples(st.sampled_from(["pps", "bfs", "rw"]), some_of(
        {key: SCALARS for key in ["n", "num_dists", "zipf_exponent", "seeds_per_label",
                                  "walk_len", "alpha"]}), some_of({"seed": SEEDS})),
    "classify": st.tuples(st.sampled_from(["enq", "label_prop"]),
                          some_of({"iterations": SCALARS, "damping": SCALARS})),
}


@pytest.fixture(scope="module")
def graph_and_split(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("flags")
    edges, labels = make_graph_files(tmp_path)
    assert run("split", "--edges", edges, "--labels", labels, "--out", tmp_path / "s.csv") == 0
    return ["--edges", edges, "--labels", labels, "--split", tmp_path / "s.csv"]


class TestFlagsAreConfigKeys:
    """Each settings flag is a config key: the same settings given as flags and as
    YAML give equal config objects, or a configuration error both ways."""

    def from_flags(self, command, settings, files):
        """The settings object `command` builds from `settings` as flags."""
        record = []
        if command == "sample-shift":
            (kind, shift, seed), target = settings, (harness, "draw_samples")
            argv = ["--kind", kind, *files, "--out", "o", "--manifest", "m"]
            settings = {**shift, **seed}
        elif command == "classify":
            (kind, settings), target = settings, (harness, "fit_classifier")
            argv = ["--variant", kind.replace("_", "-"), *files, "--out", "o"]
        elif command == "split":
            target, argv = (cli, "uniform_split"), [*files[:4], "--out", "o"]
        else:
            target, argv = (cli, "generate_sbm"), ["--out-edges", "e", "--out-labels", "y"]
        argv += [f"--{key.replace('_', '-')}={flag_text(value)}"
                 for key, value in settings.items()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(*target, capture(record))
            code = run(command, *argv)
        if not record:
            assert code == 1
            return ConfigError
        args, kwargs = record[0]
        if command == "sample-shift":
            return args[0], kwargs["seed"]
        return args[0] if command == "classify" else kwargs

    def from_yaml(self, command, settings):
        """The same settings object from a config whose other sections are fixed."""
        cfg = {"dataset": {"sbm": {"blocks": [4], "p_in": 0.5, "p_out": 0.1}},
               "classifiers": [{"kind": "enq"}], "quantifiers": [{"base": "cc"}],
               "shifts": [{"kind": "pps"}]}
        if command == "gen-graph":
            cfg["dataset"]["sbm"] = settings
        elif command == "split":
            cfg.update({key: value for key, value in settings.items() if key == "seed"})
            if "fractions" in settings:
                cfg["split"] = {"fractions": settings["fractions"]}
        elif command == "sample-shift":
            kind, shift, seed = settings
            cfg.update(shifts=[{"kind": kind, **shift}], **seed)
        else:
            kind, classifier = settings
            cfg["classifiers"] = [{"kind": kind, **classifier}]
        try:
            parsed = parse_config(yaml.safe_load(yaml.safe_dump(cfg)))
        except ConfigError:
            return ConfigError
        if command == "gen-graph":
            return dataclasses.asdict(parsed.dataset.sbm)
        if command == "split":
            return {"fractions": parsed.fractions, "seed": parsed.seed}
        if command == "sample-shift":
            return parsed.shifts[0], parsed.seed
        return parsed.classifiers[0]

    @pytest.mark.parametrize("command", list(SETTINGS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_flags_and_yaml_agree(self, command, graph_and_split, data):
        settings_ = data.draw(SETTINGS[command])
        assert self.from_flags(command, settings_, graph_and_split) \
            == self.from_yaml(command, settings_)

    def test_large_integer_is_not_rounded(self, graph_and_split):
        record = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "draw_samples", capture(record))
            run("sample-shift", "--kind", "bfs", *graph_and_split, "--n", 2 ** 60 + 1,
                "--seed", 2 ** 64 + 1, "--out", "o", "--manifest", "m")
        (shift, *_), kwargs = record[0]
        assert shift.n == 2 ** 60 + 1 and kwargs["seed"] == 2 ** 64 + 1

    @pytest.mark.parametrize("argv,message", [
        # the first two exited 0, the flags of another kind ignored
        (["sample-shift", "--kind", "pps", "--walk-len", 99, "--alpha", 5, "--manifest", "m"],
         "unknown key 'alpha' in pps shift"),
        (["classify", "--variant", "enq", "--damping", 5, "--iterations", 3],
         "unknown key 'damping' in enq classifier"),
        (["sample-shift", "--kind", "bfs", "--zipf-exponent", 2, "--manifest", "m"],
         "unknown key 'zipf_exponent' in bfs shift"),
        (["sample-shift", "--kind", "rw", "--num-dists", 2, "--manifest", "m"],
         "unknown key 'num_dists' in rw shift"),
    ])
    def test_flag_of_another_kind_is_one_naming_key_and_kind(self, graph_and_split, argv,
                                                              message, capsys):
        assert run(*argv, *graph_and_split, "--out", "o") == 1
        assert message in capsys.readouterr().err

    def test_whole_float_seed_reads_as_the_integer(self, tmp_path):
        # --seed 1.0 was a usage error, while a config's seed: 1.0 reads 1
        outputs = []
        for seed in ("1", "1.0"):
            edges, labels = tmp_path / f"{seed}.edges", tmp_path / f"{seed}.labels"
            assert run("gen-graph", "--blocks", "20,20", "--p-in", "0.3", "--p-out", "0.05",
                       "--seed", seed, "--out-edges", edges, "--out-labels", labels) == 0
            outputs.append((edges.read_bytes(), labels.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_names_perfbench_imports_stay(self):
        # the benchmark builds its split files with these
        from graphquant.cli import DEFAULT_FRACTIONS, save_split
        assert DEFAULT_FRACTIONS == (0.05, 0.15, 0.80) and callable(save_split)


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("dataset: {name: x}\nclassifiers: []\nquantifiers: []\nshifts: []\n")
        assert run("experiment", "--config", bad) == 1

    def test_data_error_is_two(self, tmp_path):
        edges = tmp_path / "broken.edges"
        edges.write_text("0 not-a-vertex\n")
        assert run("split", "--edges", edges, "--out", tmp_path / "s.csv") == 2

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["split"], ["split", "--edges", "e",
                                                                  "--out", "s", "--bogus"]])
    def test_usage_error_is_one(self, argv, capsys):
        # no subcommand, an unknown one, a missing or unknown flag: argparse exited 2
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: graphquant") and "configuration error: " in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--help"])
        assert exc.value.code == 0 and "--edges" in capsys.readouterr().out

    def test_vertex_id_past_the_vertex_limit_is_two(self, tmp_path, capsys):
        # without a labels file n is the largest id + 1: this exited 3 with
        # "MemoryError: Unable to allocate 7.28 TiB"
        edges = tmp_path / "huge.edges"
        edges.write_text("0 1\n1000000000000 2\n")
        assert run("split", "--edges", edges, "--out", tmp_path / "s.csv") == 2
        assert "vertex limit of 2**31" in capsys.readouterr().err

    def test_vertex_index_past_free_memory_is_two(self, tmp_path, capsys, monkeypatch):
        # an id near 2*10**9, under the vertex limit, without a labels file: the
        # indptr of about 16 GB was allocated first
        monkeypatch.setattr(graph, "available_memory", lambda: 4 * 2 ** 30)
        edges = tmp_path / "near.edges"
        edges.write_text("0 1\n2000000000 2\n")
        assert run("split", "--edges", edges, "--out", tmp_path / "s.csv") == 2
        assert "more than the 4.0 GiB of free memory" in capsys.readouterr().err

    def test_missing_file_is_two(self, tmp_path):
        assert run("split", "--edges", tmp_path / "nope.edges",
                   "--out", tmp_path / "s.csv") == 2

    def test_label_misread_by_loadtxt_is_two(self, tmp_path):
        edges, labels = make_graph_files(tmp_path)
        lines = labels.read_text().split("\n")
        lines[1] = "1\u01fe"  # np.loadtxt reads 472
        labels.write_text("\n".join(lines), encoding="utf-8")
        assert run("split", "--edges", edges, "--labels", labels, "--out", tmp_path / "s.csv") == 2

    @pytest.mark.parametrize("command,args", [
        ("gen-graph", ["--blocks", "10,x"]),
        ("gen-graph", ["--blocks", "10,10", "--block-labels", "0,y"]),
        ("gen-graph", ["--blocks", ","]),
        ("split", ["--fractions", "0.1,abc,0.5"]),
        ("split", ["--fractions", "nan,0.5,0.5"]),
        ("sample-shift", ["--kind", "rw", "--walk-len", "0"]),
        ("sample-shift", ["--kind", "bfs", "--n", "0"]),
        ("sample-shift", ["--kind", "pps", "--num-dists", "-2"]),
        ("experiment", {"sbm": {"blocks": [30, "x"]}}),
        ("experiment", {"sbm": {"blocks": [-5, 30]}}),
        ("experiment", {"shifts": [{"kind": "pps", "n": "abc"}]}),
        ("experiment", {"shifts": [{"kind": "rw", "walk_len": 0}]}),
        ("gen-graph", ["--blocks", "10,10", "--seed", "-1"]),
        ("split", ["--seed", "-1"]),
        ("sample-shift", ["--kind", "pps", "--seed", "-1"]),
        ("experiment", {"seed": -1}),
        ("experiment", {"sbm": {"seed": -1}}),
        ("sample-shift", ["--kind", "pps", "--zipf-exponent", "nan"]),
        ("sample-shift", ["--kind", "pps", "--zipf-exponent=-inf"]),
        ("experiment", {"shifts": [{"kind": "pps", "n": 5, "zipf_exponent": float("nan")}]}),
        ("experiment", {"shifts": [{"kind": "pps", "n": 5, "zipf_exponent": -float("inf")}]}),
        ("split", ["--seed", "abc"]),
        ("sample-shift", ["--kind", "pps", "--n", "2.5"]),
    ])
    def test_bad_numbers_are_config_errors(self, tmp_path, command, args):
        # each used to exit 3 (internal error), hang, or exit 0 or 2 with a wrong result;
        # a negative seed and a NaN or -inf Zipf exponent exited 3, and a flag argparse
        # rejects (the last two) exited 2, the code of a data error
        if command == "gen-graph":
            args = args + ["--p-in", "0.3", "--p-out", "0.05", "--out-edges", tmp_path / "e",
                           "--out-labels", tmp_path / "y"]
        elif command == "experiment":
            cfg = {"dataset": {"sbm": {"blocks": [30, 30], "p_in": 0.2, "p_out": 0.02,
                                       **args.get("sbm", {})}},
                   "classifiers": [{"kind": "enq"}], "quantifiers": [{"base": "cc"}],
                   "shifts": args.get("shifts", [{"kind": "pps", "n": 5}]),
                   "output": str(tmp_path / "results.csv"), "seed": args.get("seed", 0)}
            (tmp_path / "config.yaml").write_text(yaml.safe_dump(cfg))
            args = ["--config", tmp_path / "config.yaml"]
        else:
            edges, labels = make_graph_files(tmp_path)
            args = args + ["--edges", edges, "--labels", labels]
            if command == "sample-shift":
                run("split", "--edges", edges, "--labels", labels, "--out", tmp_path / "s.csv")
                args += ["--split", tmp_path / "s.csv", "--manifest", tmp_path / "m.csv"]
            args += ["--out", tmp_path / "out"]
        assert run(command, *args) == 1

    @pytest.mark.parametrize("change,key", [
        ({"shifts": [{"kind": "pps", "n": 10.9}]}, "n in shift #0"),
        ({"repetitions": 2.5}, "repetitions in config"),
        ({"seed": 7.9}, "seed in config"),
        ({"sbm": {"blocks": [30.7, 30]}}, "blocks[0] in sbm"),
        ({"sbm": {"block_labels": [0.5, 1]}}, "block_labels[0] in sbm"),
        ({"sbm": {"block_labels": [0, "a"]}}, "block_labels[1] in sbm"),
        ({"sbm": {"block_labels": [0, -1]}}, "block_labels"),
        ({"sbm": {"p_in": True}}, "p_in in sbm"),
        ({"quantifiers": [{"base": "acc", "nacc": "false"}]}, "nacc in quantifier spec"),
        ({"quantifiers": [{"base": "acc", "probabilistic": "no"}]},
         "probabilistic in quantifier spec"),
        ({"quantifiers": [{"base": "acc", "kernel_q": {"kind": "ppr", "walk_len": 2.5}}]},
         "walk_len in ppr kernel spec"),
        ({"classifiers": 5}, "classifiers in config"),
        ({"shifts": 5}, "shifts in config"),
        ({"classifiers": [{"kind": "label_prop", "iterations": -1}]}, "iterations"),
        ({"classifiers": [{"kind": "label_prop", "damping": 1.5}]}, "damping"),
        # exited 0 with every row flagged error:DataError
        ({"quantifiers": [{"base": "acc", "kernel_q": {"kind": "sp", "gamma": float("nan")}}]},
         "sp gamma"),
        # exited 3 with OverflowError
        ({"quantifiers": [{"base": "acc", "kernel_q": {"kind": "sp", "gamma": 10 ** 400}}]},
         "gamma in sp kernel spec"),
        # accepted, then ignored: keys of another kind
        ({"shifts": [{"kind": "pps", "n": 5, "walk_len": 99}]}, "walk_len' in shift #0"),
        ({"classifiers": [{"kind": "enq", "damping": 0.3}]}, "damping' in classifier #0"),
    ])
    def test_setting_of_wrong_type_or_range_is_one_naming_the_key(self, tmp_path, capsys,
                                                                 change, key):
        # the first ten ran with a truncated or flipped setting (a block label of -1
        # exited 2, of "a" 3), and a negative iteration count exited 2
        cfg = {"dataset": {"sbm": {"blocks": [30, 30], "p_in": 0.2, "p_out": 0.02}},
               "classifiers": [{"kind": "enq"}], "quantifiers": [{"base": "acc"}],
               "shifts": [{"kind": "pps", "n": 5}], "output": str(tmp_path / "results.csv")}
        cfg["dataset"]["sbm"].update(change.pop("sbm", {}))
        cfg.update(change)
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(cfg))
        assert run("experiment", "--config", tmp_path / "config.yaml") == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("setting", [["--iterations", -1], ["--damping", 1.5]])
    def test_label_prop_setting_out_of_range_is_one(self, tmp_path, setting, capsys):
        # each exited 2, as if the data were at fault
        edges, labels = make_graph_files(tmp_path)
        assert run("split", "--edges", edges, "--labels", labels, "--out", tmp_path / "s.csv") == 0
        assert run("classify", "--edges", edges, "--labels", labels, "--split", tmp_path / "s.csv",
                   "--variant", "label-prop", *setting, "--out", tmp_path / "p.csv") == 1
        assert setting[0][2:] in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["edges", "labels", "features", "split", "preds",
                                      "samples", "test ids", "results"])
    def test_file_that_is_not_utf8_is_two(self, tmp_path, kind, capsys):
        # each used to exit 3 with "internal error: UnicodeDecodeError"
        edges, labels = make_graph_files(tmp_path)
        split, preds = tmp_path / "s.csv", tmp_path / "p.csv"
        samples, ids = tmp_path / "samples.txt", tmp_path / "ids.txt"
        results = tmp_path / "results.csv"
        features = tmp_path / "g.features"
        features.write_text("0.5\n" * 120)
        assert run("split", "--edges", edges, "--labels", labels, "--out", split) == 0
        assert run("classify", "--edges", edges, "--labels", labels, "--split", split,
                   "--out", preds) == 0
        assert run("sample-shift", "--edges", edges, "--labels", labels, "--split", split,
                   "--kind", "pps", "--n", 10, "--num-dists", 1, "--out", samples,
                   "--manifest", tmp_path / "m.csv") == 0
        ids.write_text("0\n1\n")
        results.write_text(",".join(harness.RESULT_FIELDS) + "\n")
        bad = {"edges": edges, "labels": labels, "features": features, "split": split,
               "preds": preds, "samples": samples, "test ids": ids, "results": results}[kind]
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        graph = ["--edges", edges, "--labels", labels]
        quantify = ["quantify", *graph, "--split", split, "--preds", preds]
        argv = {"edges": ["split", *graph, "--out", tmp_path / "s2.csv"],
                "labels": ["split", *graph, "--out", tmp_path / "s2.csv"],
                "features": ["split", *graph, "--features", features, "--out", tmp_path / "s2.csv"],
                "split": ["classify", *graph, "--split", split, "--out", tmp_path / "p2.csv"],
                "preds": quantify + ["--test", ids],
                "samples": quantify + ["--test", samples, "--sample-index", 0],
                "test ids": quantify + ["--test", ids],
                "results": ["aggregate", "--results", results, "--out", tmp_path / "sum.csv"]}
        capsys.readouterr()
        assert run(*argv[kind]) == 2
        assert f"{bad}: not UTF-8" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_one(self, tmp_path, capsys):
        # used to exit 3 with "internal error: UnicodeDecodeError"
        config = tmp_path / "config.yaml"
        config.write_bytes(b"dataset: {name: x}\n\xff\n")
        assert run("experiment", "--config", config) == 1
        assert f"{config}: not UTF-8 text (byte 0xff at offset 19)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment --config", "split --edges",
                                         "split --out", "quantify --test"])
    def test_directory_as_path_is_two(self, tmp_path, command, capsys):
        # each used to exit 3 with "internal error: IsADirectoryError"
        edges, labels = make_graph_files(tmp_path)
        split, preds = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run("split", "--edges", edges, "--labels", labels, "--out", split) == 0
        assert run("classify", "--edges", edges, "--labels", labels, "--split", split,
                   "--out", preds) == 0
        graph = ["--edges", edges, "--labels", labels]
        argv = {"experiment --config": ["experiment", "--config", tmp_path],
                "split --edges": ["split", "--edges", tmp_path, "--labels", labels,
                                  "--out", tmp_path / "s2.csv"],
                "split --out": ["split", *graph, "--out", tmp_path],
                "quantify --test": ["quantify", *graph, "--split", split, "--preds", preds,
                                    "--test", tmp_path]}[command]
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("data error: ")
