import ast
import re
from pathlib import Path

import pytest
import yaml

from graphquant.config import load_yaml, parse_config, parse_kernel_spec, parse_quantifier_spec
from graphquant.errors import ConfigError
from graphquant.kernels import KernelSpec
from graphquant.quantifiers import QuantifierSpec


class TestKernelSpecParsing:
    def test_known_keys(self):
        assert parse_kernel_spec({"kind": "ppr", "alpha": 0.2, "walk_len": 4, "interp": 0.5}) \
            == KernelSpec.ppr(alpha=0.2, walk_len=4, interp=0.5)
        assert parse_kernel_spec({"kind": "sp", "gamma": 50}) == KernelSpec.shortest_path(50.0)
        assert parse_kernel_spec("feature") == KernelSpec.feature()
        assert parse_kernel_spec({"kind": "constant"}) == KernelSpec.constant()

    def test_missing_keys_take_the_kernel_defaults_and_checks(self):
        assert parse_kernel_spec({"kind": "ppr", "walk_len": 4}) == KernelSpec.ppr(walk_len=4)
        assert parse_kernel_spec({"kind": "sp"}) == KernelSpec.shortest_path()
        gamma = parse_kernel_spec({"kind": "sp", "gamma": 2}).gamma
        assert gamma == 2.0 and type(gamma) is float
        with pytest.raises(ConfigError, match="ppr alpha must be in"):
            parse_kernel_spec({"kind": "ppr", "alpha": 1})

    @pytest.mark.parametrize("raw,key", [
        ({"kind": "sp", "gama": 50}, "gama"),            # misspelt: ran with gamma 3
        ({"kind": "ppr", "mode": "dense"}, "mode"),      # removed option
        ({"kind": "ppr", "prune_threshold": 1e-4}, "prune_threshold"),
        ({"kind": "ppr", "gamma": 1.0}, "gamma"),        # belongs to another kind
        ({"kind": "constant", "alpha": 0.1}, "alpha"),
    ])
    def test_unknown_key_rejected(self, raw, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_kernel_spec(raw)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel kind"):
            parse_kernel_spec({"kind": "mystery"})


class TestQuantifierSpecParsing:
    def test_known_keys(self):
        spec = parse_quantifier_spec({"name": "x", "base": "acc", "probabilistic": True,
                                      "nacc": True, "kernel_q": "ppr"})
        assert spec == QuantifierSpec(probabilistic=True, nacc=True, kernel_q=KernelSpec.ppr())

    def test_unknown_key_rejected(self):
        # misspelt nacc: ran plain ACC
        with pytest.raises(ConfigError, match="unknown key 'nac'"):
            parse_quantifier_spec({"base": "acc", "nac": True})

    def test_nested_kernel_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'mode'"):
            parse_quantifier_spec({"base": "acc", "kernel_q": {"kind": "ppr", "mode": "sparse"}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_quantifier_spec("acc")

    @pytest.mark.parametrize("kernel", [{"kind": "ppr", "walk_len": "x"},
                                        {"kind": "sp", "gamma": [1]}])
    def test_value_of_wrong_type_rejected(self, kernel):
        # used to escape as ValueError or TypeError, so `quantify` exited 3
        with pytest.raises(ConfigError, match="wrong type"):
            parse_quantifier_spec({"base": "acc", "kernel_q": kernel})

    def test_experiment_config_rejects_unknown_quantifier_key(self):
        raw = {"dataset": {"sbm": {"blocks": [10, 10], "p_in": 0.3, "p_out": 0.05}},
               "classifiers": [{"kind": "enq"}],
               "quantifiers": [{"name": "sis", "base": "acc",
                                "kernel_q": {"kind": "sp", "gama": 50}}],
               "shifts": [{"kind": "pps"}]}
        with pytest.raises(ConfigError, match="unknown key 'gama'"):
            parse_config(raw)


def minimal_config(**overrides):
    raw = {"dataset": {"sbm": {"blocks": [10, 10], "p_in": 0.3, "p_out": 0.05}},
           "classifiers": [{"kind": "enq"}],
           "quantifiers": [{"base": "acc"}],
           "shifts": [{"kind": "pps"}]}
    raw.update(overrides)
    return raw


class TestExperimentConfigKeys:
    def test_misspelt_shift_key_rejected(self):
        # ran with seeds_per_label 10
        raw = minimal_config(shifts=[{"kind": "bfs", "seed_per_label": 3}])
        with pytest.raises(ConfigError, match="unknown key 'seed_per_label' in shift #0"):
            parse_config(raw)

    def test_misspelt_top_level_key_rejected(self):
        # ran 1 repetition
        with pytest.raises(ConfigError, match="unknown key 'repetitons' in config"):
            parse_config(minimal_config(repetitons=5))

    @pytest.mark.parametrize("section,raw,key", [
        ("dataset", {"dataset": {"sbm": {"blocks": [10, 10], "p_in": 0.3, "p_out": 0.05},
                                 "label": "y.txt"}}, "label"),
        ("sbm", {"dataset": {"sbm": {"blocks": [10, 10], "p_in": 0.3, "p_out": 0.05,
                                     "sed": 1}}}, "sed"),
        ("split", {"split": {"fraction": [0.1, 0.2, 0.7]}}, "fraction"),
        ("classifier #0", {"classifiers": [{"kind": "label_prop", "iteration": 5}]},
         "iteration"),
        # keys of another kind: each was accepted and then ignored
        ("shift #0", {"shifts": [{"kind": "pps", "walk_len": 99}]}, "walk_len"),
        ("shift #0", {"shifts": [{"kind": "bfs", "num_dists": 2}]}, "num_dists"),
        ("shift #0", {"shifts": [{"kind": "rw", "zipf_exponent": 2.0}]}, "zipf_exponent"),
        ("classifier #0", {"classifiers": [{"kind": "enq", "damping": 0.3}]}, "damping"),
        ("classifier #0", {"classifiers": [{"kind": "external", "path": "p.csv",
                                            "iterations": 3}]}, "iterations"),
        ("classifier #0", {"classifiers": [{"kind": "label_prop", "path": "p.csv"}]}, "path"),
    ])
    def test_unknown_key_rejected_in_section(self, section, raw, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in {section}"):
            parse_config(minimal_config(**raw))

    @pytest.mark.parametrize("raw", [{"split": [0.1, 0.2, 0.7]}, {"shifts": ["pps"]},
                                     {"classifiers": ["enq"]}])
    def test_non_mapping_section_rejected(self, raw):
        with pytest.raises(ConfigError, match="must be a mapping"):
            parse_config(minimal_config(**raw))

    def test_whole_number_float_accepted_as_integer(self):
        cfg = parse_config(minimal_config(shifts=[{"kind": "pps", "n": 100.0}], repetitions=2.0))
        assert cfg.shifts[0].n == 100 and type(cfg.shifts[0].n) is int
        assert cfg.repetitions == 2 and type(cfg.repetitions) is int

    def test_every_documented_key_accepted(self):
        raw = minimal_config(
            dataset={"name": "d", "sbm": {"blocks": [10, 10], "p_in": 0.3, "p_out": 0.05,
                                           "block_labels": [0, 1], "seed": 2}},
            split={"fractions": [0.1, 0.2, 0.7]},
            classifiers=[{"name": "lp", "kind": "label_prop", "iterations": 5,
                          "damping": 0.5},
                         {"name": "gcn", "kind": "external", "path": "gcn.csv"}],
            shifts=[{"name": "p", "kind": "pps", "n": 5, "num_dists": 2, "zipf_exponent": 1.5},
                    {"name": "b", "kind": "bfs", "n": 5, "seeds_per_label": 2},
                    {"name": "r", "kind": "rw", "n": 5, "seeds_per_label": 2, "walk_len": 3,
                     "alpha": 0.2}],
            repetitions=2, seed=3, output="out.csv")
        cfg = parse_config(raw)
        assert cfg.repetitions == 2 and cfg.shifts[1].seeds_per_label == 2
        assert cfg.shifts[0].num_dists == 2 and cfg.shifts[2].walk_len == 3

    @pytest.mark.parametrize("shift,message", [
        ({"kind": "mystery", "n": 5}, "unknown shift kind 'mystery'"),
        ({"n": 5}, "missing required key 'kind'"),
        ({"kind": ["pps"]}, "kind in shift #0 is of the wrong type"),
    ])
    def test_shift_without_a_known_kind_names_the_kind(self, shift, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(minimal_config(shifts=[shift]))


def yaml_texts() -> list[str]:
    """Every quantifier spec and config text in the README (its yaml blocks and
    `--quantifier` arguments) and in the tests (string literals that open a
    mapping or start with a `dataset:` key)."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    texts = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    texts += re.findall(r"--quantifier '([^']*)'", readme)
    for path in sorted((root / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith(("{", "dataset:"))):
                texts.append(node.value)
    return texts


def parsed_by(loader, text):
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError:
        return "rejected"


class TestYamlLoaders:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_libyaml_and_python_loaders_agree(self):
        texts = yaml_texts()
        assert "{base: acc, kernel_q: {kind: ppr}}" in texts and "{base: acc" in texts
        assert any("quantifiers:" in text for text in texts)
        for text in texts:
            assert parsed_by(yaml.CSafeLoader, text) == parsed_by(yaml.SafeLoader, text), text

    def test_rejected_text_named_as_by_python_loader(self):
        with pytest.raises(yaml.YAMLError) as exc:
            yaml.safe_load("{base: acc")
        with pytest.raises(ConfigError) as got:
            load_yaml("{base: acc", "--quantifier")
        assert str(got.value) == f"--quantifier: invalid YAML: {exc.value}"
