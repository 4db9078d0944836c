import pytest

from graphquant.config import parse_config, parse_kernel_spec, parse_quantifier_spec
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

    def test_experiment_config_rejects_unknown_quantifier_key(self):
        raw = {"dataset": {"sbm": {"blocks": [10, 10], "p_in": 0.3, "p_out": 0.05}},
               "classifiers": [{"kind": "enq"}],
               "quantifiers": [{"name": "sis", "base": "acc",
                                "kernel_q": {"kind": "sp", "gama": 50}}],
               "shifts": [{"kind": "pps"}]}
        with pytest.raises(ConfigError, match="unknown key 'gama'"):
            parse_config(raw)
