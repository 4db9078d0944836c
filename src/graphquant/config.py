"""Experiment configuration: YAML schema, parsing and validation.

Top-level keys: dataset, split, classifiers, quantifiers, shifts,
repetitions, seed, output. See the README for the full schema and the
package defaults. `_build` reads every section through its table, which maps
each key the section takes to a strict converter; the dataclass defaults are
the only defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import kernels, shift
from .classifiers import DEFAULT_LP_DAMPING, DEFAULT_LP_ITERATIONS
from .errors import ConfigError
from .graph import check_count, is_real, is_whole, read_text
from .kernels import KernelSpec
from .quantifiers import QuantifierSpec

DEFAULT_FRACTIONS = (0.05, 0.15, 0.80)

ENQ = "enq"
LABEL_PROP = "label_prop"
EXTERNAL = "external"


@dataclass(frozen=True)
class SbmParams:
    blocks: tuple[int, ...]
    p_in: float
    p_out: float
    block_labels: tuple[int, ...] | None = None
    seed: int = 0


@dataclass(frozen=True)
class DatasetConfig:
    name: str = "dataset"
    edges: str | None = None
    labels: str | None = None
    features: str | None = None
    sbm: SbmParams | None = None

    def __post_init__(self):
        if self.sbm is None and self.edges is None:
            raise ConfigError("dataset needs either file paths or sbm parameters")
        if self.sbm is None and self.labels is None:
            raise ConfigError("file-based datasets need a labels file")


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str
    name: str | None = None  # None: the kind
    iterations: int = DEFAULT_LP_ITERATIONS
    damping: float = DEFAULT_LP_DAMPING
    path: str | None = None

    def __post_init__(self):
        if self.kind not in (ENQ, LABEL_PROP, EXTERNAL):
            raise ConfigError(f"unknown classifier kind {self.kind!r}")
        if self.name is None:
            object.__setattr__(self, "name", self.kind)
        if self.kind == EXTERNAL and not self.path:
            raise ConfigError(f"classifier {self.name!r}: external classifiers need a path")


@dataclass(frozen=True)
class QuantifierConfig:
    spec: QuantifierSpec
    name: str | None = None  # None: the spec's name

    def __post_init__(self):
        if self.name is None:
            object.__setattr__(self, "name", self.spec.name)


@dataclass(frozen=True)
class ShiftConfig:
    kind: str  # pps | bfs | rw
    name: str | None = None  # None: the kind
    n: int = shift.DEFAULT_SAMPLE_SIZE
    num_dists: int | None = None
    zipf_exponent: float = shift.DEFAULT_ZIPF_EXPONENT
    seeds_per_label: int = shift.DEFAULT_SEEDS_PER_LABEL
    walk_len: int = shift.DEFAULT_RW_WALK_LEN
    alpha: float = shift.DEFAULT_RW_ALPHA

    def __post_init__(self):
        if self.kind not in ("pps", "bfs", "rw"):
            raise ConfigError(f"unknown shift kind {self.kind!r}")
        if self.name is None:
            object.__setattr__(self, "name", self.kind)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    classifiers: tuple[ClassifierConfig, ...]
    quantifiers: tuple[QuantifierConfig, ...]
    shifts: tuple[ShiftConfig, ...]
    fractions: tuple[float, float, float] = DEFAULT_FRACTIONS
    repetitions: int = 1
    seed: int = 0
    output: str = "results.csv"

    def __post_init__(self):
        if len(self.quantifiers) == 0:
            raise ConfigError("config needs at least one quantifier")
        if len(self.shifts) == 0:
            raise ConfigError("config needs at least one shift spec")
        if len(self.classifiers) == 0:
            raise ConfigError("config needs at least one classifier")
        object.__setattr__(self, "repetitions", check_count(self.repetitions, "repetitions", 1))
        object.__setattr__(self, "seed", check_count(self.seed, "seed in config"))
        if len(self.fractions) != 3:
            raise ConfigError(f"split fractions must have 3 entries, got {self.fractions}")
        names = [q.name for q in self.quantifiers]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate quantifier names in {names}")


# libyaml's loader when PyYAML was built with it: several times faster on a short spec
_FAST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(text: str, what: str):
    """`text` parsed as YAML with the safe loader; ConfigError naming `what` if it
    is not YAML. A rejected text is parsed again by the pure-Python loader, so the
    message is the same with or without libyaml."""
    try:
        return yaml.load(text, Loader=_FAST_LOADER)
    except yaml.YAMLError:
        pass
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what}: invalid YAML: {exc}")


def load_config(path) -> ExperimentConfig:
    raw = load_yaml(read_text(path, ConfigError), str(path))
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return parse_config(raw, base_dir=Path(path).parent)


def parse_config(raw: dict, base_dir=None) -> ExperimentConfig:
    """The experiment config in the parsed YAML `raw`; its relative file paths
    are taken from `base_dir` (default: the working directory)."""
    cfg = _build(ExperimentConfig, raw, _TOP, "config")
    base = Path("." if base_dir is None else base_dir)

    def at(path):
        return None if path is None else str(base / path)
    ds = cfg.dataset
    return dataclasses.replace(
        cfg, **_build(dict, raw.get("split"), _SPLIT, "split"), output=at(cfg.output),
        dataset=dataclasses.replace(ds, edges=at(ds.edges), labels=at(ds.labels),
                                    features=at(ds.features)),
        classifiers=tuple(dataclasses.replace(c, path=at(c.path)) for c in cfg.classifiers))


def parse_quantifier_spec(raw) -> QuantifierSpec:
    return _build(QuantifierSpec, raw, _QUANTIFIER, "quantifier spec")


def parse_kernel_spec(raw) -> KernelSpec:
    """The kernel spec `raw`: a mapping, or the name of a kind for its defaults."""
    if raw is None:
        return None
    return _kernel_spec({"kind": raw} if isinstance(raw, str) else raw, "kernel spec", None)


def _build(cls, raw, keys: dict, what: str, **given):
    """`cls` built from the config section `raw`, a mapping (null: an empty one)
    whose keys must all be in the table `keys`, named `what` in messages. Each
    value other than null goes through its key's converter; a key whose
    converter is None is read by the caller, which passes its fields in `given`.
    A field set by neither keeps its dataclass default; a required one is a
    ConfigError."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a mapping")
    unknown = sorted(str(k) for k in raw if k not in keys)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {what} "
                          f"(allowed: {', '.join(sorted(keys))})")
    fields = dict(given)
    fields.update((key, keys[key](value, key, what)) for key, value in raw.items()
                  if value is not None and keys[key] is not None)
    for field in dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ():
        if field.default is dataclasses.MISSING and field.name not in fields:
            raise ConfigError(f"{what} is missing required key {field.name!r}")
    return cls(**fields)


# Converters: each maps a value of the parsed YAML, its key and its section to
# the field's value, or raises a ConfigError naming the key. None of them
# rounds a number, reads a bool as a number or a number as a bool, or parses text.
def _typed(expected: str, accepts, convert):
    def converter(value, key, what):
        if not accepts(value):
            raise ConfigError(f"{key} in {what} is of the wrong type: expected {expected}, "
                              f"got {value!r}")
        return convert(value)
    return converter


_integer = _typed("an integer", is_whole, int)
_number = _typed("a number that a float holds", is_real, float)
_flag = _typed("true or false", lambda v: isinstance(v, bool), bool)
_text = _typed("text", lambda v: isinstance(v, str), str)
_sequence = _typed("a list", lambda v: isinstance(v, (list, tuple)), tuple)


def _list(item, name: str = "{key}[{i}]"):
    """A converter for a list: the tuple of its items, item i converted by
    `item` under the key `name` formats."""
    def converter(value, key, what):
        return tuple(item(v, name.format(key=key, i=i), what)
                     for i, v in enumerate(_sequence(value, key, what)))
    converter.is_list = True  # the command line gives its items comma-separated
    return converter


def _section(cls, tables: dict, name: str = "{key}"):
    """A converter for a nested section, built as `cls`: `tables` maps each kind
    to the keys a section of that kind takes (None: a section without kinds), so
    a key of another kind is unknown, and `name` formats the section's name from
    its key and kind. A section without a known kind may use the keys of every
    kind, is named by its key, and `cls` names the missing or unknown kind."""
    every = {key: conv for keys in tables.values() for key, conv in keys.items()}

    def converter(value, key, what):
        kind = value.get("kind") if isinstance(value, dict) else None
        if isinstance(kind, str) and kind in tables:
            return _build(cls, value, tables[kind], name.format(key=key, kind=kind))
        return _build(cls, value, every, key)
    return converter


def _kernel(value, key, what) -> KernelSpec:
    return parse_kernel_spec(value)


def _quantifier(value, key, what) -> QuantifierConfig:
    # the spec's keys are read by parse_quantifier_spec
    return _build(QuantifierConfig, value, {**dict.fromkeys(_QUANTIFIER), "name": _text},
                  key, spec=parse_quantifier_spec(value))


# the keys each section takes, and their converters
_SBM = {"blocks": _list(_integer), "p_in": _number, "p_out": _number,
        "block_labels": _list(_integer), "seed": _integer}
_DATASET = {"name": _text, "edges": _text, "labels": _text, "features": _text,
            "sbm": _section(SbmParams, {None: _SBM})}
_SPLIT = {"fractions": _list(_number)}
_NAMED = {"name": _text, "kind": _text}
_CLASSIFIER = {ENQ: _NAMED, LABEL_PROP: {**_NAMED, "iterations": _integer, "damping": _number},
               EXTERNAL: {**_NAMED, "path": _text}}
# "name" names the config's quantifier, not the spec
_QUANTIFIER = {"name": None, "base": _text, "probabilistic": _flag, "nacc": _flag,
               "kernel_q": _kernel, "kernel_p": _kernel}
_SHIFT = {"pps": {**_NAMED, "n": _integer, "num_dists": _integer, "zipf_exponent": _number},
          "bfs": {**_NAMED, "n": _integer, "seeds_per_label": _integer},
          "rw": {**_NAMED, "n": _integer, "seeds_per_label": _integer, "walk_len": _integer,
                 "alpha": _number}}
# "split" is read by parse_config
_TOP = {"dataset": _section(DatasetConfig, {None: _DATASET}), "split": None,
        "classifiers": _list(_section(ClassifierConfig, _CLASSIFIER), "classifier #{i}"),
        "quantifiers": _list(_quantifier, "quantifier #{i}"),
        "shifts": _list(_section(ShiftConfig, _SHIFT), "shift #{i}"),
        "repetitions": _integer, "seed": _integer, "output": _text}
_KERNEL = {kernels.CONSTANT: {"kind": _text},
           kernels.PPR: {"kind": _text, "alpha": _number, "walk_len": _integer, "interp": _number},
           kernels.SHORTEST_PATH: {"kind": _text, "gamma": _number},
           kernels.FEATURE: {"kind": _text}}
_kernel_spec = _section(KernelSpec, _KERNEL, "{kind} {key}")
