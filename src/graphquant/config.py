"""Experiment configuration: YAML schema, parsing and validation.

Top-level keys: dataset, split, classifiers, quantifiers, shifts,
repetitions, seed, output. See the README for the full schema and the
package defaults.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import kernels, shift
from .classifiers import DEFAULT_LP_DAMPING, DEFAULT_LP_ITERATIONS
from .errors import ConfigError
from .graph import read_text
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
    name: str
    edges: str | None = None
    labels: str | None = None
    features: str | None = None
    sbm: SbmParams | None = None


@dataclass(frozen=True)
class ClassifierConfig:
    name: str
    kind: str
    iterations: int = DEFAULT_LP_ITERATIONS
    damping: float = DEFAULT_LP_DAMPING
    path: str | None = None


@dataclass(frozen=True)
class QuantifierConfig:
    name: str
    spec: QuantifierSpec


@dataclass(frozen=True)
class ShiftConfig:
    name: str
    kind: str  # pps | bfs | rw
    n: int = shift.DEFAULT_SAMPLE_SIZE
    num_dists: int | None = None
    zipf_exponent: float = shift.DEFAULT_ZIPF_EXPONENT
    seeds_per_label: int = shift.DEFAULT_SEEDS_PER_LABEL
    walk_len: int = shift.DEFAULT_RW_WALK_LEN
    alpha: float = shift.DEFAULT_RW_ALPHA


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
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
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


def _wrong_types_are_config_errors(parse):
    """`parse`, raising ConfigError where int(), float() or another conversion
    rejects a value of the parsed YAML: a value that is not a number where one
    is due."""
    @functools.wraps(parse)
    def checked(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config value of the wrong type: {exc}") from None
    return checked


@_wrong_types_are_config_errors
def parse_config(raw: dict, base_dir=None) -> ExperimentConfig:
    base_dir = Path(base_dir) if base_dir is not None else Path(".")

    def resolve(p):
        return None if p is None else str((base_dir / p) if not Path(p).is_absolute() else Path(p))

    _section(raw, _TOP_KEYS, "config")
    dataset = _parse_dataset(_require(raw, "dataset"), resolve)
    split = _section(raw.get("split") or {}, _SPLIT_KEYS, "split")
    fractions = tuple(float(f) for f in split.get("fractions", DEFAULT_FRACTIONS))
    if len(fractions) != 3:
        raise ConfigError(f"split fractions must have 3 entries, got {fractions}")
    classifiers = tuple(_parse_classifier(c, i, resolve)
                        for i, c in enumerate(_require(raw, "classifiers")))
    quantifiers = tuple(_parse_quantifier(q, i) for i, q in enumerate(_require(raw, "quantifiers")))
    shifts = tuple(_parse_shift(s, i) for i, s in enumerate(_require(raw, "shifts")))
    return ExperimentConfig(
        dataset=dataset, classifiers=classifiers, quantifiers=quantifiers, shifts=shifts,
        fractions=fractions, repetitions=int(raw.get("repetitions", 1)),
        seed=check_seed(raw.get("seed", 0), "seed"),
        output=resolve(raw.get("output", "results.csv")))


def check_seed(seed, what: str) -> int:
    """`seed` as an int; ConfigError naming `what` if it is negative, which no
    numpy random generator takes."""
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {seed}")
    return seed


def _require(raw: dict, key: str):
    if key not in raw or raw[key] is None:
        raise ConfigError(f"config is missing required key {key!r}")
    return raw[key]


def _section(raw, allowed, what: str) -> dict:
    """`raw`, checked to be a mapping whose keys are all in `allowed`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a mapping")
    _reject_unknown_keys(raw, allowed, what)
    return raw


def _parse_dataset(raw: dict, resolve) -> DatasetConfig:
    _section(raw, _DATASET_KEYS, "dataset")
    name = raw.get("name", "dataset")
    sbm = None
    if "sbm" in raw and raw["sbm"] is not None:
        s = _section(raw["sbm"], _SBM_KEYS, "sbm")
        try:
            sbm = SbmParams(blocks=tuple(int(b) for b in s["blocks"]),
                            p_in=float(s["p_in"]), p_out=float(s["p_out"]),
                            block_labels=tuple(s["block_labels"]) if s.get("block_labels") else None,
                            seed=check_seed(s.get("seed", 0), "sbm seed"))
        except KeyError as exc:
            raise ConfigError(f"sbm config is missing {exc}")
    edges = resolve(raw.get("edges"))
    if sbm is None and edges is None:
        raise ConfigError("dataset needs either file paths or sbm parameters")
    if sbm is None and raw.get("labels") is None:
        raise ConfigError("file-based datasets need a labels file")
    return DatasetConfig(name=name, edges=edges, labels=resolve(raw.get("labels")),
                         features=resolve(raw.get("features")), sbm=sbm)


def _parse_classifier(raw: dict, index: int, resolve) -> ClassifierConfig:
    _section(raw, _CLASSIFIER_KEYS, f"classifier #{index}")
    kind = raw.get("kind")
    if kind not in (ENQ, LABEL_PROP, EXTERNAL):
        raise ConfigError(f"classifier #{index}: unknown kind {kind!r}")
    name = raw.get("name", kind)
    if kind == EXTERNAL and not raw.get("path"):
        raise ConfigError(f"classifier {name!r}: external classifiers need a path")
    damping = float(raw.get("damping", DEFAULT_LP_DAMPING))
    if kind == LABEL_PROP and not 0.0 < damping < 1.0:
        raise ConfigError(f"classifier {name!r}: damping must be in (0,1)")
    return ClassifierConfig(name=name, kind=kind,
                            iterations=int(raw.get("iterations", DEFAULT_LP_ITERATIONS)),
                            damping=damping, path=resolve(raw.get("path")))


# the keys each config section takes
_TOP_KEYS = ("dataset", "split", "classifiers", "quantifiers", "shifts", "repetitions", "seed",
             "output")
_DATASET_KEYS = ("name", "edges", "labels", "features", "sbm")
_SBM_KEYS = ("blocks", "p_in", "p_out", "block_labels", "seed")
_SPLIT_KEYS = ("fractions",)
_CLASSIFIER_KEYS = ("name", "kind", "iterations", "damping", "path")
_SHIFT_KEYS = ("name", "kind", "n", "num_dists", "zipf_exponent", "seeds_per_label", "walk_len",
               "alpha")
# the keys each kernel kind takes, besides "kind", and their converters
_KERNEL_KEYS = {kernels.CONSTANT: {},
                kernels.PPR: {"alpha": float, "walk_len": int, "interp": float},
                kernels.SHORTEST_PATH: {"gamma": float}, kernels.FEATURE: {}}
_QUANTIFIER_KEYS = ("name", "base", "probabilistic", "nacc", "kernel_q", "kernel_p")


def _reject_unknown_keys(raw: dict, allowed, what: str) -> None:
    unknown = sorted(str(k) for k in raw if k not in allowed)
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {what} "
                          f"(allowed: {', '.join(sorted(allowed))})")


def parse_kernel_spec(raw) -> KernelSpec:
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"kernel spec must name a kind, got {raw!r}")
    kind = raw["kind"]
    if kind not in _KERNEL_KEYS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    converters = _KERNEL_KEYS[kind]
    _reject_unknown_keys(raw, ("kind", *converters), f"{kind} kernel spec")
    return KernelSpec(kind=kind, **{key: convert(raw[key])
                                    for key, convert in converters.items() if key in raw})


@_wrong_types_are_config_errors
def parse_quantifier_spec(raw: dict) -> QuantifierSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"quantifier spec must be a mapping, got {raw!r}")
    _reject_unknown_keys(raw, _QUANTIFIER_KEYS, "quantifier spec")
    return QuantifierSpec(
        base=raw.get("base", "acc"),
        probabilistic=bool(raw.get("probabilistic", False)),
        nacc=bool(raw.get("nacc", False)),
        kernel_q=parse_kernel_spec(raw.get("kernel_q")),
        kernel_p=parse_kernel_spec(raw.get("kernel_p")))


def _parse_quantifier(raw: dict, index: int) -> QuantifierConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"quantifier #{index} must be a mapping")
    spec = parse_quantifier_spec(raw)
    return QuantifierConfig(name=raw.get("name", spec.name), spec=spec)


def _parse_shift(raw: dict, index: int) -> ShiftConfig:
    _section(raw, _SHIFT_KEYS, f"shift #{index}")
    kind = raw.get("kind")
    if kind not in ("pps", "bfs", "rw"):
        raise ConfigError(f"shift #{index}: unknown kind {kind!r}")
    num_dists = raw.get("num_dists")
    return ShiftConfig(
        name=raw.get("name", kind), kind=kind,
        n=int(raw.get("n", shift.DEFAULT_SAMPLE_SIZE)),
        num_dists=None if num_dists is None else int(num_dists),
        zipf_exponent=float(raw.get("zipf_exponent", shift.DEFAULT_ZIPF_EXPONENT)),
        seeds_per_label=int(raw.get("seeds_per_label", shift.DEFAULT_SEEDS_PER_LABEL)),
        walk_len=int(raw.get("walk_len", shift.DEFAULT_RW_WALK_LEN)),
        alpha=float(raw.get("alpha", shift.DEFAULT_RW_ALPHA)))
