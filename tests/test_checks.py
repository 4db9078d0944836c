"""The four value rules at every public entry point.

Vertex ids and labels must be integers (ids may also be strings that spell
one); a bad one is a DataError. Counts, sizes, seeds and iteration numbers
must be whole numbers, an integer or a float that holds one, at or above
their minimum; a bad one is a ConfigError. Rates, scales, probabilities and
exponents must be real numbers in their interval, which the entry point's name
states; a bad one is a ConfigError. Rows of probabilities are one rule for the
Python API and the predictions file. No entry point may truncate a bad value,
read a bool as a number, or fail with numpy's or Python's own TypeError or
ValueError.
"""

import dataclasses
import math
import numbers

import numpy as np
import pytest

from graphquant import Graph, KernelSpec, QuantifierSpec, generate_sbm, uniform_split
from graphquant.classifiers import enq_predict, label_prop_predict, load_predictions
from graphquant.config import (ClassifierConfig, DatasetConfig, ExperimentConfig,
                               QuantifierConfig, SbmParams, ShiftConfig)
from graphquant.errors import ConfigError, DataError
from graphquant.estimation import PredictionSet
from graphquant.graph import check_vertex_ids
from graphquant.shift import sample_bfs, sample_pps, sample_rw, zipf_distribution

G = generate_sbm([60, 60], 0.2, 0.02, seed=1)
POOL = np.arange(G.n)
CONFIG = ExperimentConfig(
    dataset=DatasetConfig(sbm=SbmParams(blocks=(2, 2), p_in=0.5, p_out=0.1)),
    classifiers=(ClassifierConfig(kind="enq"),),
    quantifiers=(QuantifierConfig(spec=QuantifierSpec()),),
    shifts=(ShiftConfig(kind="pps"),))

IDS = "vertex id"
LABELS = "label"
COUNTS = "count"
REALS = "real"


def split_with(v):
    """uniform_split with `v` as its first fraction; where `v` is a number (a
    bool too, as numpy reads one), the second makes the three sum to 1."""
    rest = 1 - v if isinstance(v, numbers.Real) else 0.5
    return uniform_split(G, (v, rest, 0), seed=0)


# entry point -> (kind of value, call with the value in place)
ENTRY_POINTS = {
    "Graph.from_edges endpoint": (IDS, lambda v: Graph.from_edges(3, [(0, 1), (1, v)])),
    "Graph.from_edges edge": (IDS, lambda v: Graph.from_edges(3, [(0, 1), v])),
    "check_vertex_ids ids": (IDS, lambda v: check_vertex_ids([[0, 1], v], 5, "x")),
    "Graph.from_edges labels": (LABELS, lambda v: Graph.from_edges(3, [(0, 1)], labels=[0, 1, v])),
    "PredictionSet.from_hard labels": (LABELS, lambda v: PredictionSet.from_hard([0, v], K=3)),
    "Graph.from_edges n": (COUNTS, lambda v: Graph.from_edges(v, [(0, 1)])),
    "generate_sbm blocks": (COUNTS, lambda v: generate_sbm([v, 2], 0.2, 0.1)),
    "generate_sbm block_labels": (COUNTS, lambda v: generate_sbm([2, 2], 0.2, 0.1,
                                                                 block_labels=[0, v])),
    "generate_sbm seed": (COUNTS, lambda v: generate_sbm([2, 2], 0.2, 0.1, seed=v)),
    "uniform_split seed": (COUNTS, lambda v: uniform_split(G, (0.2, 0.3, 0.5), seed=v)),
    "sample_pps n": (COUNTS, lambda v: sample_pps(POOL, G.labels, 2, num_dists=2, n=v)),
    "sample_pps num_dists": (COUNTS, lambda v: sample_pps(POOL, G.labels, 2, num_dists=v, n=4)),
    "sample_pps num_classes": (COUNTS, lambda v: sample_pps(POOL, G.labels, v, num_dists=2, n=4)),
    "sample_pps seed": (COUNTS, lambda v: sample_pps(POOL, G.labels, 2, num_dists=2, n=4,
                                                     seed=v)),
    "sample_bfs n": (COUNTS, lambda v: sample_bfs(G, POOL, G.labels, seeds_per_label=1, n=v)),
    "sample_bfs seeds_per_label": (COUNTS, lambda v: sample_bfs(G, POOL, G.labels,
                                                                seeds_per_label=v, n=5)),
    "sample_bfs seed": (COUNTS, lambda v: sample_bfs(G, POOL, G.labels, seeds_per_label=1, n=5,
                                                     seed=v)),
    "sample_rw n": (COUNTS, lambda v: sample_rw(G, POOL, G.labels, seeds_per_label=1, n=v)),
    "sample_rw seeds_per_label": (COUNTS, lambda v: sample_rw(G, POOL, G.labels,
                                                              seeds_per_label=v, n=5)),
    "sample_rw seed": (COUNTS, lambda v: sample_rw(G, POOL, G.labels, seeds_per_label=1, n=5,
                                                   seed=v)),
    "sample_rw walk_len": (COUNTS, lambda v: sample_rw(G, POOL, G.labels, seeds_per_label=1,
                                                       n=5, walk_len=v)),
    "label_prop_predict iterations": (COUNTS, lambda v: label_prop_predict(
        G, [0, 60], [0, 1], iterations=v)),
    "enq_predict num_classes": (COUNTS, lambda v: enq_predict(G, [0, 60], [0, 1],
                                                              num_classes=v)),
    "KernelSpec walk_len": (COUNTS, lambda v: KernelSpec.ppr(walk_len=v)),
    "PredictionSet K": (COUNTS, lambda v: PredictionSet.from_hard([0, 1], K=v)),
    "ExperimentConfig repetitions": (COUNTS, lambda v: dataclasses.replace(CONFIG,
                                                                           repetitions=v)),
    "ExperimentConfig seed": (COUNTS, lambda v: dataclasses.replace(CONFIG, seed=v)),
    "KernelSpec.ppr alpha in (0, 1)": (REALS, lambda v: KernelSpec.ppr(alpha=v)),
    "KernelSpec.ppr interp in [0, 1]": (REALS, lambda v: KernelSpec.ppr(interp=v)),
    "KernelSpec.shortest_path gamma in (0, inf)": (REALS,
                                                   lambda v: KernelSpec.shortest_path(gamma=v)),
    "label_prop_predict damping in (0, 1)": (REALS, lambda v: label_prop_predict(
        G, [0, 60], [0, 1], iterations=3, damping=v)),
    "sample_rw alpha in [0, 1]": (REALS, lambda v: sample_rw(G, POOL, G.labels,
                                                             seeds_per_label=1, n=5, alpha=v)),
    "generate_sbm p_in in [0, 1]": (REALS, lambda v: generate_sbm([5, 5], v, 0.1)),
    "generate_sbm p_out in [0, 1]": (REALS, lambda v: generate_sbm([5, 5], 0.1, v)),
    # sample_pps takes its exponent through zipf_distribution
    "zipf_distribution exponent in (-inf, inf]": (REALS, lambda v: zipf_distribution(3, v)),
    "uniform_split fraction in [0, 1]": (REALS, split_with),
}
HUGE = 10 ** 400  # an integer past the float range
# [2] makes a list of lists ragged: rows of different lengths
BAD_VALUES = [2.5, -1, True, math.nan, math.inf, "x", [2], HUGE]
WHOLE_FLOAT = 100.0  # as YAML reads `100.0`, which the config takes for an integer


def fingerprint(obj, ints_as_floats=False):
    """A comparable summary of an entry point's result, types included, so a
    float kept where an int belongs shows; with `ints_as_floats`, a Python int
    counts as the float it equals."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.tolist())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, tuple(fingerprint(getattr(obj, f.name), ints_as_floats)
                                          for f in dataclasses.fields(obj)))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x, ints_as_floats) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, fingerprint(v, ints_as_floats)) for k, v in obj.items()))
    if ints_as_floats and type(obj) is int:
        obj = float(obj)
    return (type(obj).__name__, obj)


def interval_of(entry):
    """The interval a real entry point states in its name: (lo, hi, lo_open, hi_open)."""
    interval = entry.rpartition(" in ")[2]
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


def outside(entry):
    """Values a real entry point rejects: text, a bool, NaN, integers past the
    float range, a value past each finite end of its interval, and each open end
    itself."""
    lo, hi, lo_open, hi_open = interval_of(entry)
    values = ["x", True, math.nan, HUGE, -HUGE]
    for end, past, is_open in ((lo, lo - 0.5, lo_open), (hi, hi + 0.5, hi_open)):
        values += ([end] if is_open else []) + ([past] if math.isfinite(end) else [])
    return values


def inside(entry):
    """Values a real entry point accepts: a float32, each closed end (an int where
    it is finite) and the int 2 where the interval holds it."""
    lo, hi, lo_open, hi_open = interval_of(entry)
    values = [np.float32(0.3)]
    for end, is_open in ((lo, lo_open), (hi, hi_open)):
        if not is_open:
            values.append(int(end) if math.isfinite(end) else end)
    return values + ([2] if hi > 2 else [])


REAL_ENTRIES = [e for e, (kind, _) in ENTRY_POINTS.items() if kind == REALS]


def entry_or_value(param):
    if type(param) is int and abs(param) == HUGE:
        return "-" * (param < 0) + "10**400"
    return param if param in REAL_ENTRIES else repr(param)


@pytest.mark.parametrize("value", BAD_VALUES, ids=entry_or_value)
@pytest.mark.parametrize("entry", [e for e, (kind, _) in ENTRY_POINTS.items() if kind != REALS])
def test_bad_value_is_rejected_by_its_rule(entry, value):
    kind, call = ENTRY_POINTS[entry]
    expected = ConfigError if kind == COUNTS else DataError
    with pytest.raises(expected):
        call(value)


@pytest.mark.parametrize("entry", [e for e, (kind, _) in ENTRY_POINTS.items() if kind == COUNTS])
def test_whole_number_float_is_the_integer(entry):
    _, call = ENTRY_POINTS[entry]
    assert fingerprint(call(WHOLE_FLOAT)) == fingerprint(call(int(WHOLE_FLOAT)))


@pytest.mark.parametrize("entry,value", [(e, v) for e in REAL_ENTRIES for v in outside(e)],
                         ids=entry_or_value)
def test_real_outside_its_interval_is_rejected(entry, value):
    parameter = entry.rpartition(" in ")[0].split()[-1]
    with pytest.raises(ConfigError, match=parameter):
        ENTRY_POINTS[entry][1](value)


@pytest.mark.parametrize("entry,value", [(e, v) for e in REAL_ENTRIES for v in inside(e)],
                         ids=entry_or_value)
def test_real_inside_its_interval_is_the_matching_float(entry, value):
    # an int stays an int, so a samples file writes it as it was given
    _, call = ENTRY_POINTS[entry]
    assert fingerprint(call(value), True) == fingerprint(call(float(value)), True)


# rows the probability-row rule rejects beside the row 0.5,0.5 (K=2), as the
# Python API gets them; a predictions file holds their text
BAD_ROWS = [["x", 0.5], [True, False], [math.nan, 1.0], [math.inf, 0.0], [-0.5, 1.5],
            [0.5, 0.6], [1.0]]


@pytest.mark.parametrize("row", BAD_ROWS, ids=repr)
def test_bad_probability_row_is_rejected_by_the_api_and_the_file(tmp_path, row):
    with pytest.raises(DataError):
        PredictionSet.from_soft([[0.5, 0.5], row])
    path = tmp_path / "preds.csv"
    path.write_text("0.5,0.5\n" + ",".join(map(str, row)) + "\n")
    with pytest.raises(DataError, match=":2: "):
        load_predictions(path, n=2, K=2)


def test_text_that_spells_probabilities_is_rejected_by_the_api():
    # a predictions file is text; from Python, text is not a number, as for labels
    with pytest.raises(DataError, match="non-numeric"):
        PredictionSet.from_soft([["0.5", "0.5"]])
