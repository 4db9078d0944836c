"""The three value rules at every public entry point.

Vertex ids and labels must be integers (ids may also be strings that spell
one); a bad one is a DataError. Counts, sizes, seeds and iteration numbers
must be whole numbers, an integer or a float that holds one, at or above
their minimum; a bad one is a ConfigError. No entry point may truncate a bad
value, read a bool as a number, or fail with numpy's or Python's own
TypeError or ValueError.
"""

import dataclasses
import math

import numpy as np
import pytest

from graphquant import Graph, KernelSpec, QuantifierSpec, generate_sbm, uniform_split
from graphquant.classifiers import enq_predict, label_prop_predict
from graphquant.config import (ClassifierConfig, DatasetConfig, ExperimentConfig,
                               QuantifierConfig, SbmParams, ShiftConfig)
from graphquant.errors import ConfigError, DataError
from graphquant.estimation import PredictionSet
from graphquant.shift import sample_bfs, sample_pps, sample_rw

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

# entry point -> (kind of value, call with the value in place)
ENTRY_POINTS = {
    "Graph.from_edges endpoint": (IDS, lambda v: Graph.from_edges(3, [(0, 1), (1, v)])),
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
}
BAD_VALUES = [2.5, -1, True, math.nan, math.inf, "x"]
WHOLE_FLOAT = 100.0  # as YAML reads `100.0`, which the config takes for an integer


def fingerprint(obj):
    """A comparable summary of an entry point's result, types included, so a
    float kept where an int belongs shows."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.tolist())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,
                tuple(fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x) for x in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, fingerprint(v)) for k, v in obj.items()))
    return (type(obj).__name__, obj)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_bad_value_is_rejected_by_its_rule(entry, value):
    kind, call = ENTRY_POINTS[entry]
    expected = ConfigError if kind == COUNTS else DataError
    with pytest.raises(expected):
        call(value)


@pytest.mark.parametrize("entry", [e for e, (kind, _) in ENTRY_POINTS.items() if kind == COUNTS])
def test_whole_number_float_is_the_integer(entry):
    _, call = ENTRY_POINTS[entry]
    assert fingerprint(call(WHOLE_FLOAT)) == fingerprint(call(int(WHOLE_FLOAT)))
