"""graphquant: class-prevalence estimation on graphs.

Adjusted-count quantification with kernel-density importance weights for
structural covariate shift and neighborhood-aware confusion profiles for
better class identifiability, plus the samplers, metrics and experiment
harness to evaluate them.
"""

from .errors import ConfigError, DataError, GraphQuantError
from .estimation import PredictionSet
from .graph import Graph, bfs_distances, load_graph, save_graph
from .kernels import KernelSpec, make_evaluator
from .quantifiers import (PrevalenceVector, QuantifierSpec, importance_weigher, quantify,
                          quantify_batch)
from .solver import SimplexLsqResult, solve_simplex_lsq
from .shift import ShiftSample, SplitSpec, generate_sbm, sample_bfs, sample_pps, \
    sample_rw, uniform_split
from .harness import ae, rae, run_experiment, aggregate

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "GraphQuantError",
    "Graph",
    "load_graph", "save_graph", "bfs_distances",
    "KernelSpec", "make_evaluator",
    "PredictionSet",
    "SimplexLsqResult", "solve_simplex_lsq",
    "QuantifierSpec", "PrevalenceVector", "quantify", "quantify_batch", "importance_weigher",
    "ShiftSample", "SplitSpec", "uniform_split",
    "sample_pps", "sample_bfs", "sample_rw", "generate_sbm",
    "ae", "rae", "run_experiment", "aggregate",
]
