"""Metastable timescale hierarchies for continuous-time Markov chains.

The package computes the full ladder of exponentially separated relaxation
timescales of a singularly perturbed chain by sweeping arcs in order of
weight, contracting the cycles (or closed classes) that form, and reading
the timescale exponents off the contraction history. Numerical spectra,
enumeration oracles, kinetic Monte Carlo and a molecular-motor case study
round out the toolkit.

The names below are the documented API (README, "Library API"); everything
else is imported from its submodule.
"""

from .alg1 import run_algorithm1
from .alg2 import compare_alg1_alg2, run_algorithm2
from .chain import (
    EnumerationCapError,
    GraphError,
    InternalInvariantError,
    SymmetryError,
    ValidationFailure,
    chain_graph,
    parse_rational,
    validate,
)
from .demos import nested_cycle_chain, nested_cycle_chain_integer
from .graphio import dump_json, load_graph, save_graph
from .kinesin import KinesinParams, build_kinesin, kinesin_sweep
from .kmc import census, census_vs_tgraph, simulate, simulate_ensemble
from .spectral import charpoly_identity_check, compare_spectrum, eigenvalue_estimates
from .stopping import StopCriterion
from .wgraph import enumerate_all_optimal, extract_wgraph

__version__ = "0.1.0"

__all__ = [
    # graphs and files
    "chain_graph",
    "validate",
    "load_graph",
    "save_graph",
    "dump_json",
    "parse_rational",
    # sweeps
    "run_algorithm1",
    "run_algorithm2",
    "StopCriterion",
    "compare_alg1_alg2",
    # in-forests
    "extract_wgraph",
    "enumerate_all_optimal",
    # spectra
    "eigenvalue_estimates",
    "compare_spectrum",
    "charpoly_identity_check",
    # sampling
    "simulate",
    "simulate_ensemble",
    "census",
    "census_vs_tgraph",
    # motor model
    "KinesinParams",
    "build_kinesin",
    "kinesin_sweep",
    # example chains
    "nested_cycle_chain",
    "nested_cycle_chain_integer",
    # errors
    "GraphError",
    "ValidationFailure",
    "SymmetryError",
    "EnumerationCapError",
    "InternalInvariantError",
]
