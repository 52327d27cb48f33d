"""Metastable timescale hierarchies for continuous-time Markov chains.

The package computes the full ladder of exponentially separated relaxation
timescales of a singularly perturbed chain by sweeping arcs in order of
weight, contracting the cycles (or closed classes) that form, and reading
the timescale exponents off the contraction history. Numerical spectra,
enumeration oracles, kinetic Monte Carlo and a molecular-motor case study
round out the toolkit.
"""

from .alg1 import (
    Alg1Report,
    Bucket,
    CycleRecord,
    HierarchyNode,
    SinkRecord,
    TGraph,
    cycle_hierarchy,
    run_algorithm1,
)
from .alg2 import (
    Alg2Report,
    ClassRecord,
    ComparisonReport,
    class_hierarchy,
    compare_alg1_alg2,
    run_algorithm2,
)
from .chain import (
    Arc,
    ChainGraph,
    ClosedClasses,
    EnumerationCapError,
    GeneratorMatrix,
    GraphError,
    InternalInvariantError,
    SymmetryError,
    ValidationFailure,
    ValidationReport,
    chain_graph,
    closed_communicating_classes,
    generator_matrix,
    min_arcs,
    state_key,
    strongly_connected_components,
    validate,
)
from .contraction import updated_prefactor, updated_weight
from .demos import (
    nested_cycle_chain,
    nested_cycle_chain_integer,
    tied_min_arc_chain,
    tied_optimum_chain,
    two_state_chain,
)
from .dot import export_dot
from .graphio import (
    dump_json,
    format_rational,
    graph_from_json_dict,
    graph_from_tsv,
    graph_to_json_dict,
    graph_to_tsv,
    load_graph,
    parse_rational,
    save_graph,
)
from .kinesin import (
    KinesinParams,
    SweepBoundary,
    SweepInterval,
    SweepResult,
    build_kinesin,
    kinesin_stop,
    kinesin_sweep,
    simplest_rational_between,
)
from .kmc import (
    GENERATOR_NAME,
    CoverageReport,
    Trajectory,
    TransitionCensus,
    census,
    census_vs_tgraph,
    exponential_ks,
    mean_occupancy,
    simulate,
    simulate_ensemble,
)
from .quasistationary import (
    ClassDistribution,
    CycleDistribution,
    cycle_exit_exponent,
    quasi_invariant_class,
    quasi_invariant_cycle,
)
from .spectral import (
    CharpolyReport,
    SpectralEstimate,
    SpectralRow,
    charpoly_identity_check,
    compare_spectrum,
    count_near_zero,
    eigenvalue_estimates,
    eigenvalue_magnitudes,
    numerical_eigenvalues,
)
from .stopping import StopCriterion
from .wgraph import (
    DEFAULT_ENUMERATION_CAP,
    WGraph,
    enumerate_all_optimal,
    enumerate_optimal,
    enumerate_wgraphs,
    extract_wgraph,
    weak_nested_violations,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core graph model
    "Arc",
    "ChainGraph",
    "ClosedClasses",
    "GeneratorMatrix",
    "GraphError",
    "ValidationFailure",
    "ValidationReport",
    "SymmetryError",
    "EnumerationCapError",
    "InternalInvariantError",
    "chain_graph",
    "closed_communicating_classes",
    "generator_matrix",
    "min_arcs",
    "state_key",
    "strongly_connected_components",
    "validate",
    # sweeps
    "Bucket",
    "TGraph",
    "SinkRecord",
    "CycleRecord",
    "Alg1Report",
    "HierarchyNode",
    "run_algorithm1",
    "cycle_hierarchy",
    "updated_weight",
    "updated_prefactor",
    "ClassRecord",
    "Alg2Report",
    "run_algorithm2",
    "class_hierarchy",
    "ComparisonReport",
    "compare_alg1_alg2",
    "StopCriterion",
    # in-forests
    "WGraph",
    "enumerate_wgraphs",
    "enumerate_optimal",
    "enumerate_all_optimal",
    "extract_wgraph",
    "weak_nested_violations",
    "DEFAULT_ENUMERATION_CAP",
    # spectra
    "numerical_eigenvalues",
    "eigenvalue_magnitudes",
    "count_near_zero",
    "SpectralEstimate",
    "eigenvalue_estimates",
    "SpectralRow",
    "compare_spectrum",
    "CharpolyReport",
    "charpoly_identity_check",
    # quasi-invariant distributions
    "CycleDistribution",
    "quasi_invariant_cycle",
    "cycle_exit_exponent",
    "ClassDistribution",
    "quasi_invariant_class",
    # sampling
    "GENERATOR_NAME",
    "Trajectory",
    "TransitionCensus",
    "CoverageReport",
    "simulate",
    "simulate_ensemble",
    "census",
    "census_vs_tgraph",
    "mean_occupancy",
    "exponential_ks",
    # motor model
    "KinesinParams",
    "build_kinesin",
    "kinesin_stop",
    "SweepInterval",
    "SweepBoundary",
    "SweepResult",
    "kinesin_sweep",
    "simplest_rational_between",
    # io and rendering
    "parse_rational",
    "format_rational",
    "dump_json",
    "load_graph",
    "save_graph",
    "graph_to_json_dict",
    "graph_from_json_dict",
    "graph_to_tsv",
    "graph_from_tsv",
    "export_dot",
    # example chains
    "nested_cycle_chain",
    "nested_cycle_chain_integer",
    "two_state_chain",
    "tied_min_arc_chain",
    "tied_optimum_chain",
]
