"""heatlab: heat-semigroup asymptotics on finite weighted graphs.

Build a weighted graph (or discretize a metric graph), assemble its
Laplacian with killing term, and study the large-time behaviour of
e^{-tL}: heat kernels and their axioms, convergence of the rescaled
kernel to the ground-state product, log-asymptotic rates against the
spectral bottom, positivity improvement versus connectivity,
Schroedinger perturbations through monotone potential truncations, and
a non-selfadjoint shift model whose orbit rates move with the datum.
"""
from .errors import (
    HeatlabError,
    InvariantViolation,
    NumericsError,
    ValidationError,
)
from .graphs import (
    WeightedGraph,
    build_graph,
    components,
    dirichlet_energy,
    dump_graph,
    graph_to_dict,
    is_connected,
    load_graph,
    restrict,
    validate_graph,
)
from .operators import (
    OperatorRep,
    SpectralAtoms,
    SpectralData,
    SpectralMeasure,
    assemble,
    coefficients,
    decay_factors,
    eigendecompose,
    kernel_sum,
    log_sum_exp,
    shift_by_potential,
    spectral_measure,
)
from .semigroup import (
    KRYLOV,
    SCALING_SQUARING,
    SPECTRAL,
    HeatKernel,
    SemigroupMethod,
    apply,
    chapman_kolmogorov_defect,
    heat_kernel,
    kernel_column,
    kernel_symmetry_defect,
    resolvent,
    series_expm,
    trotter,
)
from .reference import OracleReport, TaylorExpm, rayleigh_min, taylor_expm
from .asymptotics import (
    GroundStateProfile,
    RateEstimate,
    TimeGrid,
    groundstate_limit,
    kernel_factorization_defects,
    positivity_improving,
    rate_inner,
    rate_kernel,
    strong_convergence_check,
)
from .perturbation import (
    AdmissibilityVerdict,
    ApproximatedSolution,
    Potential,
    ProbeReport,
    SvReport,
    TruncationLadder,
    admissibility_check,
    approximated_solution,
    exhaustion_divergence_probe,
    lambda0,
    sv_limit,
    truncated_semigroup,
    truncation_ladder,
)
from .counterexample import (
    ShiftModel,
    closed_orbit,
    counterexample_rate,
    is_positivity_improving_shift,
    shift_model,
    shift_orbit,
)
from .metric_graphs import (
    MetricGraph,
    discretize,
    load_metric_graph,
    metric_graph_to_dict,
    validate_metric_graph,
)
from .verify import random_graph, random_vector, run_suite

__version__ = "0.1.0"

__all__ = [
    "HeatlabError", "ValidationError", "NumericsError", "InvariantViolation",
    "WeightedGraph", "validate_graph", "build_graph", "load_graph",
    "dump_graph", "graph_to_dict", "restrict", "is_connected", "components",
    "dirichlet_energy",
    "OperatorRep", "SpectralData", "SpectralAtoms", "SpectralMeasure",
    "assemble", "eigendecompose", "shift_by_potential", "coefficients",
    "spectral_measure", "decay_factors", "kernel_sum", "log_sum_exp",
    "SemigroupMethod", "SPECTRAL", "SCALING_SQUARING", "KRYLOV",
    "HeatKernel", "apply", "heat_kernel", "kernel_column",
    "kernel_symmetry_defect", "chapman_kolmogorov_defect", "series_expm",
    "resolvent", "trotter",
    "OracleReport", "TaylorExpm", "taylor_expm", "rayleigh_min",
    "TimeGrid", "RateEstimate", "GroundStateProfile", "rate_inner",
    "rate_kernel", "kernel_factorization_defects", "groundstate_limit",
    "strong_convergence_check", "positivity_improving",
    "Potential", "TruncationLadder", "SvReport", "AdmissibilityVerdict",
    "ApproximatedSolution", "ProbeReport", "lambda0", "truncated_semigroup",
    "truncation_ladder", "sv_limit", "admissibility_check",
    "approximated_solution", "exhaustion_divergence_probe",
    "ShiftModel", "shift_model", "closed_orbit", "shift_orbit",
    "counterexample_rate", "is_positivity_improving_shift",
    "MetricGraph", "validate_metric_graph", "load_metric_graph",
    "metric_graph_to_dict", "discretize",
    "random_graph", "random_vector", "run_suite",
    "__version__",
]
