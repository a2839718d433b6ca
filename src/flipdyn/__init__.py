"""Flip dynamics on graph colorings.

A library for the single-site/cluster flip chain on proper k-colorings of
bounded-degree graphs: exact one-step couplings between neighboring
colorings, the linear programs that rate the worst coupled blocks, an
exact rational simplex with constraint generation, worst-case pair
constructions, and reproducible Monte Carlo experiments for the
variable-length coupling analysis.
"""

from .classify import (
    BAD_SIGNATURES,
    Stage,
    StageStepMasses,
    StageWalkResult,
    StateCounts,
    StateLabel,
    classify_color,
    gamma_bound,
    stage_step_masses,
    state_counts,
)
from .constructions import (
    ConstructionSpec,
    analytic_one_step_change,
    build_construction,
)
from .coupling import (
    CoupledMove,
    CouplingDistribution,
    Signature,
    TerminationRecord,
    expected_distance_change,
    greedy_coupling_distribution,
    signature,
    terminating_mass,
    variable_length_coupling,
)
from .dynamics import (
    PRESET_VECTORS,
    FlipProbabilities,
    alt_vector,
    flip_step,
    flip_step_distribution,
    mixed_vector,
    resolve_probabilities,
    stationary_check_tiny,
    vigoda_vector,
)
from .errors import CapacityError, FlipDynError, InputError, InvariantError
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    estimate_gamma_empirical,
    run_coupling_experiment,
    run_stage_experiment,
)
from .graphs import (
    Coloring,
    Graph,
    NeighboringPair,
    alternating_component,
    enumerate_flips,
    flip,
    hamming,
    is_proper,
    read_pair_file,
    write_pair_file,
)
from .lp import (
    LPInstance,
    LPSolution,
    build_mixed_lp,
    build_tight_lp,
    build_vigoda_lp,
    h_value,
    mixing_time_bound,
    extend_assignment,
    slack_report,
    solve,
    solve_float,
)

__version__ = "0.1.0"

__all__ = [
    "BAD_SIGNATURES",
    "CapacityError",
    "Coloring",
    "ConstructionSpec",
    "CoupledMove",
    "CouplingDistribution",
    "ExperimentConfig",
    "ExperimentReport",
    "FlipDynError",
    "FlipProbabilities",
    "Graph",
    "InputError",
    "InvariantError",
    "LPInstance",
    "LPSolution",
    "NeighboringPair",
    "PRESET_VECTORS",
    "Signature",
    "Stage",
    "StageStepMasses",
    "StageWalkResult",
    "StateCounts",
    "StateLabel",
    "TerminationRecord",
    "alt_vector",
    "analytic_one_step_change",
    "build_construction",
    "build_mixed_lp",
    "build_tight_lp",
    "build_vigoda_lp",
    "classify_color",
    "estimate_gamma_empirical",
    "expected_distance_change",
    "flip_step",
    "flip_step_distribution",
    "gamma_bound",
    "greedy_coupling_distribution",
    "h_value",
    "mixed_vector",
    "mixing_time_bound",
    "alternating_component",
    "enumerate_flips",
    "flip",
    "hamming",
    "is_proper",
    "read_pair_file",
    "resolve_probabilities",
    "run_coupling_experiment",
    "run_stage_experiment",
    "signature",
    "extend_assignment",
    "slack_report",
    "solve",
    "solve_float",
    "stage_step_masses",
    "state_counts",
    "stationary_check_tiny",
    "terminating_mass",
    "variable_length_coupling",
    "vigoda_vector",
    "write_pair_file",
]
