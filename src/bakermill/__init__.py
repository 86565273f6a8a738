"""Solver and verification toolkit for the bakers-and-millers location game."""

from .dynamics import (
    DynamicsTrace,
    Move,
    ScriptError,
    ScriptedMove,
    WeightedInstance,
    run_dynamics,
    state_signature,
    step_improving,
    trace_lines,
    weighted_utilities,
)
from .model import (
    GameError,
    Instance,
    InvalidInstanceError,
    InvalidProfileError,
    Occupancy,
    StrategyProfile,
    baker_utility,
    coverage,
    format_fraction,
    harmonic,
    is_baker_equilibrium,
    is_miller_equilibrium,
    is_nash_equilibrium,
    miller_utility,
    occupancy,
    potential_value,
    validate_profile,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    OracleReport,
    brute_potential_max,
    enumerate_all_ne,
    optimal_coverage,
    oracle_report,
    poa_pos,
    resolve_budget,
    search_space,
)
from .reductions import (
    EXAMPLE_TAGS,
    CoverageProblem,
    CoverageReduction,
    ExampleInstance,
    example_instance,
    fig7_cycle_script,
    gen_poa_family,
    gen_pos_family,
    reduce_to_optimal_ne_instance,
    reduce_to_optimum_instance,
)
from .serialization import (
    ParseError,
    instance_digest,
    parse_instance,
    parse_profile,
    parse_script,
    serialize_instance,
    serialize_profile,
    serialize_script,
)
from .solver import (
    GreedyOrder,
    SolveReport,
    compute_equilibrium,
    covered_bakers,
    greedy_k_coverage,
    phase1_concentrate,
    phase2_insert_millers,
    phase3_rebalance,
    stable_from_location_set,
)

__version__ = "0.1.0"
