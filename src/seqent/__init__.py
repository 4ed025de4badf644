"""Countable dynamical systems with prescribed supremum sequence entropy.

The package builds two families of countable systems, the head-indexed
family (supremum entropy log m) and the dense family (infinite supremum
entropy), and verifies their combinatorial properties exactly at a finite
horizon: independence sets, growth rules, part structure, shiftability,
and cross-petal separation of composites. Negative searches return
replayable exhaustion certificates.
"""

from .checks import (
    CheckReport, check_block_parts, check_distance_uniqueness,
    check_part_structure, check_shiftability, far_offsets, part_expected_times,
    validate_growth, verify_block_independence,
    verify_dense_block_independence, verify_far_pair_exclusion,
)
from .construct import (
    GrowthSchedule, WindPlan, build_log_infty, build_log_m,
    chain_min_interior, default_dense_schedule, minimal_schedule, patterns,
    plan_wind,
)
from .entropy import HStarEvidence, h_star_lower_bound
from .errors import (
    CapExceeded, HorizonExceeded, Infeasible, InvalidConfig,
    ResourceBudgetExceeded, ScheduleInvalid, SeqentError, UnknownBlock,
)
from .flower import (
    CompositeSystem, PetalSystem, Value, compose, cross_petal_check,
    value_calculus,
)
from .formats import (
    config_hash, manifest_string, read_certificate, read_manifest,
    rebuild_from_manifest, replay_certificate, replay_manifest,
    write_certificate, write_manifest, write_report, write_symbols,
)
from .independence import (
    ExhaustionCertificate, IndependenceResult, IndependenceWitness,
    MaxIndependenceResult, OccupancyVector, SearchBudget,
    is_independence_set, max_independence, occupancy,
    shift_property_check,
)
from .model import (
    FAMILY_LOG_INFTY, FAMILY_LOG_M, BlockRecord, ModelPoint, NeighborhoodSpec,
    SegmentationManifest, Symbol, Trajectory, dense_index, dense_value,
    infinity_window, itinerary_hits, iterate, parse_symbol, point_member, step,
)

__version__ = "0.1.0"

__all__ = [
    # checks
    "CheckReport", "check_block_parts", "check_distance_uniqueness",
    "check_part_structure", "check_shiftability", "far_offsets",
    "part_expected_times", "validate_growth", "verify_block_independence",
    "verify_dense_block_independence", "verify_far_pair_exclusion",
    # construct
    "GrowthSchedule", "WindPlan", "build_log_infty", "build_log_m",
    "chain_min_interior", "default_dense_schedule", "minimal_schedule",
    "patterns", "plan_wind",
    # entropy
    "HStarEvidence", "h_star_lower_bound",
    # errors
    "CapExceeded", "HorizonExceeded", "Infeasible", "InvalidConfig",
    "ResourceBudgetExceeded", "ScheduleInvalid", "SeqentError", "UnknownBlock",
    # flower
    "CompositeSystem", "PetalSystem", "Value", "compose", "cross_petal_check",
    "value_calculus",
    # formats
    "config_hash", "manifest_string", "read_certificate", "read_manifest",
    "rebuild_from_manifest", "replay_certificate", "replay_manifest",
    "write_certificate", "write_manifest", "write_report", "write_symbols",
    # independence
    "ExhaustionCertificate", "IndependenceResult", "IndependenceWitness",
    "MaxIndependenceResult", "OccupancyVector", "SearchBudget",
    "is_independence_set", "max_independence", "occupancy",
    "shift_property_check",
    # model
    "FAMILY_LOG_INFTY", "FAMILY_LOG_M", "BlockRecord", "ModelPoint",
    "NeighborhoodSpec", "SegmentationManifest", "Symbol", "Trajectory",
    "dense_index", "dense_value", "infinity_window", "itinerary_hits",
    "iterate", "parse_symbol", "point_member", "step",
    # submodules
    "checks", "construct", "entropy", "errors", "flower", "formats",
    "independence", "model",
]
