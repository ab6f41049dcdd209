"""Geometric quantum discords of two-qubit states and their
measurement-based upper bounds."""

from .bloch import (
    BlochForm,
    InvalidParameters,
    InvalidState,
    bloch_from_json_dict,
    bloch_to_json_dict,
    dump_state,
    from_bloch,
    hs_distance_sq,
    load_state,
    purity_norm_sq,
    to_bloch,
)
from .bounds import (
    BoundResult,
    Branch,
    IterationTrace,
    adaptive_bound,
    degenerate_optimized_bounds,
    iterate_adaptive,
    nonadaptive_bound,
    nonoptimal_optimized_aub,
)
from .discords import (
    AsymDiscordResult,
    CcDiscordResult,
    cc_discord,
    cq_discord,
    k_matrix_x,
    k_matrix_y,
    l_matrix_x,
    l_matrix_y,
    qc_discord,
)
from .measurements import (
    MeasurementPair,
    canonicalize,
    measure_a,
    measure_ab,
    versor,
)
from .oracle import GridSpec, check_observation2, grid_cc_discord
from .presets import make, random_state

__all__ = [
    "AsymDiscordResult",
    "BlochForm",
    "bloch_from_json_dict",
    "bloch_to_json_dict",
    "dump_state",
    "load_state",
    "BoundResult",
    "Branch",
    "CcDiscordResult",
    "GridSpec",
    "InvalidParameters",
    "InvalidState",
    "IterationTrace",
    "MeasurementPair",
    "adaptive_bound",
    "canonicalize",
    "cc_discord",
    "check_observation2",
    "cq_discord",
    "degenerate_optimized_bounds",
    "from_bloch",
    "grid_cc_discord",
    "hs_distance_sq",
    "iterate_adaptive",
    "k_matrix_x",
    "k_matrix_y",
    "l_matrix_x",
    "l_matrix_y",
    "make",
    "measure_a",
    "measure_ab",
    "nonadaptive_bound",
    "nonoptimal_optimized_aub",
    "purity_norm_sq",
    "qc_discord",
    "random_state",
    "to_bloch",
    "versor",
]

__version__ = "0.1.0"
