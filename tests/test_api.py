import ccdiscord

# The public API.  A change to it is made here on purpose, together with
# the change to ccdiscord/__init__.py.
PUBLIC_API = {
    "AsymDiscordResult",
    "BlochForm",
    "BoundResult",
    "Branch",
    "CcDiscordResult",
    "GridSpec",
    "InvalidParameters",
    "InvalidState",
    "IterationTrace",
    "MeasurementPair",
    "adaptive_bound",
    "bloch_from_json_dict",
    "bloch_to_json_dict",
    "canonicalize",
    "cc_discord",
    "check_observation2",
    "cq_discord",
    "degenerate_optimized_bounds",
    "dump_state",
    "from_bloch",
    "grid_cc_discord",
    "hs_distance_sq",
    "iterate_adaptive",
    "k_matrix_x",
    "k_matrix_y",
    "l_matrix_x",
    "l_matrix_y",
    "load_state",
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
}


def test_public_api_is_pinned():
    assert len(ccdiscord.__all__) == len(set(ccdiscord.__all__))
    assert set(ccdiscord.__all__) == PUBLIC_API
    namespace = {}
    exec("from ccdiscord import *", namespace)
    assert PUBLIC_API <= namespace.keys()
