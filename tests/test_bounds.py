import tracemalloc

import numpy as np
import pytest

from ccdiscord import (
    BlochForm,
    MeasurementPair,
    adaptive_bound,
    cc_discord,
    cq_discord,
    degenerate_optimized_bounds,
    hs_distance_sq,
    iterate_adaptive,
    k_matrix_x,
    k_matrix_y,
    l_matrix_x,
    l_matrix_y,
    measure_a,
    measure_ab,
    nonadaptive_bound,
    nonoptimal_optimized_aub,
    purity_norm_sq,
    qc_discord,
)
from ccdiscord import bounds
from ccdiscord.bounds import (
    CIRCLE_SAMPLES,
    SPHERE_SAMPLES,
    Branch,
    _best_product_pair,
    _candidates,
)
from ccdiscord.discords import is_top_degenerate
from ccdiscord.presets import example1, example2, example3, h_state, random_state, werner

from conftest import random_rotation


def h_aub_exact(p):
    """Piecewise closed form of the adaptive bound on the benchmark family."""
    if p <= 0.5:
        return p * p / 2
    return (7 * p * p - 8 * p + 3) / 4


def test_l_matrices_are_rank_at_most_two(random_states):
    for b in random_states[:10]:
        kx = np.linalg.eigh(np.outer(b.x, b.x) + b.T @ b.T.T)[1][:, -1]
        ky = np.linalg.eigh(np.outer(b.y, b.y) + b.T.T @ b.T)[1][:, -1]
        for mat in (l_matrix_x(b, ky), l_matrix_y(b, kx)):
            w = np.linalg.eigvalsh(mat)
            assert w[0] >= -1e-12
            assert abs(w[0]) < 1e-10  # smallest of three vanishes


def test_l_matrix_elementwise_example():
    b = example3()
    m = np.array([0.0, 0.0, 1.0])
    expected = np.outer(b.x, b.x) + np.outer(b.T @ m, b.T @ m)
    assert np.allclose(l_matrix_x(b, m), expected, atol=1e-15)
    n = np.array([1.0, 0.0, 0.0])
    expected = np.outer(b.y, b.y) + np.outer(b.T.T @ n, b.T.T @ n)
    assert np.allclose(l_matrix_y(b, n), expected, atol=1e-15)


def test_nonadaptive_bound_example1():
    assert nonadaptive_bound(example1()).value == pytest.approx(
        5 * (3 - np.sqrt(3)) / 192, abs=1e-12
    )


def test_nonadaptive_bound_example2():
    assert nonadaptive_bound(example2()).value == pytest.approx(
        (28 - 11 * np.sqrt(3)) / 384, abs=1e-12
    )


def test_adaptive_bound_example1():
    assert adaptive_bound(example1()).value == pytest.approx(
        (21 - 5 * np.sqrt(3)) / 384, abs=1e-12
    )


def test_adaptive_bound_example2():
    assert adaptive_bound(example2()).value == pytest.approx(0.02326, abs=1.2e-5)


def test_bounds_example3():
    b = example3()
    assert nonadaptive_bound(b).value == pytest.approx(0.0284, abs=5.4e-5)
    assert adaptive_bound(b).value == pytest.approx(0.0281, abs=5.4e-5)


def test_h_state_adaptive_bound_closed_form():
    for p in np.linspace(0.01, 0.99, 25):
        for phi in (0.0, 1.1, np.pi / 2):
            got = adaptive_bound(h_state(p, phi)).value
            assert got == pytest.approx(h_aub_exact(p), abs=1e-12)


def test_h_state_nonadaptive_phi_dependence():
    # without the degenerate-outcome search the product bound picks up a
    # spurious phi dependent excess above the symmetric discord for p > 1/2
    p, phi = 2 / 3, np.pi / 2
    b = h_state(p, phi)
    ds = cc_discord(b).value
    assert nonadaptive_bound(b).value == pytest.approx(ds + 1 / 9, abs=1e-9)
    assert degenerate_optimized_bounds(b)["nub"].value == pytest.approx(ds, abs=1e-6)


def test_degenerate_optimization_closes_gap_at_phi_zero():
    b = h_state(2 / 3, 0.0)
    out = degenerate_optimized_bounds(b)
    ds = cc_discord(b).value
    assert out["aub"].value == pytest.approx(ds, abs=1e-9)
    assert out["nub"].value == pytest.approx(ds, abs=1e-9)


def test_degenerate_optimization_never_exceeds_plain(random_states):
    for b in random_states[:8]:
        out = degenerate_optimized_bounds(b)
        assert out["nub"].value <= nonadaptive_bound(b).value + 1e-12
        assert out["aub"].value <= adaptive_bound(b).value + 1e-12


def test_nonoptimal_optimized_aub_example1():
    b = example1()
    tilde = nonoptimal_optimized_aub(b)
    assert tilde.value <= adaptive_bound(b).value + 1e-12
    assert tilde.value >= cc_discord(b).value - 1e-9


def test_nonoptimal_aub_continuous_at_crossing():
    eps = 1e-6
    lo = nonoptimal_optimized_aub(h_state(0.5 - eps, 1.0)).value
    hi = nonoptimal_optimized_aub(h_state(0.5 + eps, 1.0)).value
    assert abs(lo - hi) < 1e-4


def test_adaptive_bound_discontinuity():
    eps = 1e-6
    assert adaptive_bound(h_state(0.5 - eps, 0.7)).value == pytest.approx(1 / 8, abs=1e-5)
    assert adaptive_bound(h_state(0.5 + eps, 0.7)).value == pytest.approx(3 / 16, abs=1e-5)


def test_inequality_chain(random_states):
    for b in random_states:
        ds = cc_discord(b).value
        aub = adaptive_bound(b).value
        nub = nonadaptive_bound(b).value
        assert max(cq_discord(b).value, qc_discord(b).value) <= ds + 1e-9
        assert ds <= aub + 1e-9
        assert aub <= nub + 1e-12


def test_sigma_value_is_distance(random_states):
    for b in random_states[:10]:
        for bound in (nonadaptive_bound(b), adaptive_bound(b)):
            assert bound.value == pytest.approx(
                hs_distance_sq(b, bound.sigma), abs=1e-13
            )
            assert bound.value == pytest.approx(
                purity_norm_sq(b) - purity_norm_sq(bound.sigma), abs=1e-13
            )


def test_sigma_is_fixed_point_of_measurement(random_states):
    for b in random_states[:10]:
        bound = adaptive_bound(b)
        again = measure_ab(bound.sigma, bound.directions)
        assert bound.sigma.allclose(again, atol=1e-12)


def test_adaptive_refines_via_one_sided_output(random_states):
    # measuring side a first and building the side b direction from the
    # measured state reproduces one of the two adaptive candidates
    for b in random_states[:10]:
        kx = np.linalg.eigh(np.outer(b.x, b.x) + b.T @ b.T.T)[1][:, -1]
        after = measure_a(b, kx)
        ky_after = np.linalg.eigh(
            np.outer(after.y, after.y) + after.T.T @ after.T
        )[1][:, -1]
        ly = np.linalg.eigh(l_matrix_y(b, kx))[1][:, -1]
        assert abs(abs(ky_after @ ly) - 1) < 1e-9


def test_iteration_example1_two_steps():
    trace = iterate_adaptive(example1())
    assert trace.converged and not trace.stalled
    ds = cc_discord(example1()).value
    deltas = [s.value - ds for s in trace.steps]
    assert deltas[0] == pytest.approx(8.85e-4, rel=0.01)
    assert abs(deltas[1]) < 1e-12


def test_iteration_example2_delta_sequence():
    trace = iterate_adaptive(example2())
    ds = cc_discord(example2()).value
    deltas = [s.value - ds for s in trace.steps]
    expected = [4.28e-5, 4.77e-7, 5.53e-9, 6.44e-11]
    for got, want in zip(deltas, expected):
        assert got == pytest.approx(want, rel=0.01)
    assert trace.converged


def test_iteration_example3_endpoints():
    trace = iterate_adaptive(example3())
    ds = cc_discord(example3()).value
    deltas = [s.value - ds for s in trace.steps]
    assert deltas[0] == pytest.approx(1.71e-4, rel=0.01)
    assert min(deltas) < 1e-9
    assert trace.converged


def test_iteration_monotone_and_bounded(random_states):
    for b in random_states[:10]:
        trace = iterate_adaptive(b)
        values = [s.value for s in trace.steps]
        assert all(v2 <= v1 + 1e-14 for v1, v2 in zip(values, values[1:]))
        assert values[0] <= adaptive_bound(b).value + 1e-12
        assert values[-1] >= cc_discord(b).value - 1e-9


def test_iteration_stalls_on_benchmark_family():
    trace = iterate_adaptive(h_state(0.55, np.pi / 2))
    assert trace.stalled and not trace.converged
    values = [s.value for s in trace.steps]
    assert max(values) - min(values) < 1e-12


def test_optimized_iteration_beats_plain_on_stall():
    b = h_state(0.55, np.pi / 2)
    plain = iterate_adaptive(b).final_value
    opt = iterate_adaptive(b, optimized=True).final_value
    assert opt <= plain + 1e-12
    # this family is known to keep a strict gap under the plain scheme
    assert plain - cc_discord(b).value > 1e-4


def test_faithfulness_on_classical_states(rng, random_states):
    # correlation classical states have vanishing bound, and a small
    # admixture of entanglement makes it strictly positive
    from conftest import random_unit

    bell = BlochForm(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
    for b in random_states[:10]:
        pair = MeasurementPair(random_unit(rng), random_unit(rng))
        cc = measure_ab(b, pair)
        assert adaptive_bound(cc).value < 1e-10
        eps = 1e-3
        mixed = BlochForm(
            (1 - eps) * cc.x, (1 - eps) * cc.y, (1 - eps) * cc.T + eps * bell.T
        )
        assert adaptive_bound(mixed).value > 1e-9


def test_bounds_are_lu_covariant(rng):
    b = example3()
    ref_n, ref_a = nonadaptive_bound(b).value, adaptive_bound(b).value
    for _ in range(5):
        oa, ob = random_rotation(rng), random_rotation(rng)
        rotated = BlochForm(oa @ b.x, ob @ b.y, oa @ b.T @ ob.T)
        assert nonadaptive_bound(rotated).value == pytest.approx(ref_n, abs=1e-12)
        assert adaptive_bound(rotated).value == pytest.approx(ref_a, abs=1e-12)


def test_werner_bounds_tight():
    b = werner(0.7)
    ds = cc_discord(b).value
    assert adaptive_bound(b).value == pytest.approx(ds, abs=1e-9)
    assert nonadaptive_bound(b).value == pytest.approx(ds, abs=1e-9)


def test_gap_statistic_is_small(random_states):
    gaps = []
    for b in random_states[:20]:
        gaps.append(adaptive_bound(b).value - cc_discord(b).value)
    gaps = np.array(gaps)
    assert np.all(gaps >= -1e-9)
    assert np.median(gaps) < 1e-3


def pair_grid_norms(b, ns, ms):
    """Matrix of ||sigma||^2 over all (row of ns, row of ms) pairs."""
    xn = (ns @ b.x) ** 2
    ym = (ms @ b.y) ** 2
    c = ns @ b.T @ ms.T
    return 0.25 * (1.0 + xn[:, None] + ym[None, :] + c * c)


def per_candidate_search(groups):
    """Brute-force reference for bounds._best_adapted: for every k
    candidate, sample the eigenspaces of its L matrix (_candidates with
    ``groups``) and keep the best pair, S' first and S'' only if
    strictly better."""

    def search(b, kx_cands, ky_cands):
        best = (-np.inf, None, None, Branch.S_PRIME)
        for kx in kx_cands:
            ly = _candidates(l_matrix_y(b, kx), groups)
            row = pair_grid_norms(b, kx[None, :], ly)[0]
            j = int(np.argmax(row))
            if row[j] > best[0]:
                best = (row[j], kx, ly[j], Branch.S_PRIME)
        for ky in ky_cands:
            lx = _candidates(l_matrix_x(b, ky), groups)
            col = pair_grid_norms(b, lx, ky[None, :])[:, 0]
            i = int(np.argmax(col))
            if col[i] > best[0]:
                best = (col[i], lx[i], ky, Branch.S_DPRIME)
        return best

    return search


@pytest.mark.parametrize(
    "b",
    [h_state(p, phi) for p in (0.0, 0.3, 0.5, 0.6, 1.0) for phi in (0.0, np.pi / 2)]
    + [random_state(4, s) for s in range(30)],
)
def test_best_adapted_matches_per_candidate_loop(b, monkeypatch):
    # K spectra: simple top with a 2-fold rest (p = 0.3), 2-fold top (p = 0.6),
    # 3-fold (p = 1/2, 1) and generic (random states)
    deg = degenerate_optimized_bounds(b)["aub"]
    tilde = nonoptimal_optimized_aub(b)
    trace = iterate_adaptive(b, optimized=True)
    monkeypatch.setattr(bounds, "_best_adapted", per_candidate_search("top"))
    ref_deg = degenerate_optimized_bounds(b)["aub"]
    monkeypatch.setattr(bounds, "_best_adapted", per_candidate_search("all"))
    ref_tilde = nonoptimal_optimized_aub(b)
    ref_trace = iterate_adaptive(b, optimized=True)

    assert deg.value == pytest.approx(ref_deg.value, abs=1e-12)
    assert tilde.value == pytest.approx(ref_tilde.value, abs=1e-12)
    assert len(trace.steps) == len(ref_trace.steps)
    assert (trace.stalled, trace.converged) == (ref_trace.stalled, ref_trace.converged)
    for got, want in zip(trace.steps, ref_trace.steps):
        assert got.value == pytest.approx(want.value, abs=1e-12)


@pytest.mark.parametrize(
    "b",
    [h_state(p, phi) for p in (0.5, 0.6, 1.0) for phi in (0.0, np.pi / 2)]
    + [random_state(4, s) for s in range(10)],
)
def test_best_product_pair_attains_double_loop_max(b):
    # K spectra: 3-fold (p = 1/2, 1), 2-fold (p = 0.6) and generic
    ns = _candidates(k_matrix_x(b))
    ms = _candidates(k_matrix_y(b))
    x, y, t = b.x.tolist(), b.y.tolist(), b.T.tolist()
    ns, ms = ns.tolist(), ms.tolist()
    tms = [[sum(t[r][k] * m[k] for k in range(3)) for r in range(3)] for m in ms]
    yms = [(m[0] * y[0] + m[1] * y[1] + m[2] * y[2]) ** 2 for m in ms]

    def norm_sq(n, tm, ym):
        c = n[0] * tm[0] + n[1] * tm[1] + n[2] * tm[2]
        return 0.25 * (1.0 + (n[0] * x[0] + n[1] * x[1] + n[2] * x[2]) ** 2 + ym + c * c)

    best = max(norm_sq(n, tm, ym) for n in ns for tm, ym in zip(tms, yms))
    i, j = _best_product_pair(b, np.array(ns), np.array(ms))
    assert norm_sq(ns[i], tms[j], yms[j]) == pytest.approx(best, abs=1e-15)


@pytest.mark.parametrize("cells", [4096, bounds.PAIR_BLOCK_CELLS])
@pytest.mark.parametrize(
    "b", [h_state(0.5, 0.7), h_state(1.0, 0.0), h_state(0.6, 0.2), random_state(4, 1)]
)
def test_best_product_pair_block_scan_matches_full_argmax(b, cells, monkeypatch):
    # tied maxima on the 3-fold families (p = 1/2, 1): the block scan
    # must keep the grid's first maximum.  Blocks of one row would go
    # through a vector-matrix product, whose rounding may differ from the
    # rows of the whole grid; these sizes give 5 and 160 rows per block
    # on the 815-column grids.
    monkeypatch.setattr(bounds, "PAIR_BLOCK_CELLS", cells)
    ns = _candidates(k_matrix_x(b))
    ms = _candidates(k_matrix_y(b))
    g = ns @ b.T @ ms.T
    g *= g
    g += ((ns @ b.x) ** 2)[:, None]
    g += (ms @ b.y) ** 2
    assert _best_product_pair(b, ns, ms) == np.unravel_index(np.argmax(g), g.shape)


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_degenerate_optimized_bounds_memory_is_bounded(p):
    # two 3-fold eigenspaces give an 815 x 815 pair grid (5.3 MB whole)
    b = h_state(p, 0.7)
    degenerate_optimized_bounds(b)
    tracemalloc.start()
    try:
        degenerate_optimized_bounds(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def rotated(diag):
    q = random_rotation(np.random.default_rng(5))
    return q @ np.diag(diag) @ q.T


@pytest.mark.parametrize(
    "mat, sizes",
    [
        # gap 5e-10 > 1e-9 * 0.3: a simple top, as cq_discord reports it
        (np.diag([0.3, 0.3 - 5e-10, 0.1]), [1, 1, 1]),
        (np.diag([0.3, 0.3 - 2e-10, 0.1]), [2, 1]),
        (np.diag([0.5, 0.2, 0.2]), [1, 2]),
        (np.diag([0.5, 0.2, 0.1]), [1, 1, 1]),
        (np.diag([0.3, 0.3, 0.3]), [3]),
        (np.diag([5e-13, 0.0, 0.0]), [3]),  # below the absolute tolerance
        (rotated([0.4, 0.4, 0.1]), [2, 1]),
    ],
)
def test_candidates_group_by_degeneracy_rule(mat, sizes):
    top, every = _candidates(mat, "top"), _candidates(mat, "all")
    rows = {1: 1, 2: 2 + CIRCLE_SAMPLES, 3: 3 + SPHERE_SAMPLES}
    assert len(top) == rows[sizes[0]]
    assert len(every) == sum(rows[s] for s in sizes)
    np.testing.assert_array_equal(every[: len(top)], top)

    w = np.linalg.eigvalsh(mat)[::-1]
    edges = np.cumsum([0] + sizes)
    for i in (1, 2):
        assert is_top_degenerate(w[i - 1 :]) == (i not in edges)
    # each row is a unit vector of its group's eigenspace
    assert np.linalg.norm(every, axis=1) == pytest.approx(1.0, abs=1e-15)
    rayleigh = np.einsum("ij,jk,ik->i", every, mat, every)
    assert rayleigh[0] == pytest.approx(w[0], abs=1e-15)
    start = 0
    for lo, hi in zip(edges, edges[1:]):
        n = rows[hi - lo]
        group = rayleigh[start : start + n]
        assert np.all(group >= w[hi - 1] - 1e-15) and np.all(group <= w[lo] + 1e-15)
        start += n


@pytest.mark.parametrize(
    "b", [h_state(p, 0.9) for p in (0.3, 0.5, 0.6)] + [random_state(4, s) for s in range(3)]
)
def test_candidates_top_matches_cq_discord_flag(b):
    for res, mat in ((cq_discord(b), k_matrix_x(b)), (qc_discord(b), k_matrix_y(b))):
        assert res.degenerate == (len(_candidates(mat)) > 1)
