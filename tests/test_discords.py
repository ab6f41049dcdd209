import numpy as np
import pytest

from ccdiscord import (
    BlochForm,
    InvalidState,
    cc_discord,
    cq_discord,
    iterate_adaptive,
    k_matrix_x,
    k_matrix_y,
    purity_norm_sq,
    qc_discord,
    random_state,
)
from ccdiscord.cli import build_report
from ccdiscord.discords import (
    ASCENT_ROUNDS,
    NEWTON_STEPS,
    _derivatives,
    _newton,
    adapt,
    cc_objective,
    cc_objective_batch,
    fibonacci_hemisphere,
    l_matrix_x,
    l_matrix_y,
)
from ccdiscord.presets import bell_diagonal, example1, example2, example3, h_state, werner

from conftest import random_rotation, random_unit


def test_k_matrix_h_state():
    for p in [0.2, 0.5, 0.8]:
        b = h_state(p, 0.6)
        q = (1 - 2 * p) ** 2 + (1 - p) ** 2
        assert np.allclose(k_matrix_x(b), np.diag([p * p, p * p, q]), atol=1e-14)
        assert np.allclose(k_matrix_y(b), np.diag([p * p, p * p, q]), atol=1e-14)


def test_k_matrix_zero():
    b = BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert np.allclose(k_matrix_x(b), 0)


def test_k_matrix_example1_elementwise():
    b = example1()
    expected = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            expected[i, j] = b.x[i] * b.x[j] + sum(
                b.T[i, k] * b.T[j, k] for k in range(3)
            )
    assert np.allclose(k_matrix_x(b), expected, atol=1e-15)


def test_cq_discord_h_state_two_thirds():
    b = h_state(2 / 3, 0.4)
    assert cq_discord(b).value == pytest.approx(1 / 6, abs=1e-12)


def test_cq_discord_example1():
    assert cq_discord(example1()).value == pytest.approx((3 - np.sqrt(3)) / 64, abs=1e-12)


def test_cq_discord_maximally_mixed():
    b = BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert cq_discord(b).value == pytest.approx(0.0, abs=1e-15)


def test_cq_discord_rejects_invalid():
    with pytest.raises(InvalidState):
        cq_discord(BlochForm([3, 0, 0], [0, 0, 0], np.zeros((3, 3))))


def test_qc_discord_example3():
    # stated to three significant figures
    assert qc_discord(example3()).value == pytest.approx(0.0259, abs=5.3e-5)


def test_qc_is_cq_of_swap(random_states):
    for b in random_states[:15]:
        assert qc_discord(b).value == pytest.approx(cq_discord(b.swap()).value, abs=1e-13)


def test_bell_diagonal_discords_coincide():
    b = werner(0.8)
    da, db = cq_discord(b), qc_discord(b)
    ds = cc_discord(b)
    assert da.value == pytest.approx(db.value, abs=1e-13)
    assert ds.value == pytest.approx(da.value, abs=1e-9)


def test_cc_objective_matches_rank_two_eigen_oracle(rng, random_states):
    for b in random_states[:10]:
        xh = random_unit(rng)
        a = b.T.T @ xh
        mat = np.outer(a, a) + np.outer(b.y, b.y)
        expected = np.linalg.eigvalsh(mat)[-1] + (xh @ b.x) ** 2
        assert cc_objective(b, xh) == pytest.approx(expected, abs=1e-12)


def test_cc_objective_h_state_z_direction():
    for p in [0.15, 0.45, 0.85]:
        b = h_state(p, 1.3)
        expected = (1 - 2 * p) ** 2 + 2 * (1 - p) ** 2
        assert cc_objective(b, [0, 0, 1]) == pytest.approx(expected, abs=1e-13)


def test_cc_objective_diagonal_case():
    b = BlochForm(np.zeros(3), np.zeros(3), np.diag([0.7, 0.4, 0.1]))
    assert cc_objective(b, [1, 0, 0]) == pytest.approx(0.49, abs=1e-14)


def test_cc_objective_batch_consistent(rng, random_states):
    b = random_states[0]
    dirs = np.array([random_unit(rng) for _ in range(20)])
    batch = cc_objective_batch(b, dirs)
    for d, v in zip(dirs, batch):
        assert cc_objective(b, d) == pytest.approx(v, abs=1e-14)


def test_adapt_values_and_partners(rng, random_states):
    # each row's value is the CC objective of its direction (on the
    # swapped state for qubit-B rows), attained at the returned partner
    for b in random_states[:5]:
        kx = np.array([random_unit(rng) for _ in range(4)])
        ky = np.array([random_unit(rng) for _ in range(3)])
        vals, partners = adapt(b, kx, ky)
        expected = np.concatenate([cc_objective_batch(b, kx), cc_objective_batch(b.swap(), ky)])
        assert vals == pytest.approx(expected, abs=1e-13)
        n = np.vstack([kx, partners[4:]])
        m = np.vstack([partners[:4], ky])
        attained = (n @ b.x) ** 2 + (m @ b.y) ** 2 + np.einsum("ij,jk,ik->i", n, b.T, m) ** 2
        assert attained == pytest.approx(vals, abs=1e-13)


E_X = np.array([[1.0, 0.0, 0.0]])
E_Z = np.array([[0.0, 0.0, 1.0]])


def _adapt_cases():
    rng = np.random.default_rng(7)
    for s in range(20):
        k = rng.normal(size=(6, 3))
        yield random_state(4, s), *np.split(k / np.linalg.norm(k, axis=1, keepdims=True), [3])
    # a = T^T k parallel to u = y
    yield BlochForm([0.0, 0.0, 0.2], [0.0, 0.0, 0.3], np.diag([0.3, -0.2, 0.5])), E_Z, E_Z
    # a orthogonal to u with |a| = |u|: an exact tie
    yield h_state(0.5, 0.7), E_X, E_X
    # a = 0
    yield BlochForm([0.1, -0.2, 0.3], [0.3, 0.2, -0.1], np.zeros((3, 3))), E_X, E_Z
    # u = 0
    yield bell_diagonal(-0.4, 0.3, -0.2), E_X, E_Z
    # L = 0
    yield BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3))), E_X, E_Z


@pytest.mark.parametrize("b, kx, ky", list(_adapt_cases()))
def test_adapt_matches_lapack(b, kx, ky):
    vals, partners = adapt(b, kx, ky)
    mats = np.concatenate([l_matrix_y(b, kx), l_matrix_x(b, ky)])
    own = np.concatenate([kx @ b.x, ky @ b.y])
    lam = vals - own * own
    assert lam == pytest.approx(np.linalg.eigvalsh(mats).max(axis=1), abs=1e-13)
    assert np.linalg.norm(partners, axis=1) == pytest.approx(1.0, abs=1e-15)
    rayleigh = np.einsum("ij,ijk,ik->i", partners, mats, partners)
    assert rayleigh == pytest.approx(lam, abs=1e-13)


@pytest.mark.parametrize("b", [random_state(4, 3), h_state(0.5, 1.3)])
def test_adapt_and_cc_discord_make_no_eigensolve(b, monkeypatch):
    # the partner step is closed-form: no LAPACK call on the hot path
    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    adapt(b, fibonacci_hemisphere(16), fibonacci_hemisphere(9))
    cc_discord(b)


def test_cc_discord_reports_ascent_end():
    # near p = 1 the objective's top flattens: the ascent hits its short
    # cap and Newton steps finish the best seed
    p = 0.999
    flat = cc_discord(h_state(p, 0.4))
    assert flat.ascent_capped
    assert flat.newton_steps >= 1
    assert flat.grad_norm < 1e-9
    closed = 0.25 * min(2 * p * p, 7 * p * p - 8 * p + 3)
    assert flat.value == pytest.approx(closed, abs=1e-15)
    b = random_state(4, 0)
    generic = cc_discord(b)
    assert 1 <= generic.ascent_rounds <= ASCENT_ROUNDS
    assert 0 <= generic.newton_steps <= NEWTON_STEPS
    ascent = {
        "rounds": generic.ascent_rounds,
        "capped": generic.ascent_capped,
        "newton_steps": generic.newton_steps,
        "grad_norm": generic.grad_norm,
    }
    assert build_report(b)["ascent"] == ascent


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _tangent_basis(n):
    # any orthonormal basis of the plane orthogonal to n
    return np.linalg.svd(n[None])[2][1:]


NEWTON_STATES = [random_state(4, s) for s in range(20)] + [
    h_state(p, phi) for p in (0.3, 0.6, 0.95, 0.999) for phi in (0.0, 0.4)
]


@pytest.mark.parametrize("b", NEWTON_STATES)
def test_derivatives_match_central_differences(b):
    rng = np.random.default_rng(7)
    for _ in range(3):
        n = _unit(rng)
        g, h = _derivatives(b, n)
        # gradient of f read on R^3, from values
        eps = 1e-6
        steps = np.eye(3) * eps
        fd_g = (cc_objective_batch(b, n + steps) - cc_objective_batch(b, n - steps)) / (2 * eps)
        assert g == pytest.approx(fd_g, abs=1e-8)
        # tangent (Riemannian) Hessian: second derivatives of f pulled
        # back through the retraction eta -> (n + B eta) / |n + B eta|
        basis = _tangent_basis(n)

        def pulled(eta):
            d = n + eta @ basis
            return cc_objective(b, d / np.linalg.norm(d))

        eps = 1e-4
        fd_h = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei, ej = np.eye(2)[i] * eps, np.eye(2)[j] * eps
                fd_h[i, j] = (
                    pulled(ei + ej) - pulled(ei - ej) - pulled(ej - ei) + pulled(-ei - ej)
                ) / (4 * eps * eps)
        tangent_h = basis @ h @ basis.T - (n @ g) * np.eye(2)
        assert tangent_h == pytest.approx(fd_h, abs=1e-6)


@pytest.mark.parametrize("b", NEWTON_STATES)
def test_newton_never_lowers_objective(b):
    rng = np.random.default_rng(11)
    for start in [_unit(rng) for _ in range(4)] + [cc_discord(b).x_hat]:
        (f0,), (m0,) = adapt(b, start[None], np.empty((0, 3)))
        n, f, m, steps, tried, grad_norm = _newton(b, start, f0, m0)
        assert f >= f0
        assert 0 <= steps <= tried <= NEWTON_STEPS
        # the value and partner are adapt's for the point returned
        (f_n,), (m_n,) = adapt(b, n[None], np.empty((0, 3)))
        assert (f, m.tolist()) == (f_n, m_n.tolist())
        if steps == 0:
            assert n is start and m is m0
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
        assert np.isfinite(grad_norm)


@pytest.mark.parametrize(
    "b, n",
    [
        # r = 0: a = T^T e_x is orthogonal to y and as long, adapt's tie
        (h_state(0.5, 0.7), np.array([1.0, 0.0, 0.0])),
        # zero marginals, simple top at e_x: the step is zero
        (bell_diagonal(-0.4, 0.3, -0.2), np.array([1.0, 0.0, 0.0])),
        # zero marginals, T = -0.3 I: f is flat, the tangent system is 0
        (bell_diagonal(-0.3, -0.3, -0.3), np.array([0.6, 0.0, 0.8])),
    ],
)
def test_newton_keeps_point_at_kink_and_singular_system(b, n):
    (f0,), (m0,) = adapt(b, n[None], np.empty((0, 3)))
    got_n, f, m, steps, _, grad_norm = _newton(b, n, f0, m0)
    assert got_n is n and m is m0
    assert (f, steps) == (f0, 0)
    if _derivatives(b, n) is None:
        assert grad_norm is None
    else:
        assert grad_norm == pytest.approx(0.0, abs=1e-15)
    res = cc_discord(b)
    assert np.isfinite(res.value) and np.isfinite(res.x_hat).all() and np.isfinite(res.y_hat).all()
    assert res.grad_norm is None or np.isfinite(res.grad_norm)


def test_cc_discord_zero_marginal_structure(rng):
    # x = 0: the optimal pair satisfies x_hat = T y_hat / |T y_hat|
    t = rng.standard_normal((3, 3))
    b_mat = np.eye(4) / 4 + 0.05 * sum(
        t[i, j] * np.kron(P, Q)
        for i, P in enumerate((np.array([[0, 1], [1, 0]], dtype=complex),
                               np.array([[0, -1j], [1j, 0]]),
                               np.array([[1, 0], [0, -1]], dtype=complex)))
        for j, Q in enumerate((np.array([[0, 1], [1, 0]], dtype=complex),
                               np.array([[0, -1j], [1j, 0]]),
                               np.array([[1, 0], [0, -1]], dtype=complex)))
    )
    from ccdiscord import to_bloch

    b = to_bloch(b_mat)
    res = cc_discord(b)
    pred = b.T @ res.y_hat
    pred = pred / np.linalg.norm(pred)
    assert abs(abs(pred @ res.x_hat) - 1) < 1e-7


def test_cc_objective_stationary_at_optimum(random_states):
    for b in random_states[:5]:
        res = cc_discord(b)
        f0 = cc_objective(b, res.x_hat)
        rng = np.random.default_rng(1)
        for _ in range(6):
            d = rng.standard_normal(3)
            d -= (d @ res.x_hat) * res.x_hat
            d /= np.linalg.norm(d)
            eps = 1e-5
            perturbed = res.x_hat + eps * d
            perturbed /= np.linalg.norm(perturbed)
            assert cc_objective(b, perturbed) <= f0 + 1e-8


def test_cc_discord_h_state_two_thirds():
    assert cc_discord(h_state(2 / 3, 0.9)).value == pytest.approx(7 / 36, abs=1e-9)


@pytest.mark.parametrize(
    "p, phi",
    [(p, phi) for p in (0.9, 0.95, 0.99) for phi in (0.0, 0.9, np.pi / 2)]
    + [(0.995, 0.4), (0.999, 0.4)],
)
def test_cc_discord_h_state_slow_ascent_tail(p, phi):
    # toward p = 1 the alternating ascent converges ever more slowly;
    # Newton steps finish it, to rounding beyond p = 0.99
    closed = 0.25 * min(2 * p * p, 7 * p * p - 8 * p + 3)
    tol = 1e-15 if p > 0.99 else 1e-12
    assert cc_discord(h_state(p, phi)).value == pytest.approx(closed, abs=tol)


def test_cc_discord_example1():
    assert cc_discord(example1()).value == pytest.approx(1 / 32, abs=1e-9)


def test_cc_discord_example2():
    # truncated value 0.02322... from the reference calculation
    assert cc_discord(example2()).value == pytest.approx(0.02322, abs=1.2e-5)


def test_cc_discord_maximally_mixed():
    b = BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert cc_discord(b).value == pytest.approx(0.0, abs=1e-12)


def test_cc_lower_bounded_by_one_sided(random_states):
    for b in random_states:
        ds = cc_discord(b).value
        assert ds >= max(cq_discord(b).value, qc_discord(b).value) - 1e-10


def test_local_unitary_covariance(rng, random_states):
    for b in random_states[:5]:
        da, db_, ds = cq_discord(b), qc_discord(b), cc_discord(b)
        for _ in range(4):
            oa, ob = random_rotation(rng), random_rotation(rng)
            rotated = BlochForm(oa @ b.x, ob @ b.y, oa @ b.T @ ob.T)
            assert cq_discord(rotated).value == pytest.approx(da.value, abs=1e-10)
            assert qc_discord(rotated).value == pytest.approx(db_.value, abs=1e-10)
            res = cc_discord(rotated)
            assert res.value == pytest.approx(ds.value, abs=1e-10)
            # optimal directions transform with the rotations (sign-blind)
            assert abs(abs(res.x_hat @ (oa @ ds.x_hat)) - 1) < 1e-5
            assert abs(abs(res.y_hat @ (ob @ ds.y_hat)) - 1) < 1e-5


def test_zero_x_marginal_collapses_to_qc():
    b = werner(0.6)
    shifted = BlochForm(np.zeros(3), [0.0, 0.0, 0.2], np.diag([-0.5, -0.5, -0.55]))
    for state in (b, shifted):
        db_ = qc_discord(state)
        k = np.outer(state.y, state.y) + state.T.T @ state.T
        closed = 0.25 * (state.y @ state.y + np.sum(state.T**2) - np.linalg.eigvalsh(k)[-1])
        assert db_.value == pytest.approx(closed, abs=1e-12)
        assert abs(cc_discord(state).value - db_.value) < 1e-9


def test_both_marginals_zero():
    b = werner(0.45)
    da, db_ = cq_discord(b).value, qc_discord(b).value
    assert abs(da - db_) < 1e-12
    assert abs(cc_discord(b).value - da) < 1e-9


def test_symmetric_state_theorem_symmetric_pair():
    # symmetric state with PSD correlation matrix: the optimal pair is
    # symmetric, so restricting to y_hat = +-x_hat loses nothing
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = rng.standard_normal((3, 3))
        t = g @ g.T
        t /= np.linalg.norm(t, 2) * 4
        x = rng.standard_normal(3) * 0.1
        b = BlochForm(x, x, t)
        from ccdiscord import from_bloch

        lam = 1.0
        while True:
            try:
                from_bloch(BlochForm(lam * x, lam * x, lam * t), validate=True)
                break
            except InvalidState:
                lam *= 0.8
        b = BlochForm(lam * x, lam * x, lam * t)
        unrestricted = cc_discord(b)

        def sym_obj(angles):
            th, ph = angles
            d = np.array(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
            )
            return -(2 * (d @ b.x) ** 2 + (d @ b.T @ d) ** 2)

        from scipy.optimize import minimize

        dirs = fibonacci_hemisphere(4096)
        vals = 2 * (dirs @ b.x) ** 2 + np.einsum("ij,jk,ik->i", dirs, b.T, dirs) ** 2
        best = -vals.max()
        for i in np.argsort(vals)[-4:]:
            d = dirs[i]
            start = [np.arccos(np.clip(d[2], -1, 1)), np.arctan2(d[1], d[0])]
            res = minimize(sym_obj, start, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-15})
            best = min(best, res.fun)
        sym_best = purity_norm_sq(b) - 0.25 * (1 - best)
        assert unrestricted.value == pytest.approx(sym_best, abs=1e-9)
        assert unrestricted.symmetric_pair


def test_discord_range(random_states):
    for b in random_states:
        cap = purity_norm_sq(b) - 0.25
        for v in (cq_discord(b).value, qc_discord(b).value, cc_discord(b).value):
            assert -1e-12 <= v <= cap + 1e-10


def test_cc_discord_below_iteration():
    # the ascent ends at or below the lowest value the adaptive iteration reaches
    for b in [random_state(4, s) for s in range(200)]:
        assert cc_discord(b).value <= iterate_adaptive(b).final_value + 1e-15
