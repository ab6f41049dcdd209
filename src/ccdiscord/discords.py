"""Geometric discords of a two-qubit state.

The one-sided (CQ and QC) discords have closed forms: with
K_x = |x><x| + T T^T and K_y = |y><y| + T^T T,

    D_A = (tr K_x - max eig K_x) / 4,
    D_B = (tr K_y - max eig K_y) / 4,

and the top eigenvector is the optimal measurement direction, which
also yields the closest CQ/QC state.

The symmetric (CC) discord has no closed form.  It reduces to a
maximization over a single unit vector: with a = T^T x_hat,

    D_S = ||rho||^2 - (1 + max_xhat [lambda_y(xhat) + <xhat|x>^2]) / 4,
    lambda_y(xhat) = h+ + sqrt(<xhat|T|y>^2 + h-^2),
    h+- = (<y|y> +- <xhat|T T^T|xhat>) / 2,

where lambda_y is the top eigenvalue of the rank-two matrix
T^T|xhat><xhat|T + |y><y| whose top eigenvector is the partner
direction on qubit B.  That eigenvector lies in span{y, T^T xhat}
and comes in closed form from a 2x2 Gram matrix (adapt), so no partner
step calls an eigensolver.  The maximization seeds a Fibonacci
half-sphere lattice and polishes the best seeds by alternating ascent:
for a fixed direction on one qubit the best partner on the other is
the top eigenvector of its L matrix, so alternating the two partner
updates never decreases the objective (the monotone alternating scheme
of De Lathauwer, De Moor and Vandewalle, SIMAX 21 (2000) 1324).  The
ascent converges only linearly, ever more slowly where the top of the
objective flattens, so a short cap hands the best seed over to
Riemannian Newton steps on the sphere (Absil, Mahony and Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, ch. 6), with the
analytic gradient and Hessian of the objective.  The result records
the ascent rounds, whether the cap ended them, the Newton steps taken
and the tangent-gradient norm at the reported direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import BlochForm, from_bloch, purity_norm_sq
from .eig3 import eigh3
from .measurements import MeasurementPair, canonicalize, measure_a, measure_ab

# relative gap under which a top eigenvalue is reported degenerate
DEGENERACY_RTOL = 1e-9
DEGENERACY_ATOL = 1e-12

# CC-discord search: lattice size, seeds polished, cap on ascent rounds,
# cap on the Newton steps that finish the best seed
LATTICE_POINTS = 2048
ASCENT_SEEDS = 8
ASCENT_ROUNDS = 10
NEWTON_STEPS = 3


@dataclass
class AsymDiscordResult:
    """A one-sided discord value with its optimal measurement data."""

    value: float
    k_hat: np.ndarray
    k_max: float
    closest_state: BlochForm
    degenerate: bool
    eigen_basis: list[tuple[np.ndarray, float]]


@dataclass
class CcDiscordResult:
    """The CC discord with the optimal product-measurement directions."""

    value: float
    x_hat: np.ndarray
    y_hat: np.ndarray
    closest_state: BlochForm
    optimizer_evals: int
    symmetric_pair: bool
    ascent_rounds: int
    ascent_capped: bool
    newton_steps: int
    grad_norm: float | None


def k_matrix_x(b: BlochForm) -> np.ndarray:
    """K_x = |x><x| + T T^T (symmetric PSD)."""
    return np.outer(b.x, b.x) + b.T @ b.T.T


def k_matrix_y(b: BlochForm) -> np.ndarray:
    """K_y = |y><y| + T^T T (symmetric PSD)."""
    return np.outer(b.y, b.y) + b.T.T @ b.T


def l_matrix_x(b: BlochForm, k_y_hat) -> np.ndarray:
    """L_x = |x><x| + T |k_y><k_y| T^T (rank <= 2, symmetric PSD).

    ``k_y_hat`` is one direction (3,) or a stack (..., 3).
    """
    a = np.asarray(k_y_hat, dtype=float) @ b.T.T
    return np.outer(b.x, b.x) + a[..., :, None] * a[..., None, :]


def l_matrix_y(b: BlochForm, k_x_hat) -> np.ndarray:
    """L_y = |y><y| + T^T |k_x><k_x| T (rank <= 2, symmetric PSD).

    ``k_x_hat`` is one direction (3,) or a stack (..., 3).
    """
    a = np.asarray(k_x_hat, dtype=float) @ b.T
    return np.outer(b.y, b.y) + a[..., :, None] * a[..., None, :]


def adapt(b: BlochForm, kx: np.ndarray, ky: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best partners of fixed directions, in closed form.

    For each row k of ``kx`` (a direction on qubit A) the best direction
    on qubit B is the top eigenvector of L_y(k) = |u><u| + |a><a| with
    u = y and a = T^T k, and the pair is worth
    (k.x)^2 + lambda_max(L_y(k)) = 4 ||sigma||^2 - 1; rows of ``ky`` are
    mirrored through L_x (u = x, a = T k).  L has rank two, so its top
    eigenpair lives in span{u, a}: lambda = h+ + hypot(c, h-) with
    c = a.u and h+- = (u.u +- a.a) / 2, and the eigenvector is p u + q a
    for the top eigenvector (p, q) of the Gram matrix [[u.u, c], [c, a.a]].
    Returns (vals, partners): the values of the rows of kx followed by
    those of ky, and the matching unit partners as rows (signs not
    canonicalized).
    """
    a = np.concatenate([kx @ b.T, ky @ b.T.T])
    u = np.empty_like(a)
    u[: len(kx)] = b.y
    u[len(kx) :] = b.x
    own = np.concatenate([kx @ b.x, ky @ b.y])
    uu = np.einsum("ij,ij->i", u, u)
    aa = np.einsum("ij,ij->i", a, a)
    c = np.einsum("ij,ij->i", a, u)
    h_minus = 0.5 * (uu - aa)
    r = np.hypot(c, h_minus)
    # of the Gram matrix's two eigenvector forms take the one whose
    # components add without cancelling
    upper = h_minus >= 0
    p = np.where(upper, h_minus + r, c)
    q = np.where(upper, c, r - h_minus)
    v = p[:, None] * u + q[:, None] * a
    # p = q = 0 only where r = 0, an exact tie (a orthogonal to u,
    # |a| = |u|): every unit vector of the span is a top eigenvector;
    # take u, or e_z when L = 0
    tie = r == 0
    if tie.any():
        v[tie] = np.where(uu[tie, None] > 0, u[tie], [0.0, 0.0, 1.0])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return own * own + (0.5 * (uu + aa) + r), v


def is_top_degenerate(w: np.ndarray) -> bool:
    """True when w[0], the largest of descending eigenvalues w, is not
    simple.  The one degeneracy rule: bounds._candidates groups every
    neighbouring pair of eigenvalues by it."""
    return (w[0] - w[1]) < max(DEGENERACY_RTOL * abs(w[0]), DEGENERACY_ATOL)


def _validate(b: BlochForm) -> None:
    from_bloch(b, validate=True)


def cq_discord(b: BlochForm, validate: bool = True) -> AsymDiscordResult:
    """CQ discord D_A with the optimal direction on qubit A."""
    if validate:
        _validate(b)
    k = k_matrix_x(b)
    w, v = eigh3(k)
    k_hat = canonicalize(v[:, 0])
    return AsymDiscordResult(
        value=0.25 * (np.trace(k) - w[0]),
        k_hat=k_hat,
        k_max=w[0],
        closest_state=measure_a(b, k_hat),
        degenerate=is_top_degenerate(w),
        eigen_basis=[(canonicalize(v[:, i]), w[i]) for i in range(3)],
    )


def qc_discord(b: BlochForm, validate: bool = True) -> AsymDiscordResult:
    """QC discord D_B: cq_discord of the swapped state, swapped back."""
    res = cq_discord(b.swap(), validate)
    res.closest_state = res.closest_state.swap()
    return res


def cc_objective(b: BlochForm, x_hat) -> float:
    """lambda_y(x_hat) + <x_hat|x>^2, the quantity maximized for D_S."""
    return float(cc_objective_batch(b, np.asarray(x_hat, dtype=float).reshape(1, 3))[0])


def cc_objective_batch(b: BlochForm, dirs: np.ndarray) -> np.ndarray:
    """Vectorized cc_objective over rows of an (n, 3) direction array."""
    a = dirs @ b.T  # row i = T^T dirs[i]
    yy = b.y @ b.y
    h_plus = 0.5 * (yy + np.einsum("ij,ij->i", a, a))
    h_minus = yy - h_plus
    c = a @ b.y
    lam = h_plus + np.sqrt(c * c + h_minus * h_minus)
    xs = dirs @ b.x
    return lam + xs * xs


def fibonacci_hemisphere(n: int) -> np.ndarray:
    """n roughly uniform directions on the upper half-sphere (z > 0).

    The half-sphere suffices for the CC objective, which is even in the
    direction (projectors are sign-blind).
    """
    i = np.arange(n)
    z = (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


_LATTICE = fibonacci_hemisphere(LATTICE_POINTS)
_NONE = np.empty((0, 3))
_E2 = np.eye(3)[:2]


def _derivatives(b: BlochForm, n: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Euclidean gradient g and Hessian H of the CC objective at n.

    The objective is read as a function on R^3,
    f(n) = (n.x)^2 + h+ + r with a = T^T n, c = a.y,
    h+- = (y.y +- a.a) / 2 and r = hypot(c, h-):

        g = 2 (n.x) x + T a + v,     v = (c T y - h- T a) / r,
        H = 2 x x^T + (1 - h- / r) T T^T + (T y y^T T^T + T a a^T T^T - v v^T) / r.

    Returns None where r = 0 (adapt's exact tie), where f has a kink.
    """
    a = n @ b.T
    c = float(a @ b.y)
    h_minus = 0.5 * float(b.y @ b.y - a @ a)
    r = math.hypot(c, h_minus)
    if r == 0:
        return None
    ty = b.T @ b.y
    ta = b.T @ a
    v = (c * ty - h_minus * ta) / r
    g = 2.0 * float(n @ b.x) * b.x + ta + v
    w = np.stack([b.x, ty, ta, v])
    h = (1.0 - h_minus / r) * (b.T @ b.T.T) + (w.T * [2.0, 1.0 / r, 1.0 / r, -1.0 / r]) @ w
    return g, h


def _newton(b: BlochForm, n: np.ndarray, f: float, m: np.ndarray):
    """Riemannian Newton steps on the sphere from unit n, worth f with partner m.

    Each step solves (B^T H B - (n.g) I) eta = -B^T g in an orthonormal
    tangent basis B and retracts n + B eta onto the sphere; the step is
    taken only if adapt's value of the new point rises above f.  Stops
    after NEWTON_STEPS steps, at the first step that does not rise, or
    where r = 0 or the tangent system is singular, keeping the last
    point.  Returns (n, f, m, steps taken, points tried, tangent-gradient
    norm at n or None where r = 0).
    """
    steps = tried = 0
    while True:
        d = _derivatives(b, n)
        if d is None:
            return n, f, m, steps, tried, None
        g, h = d
        # rows 0, 1 of the Householder reflection that maps n to -+e_z
        w = n.copy()
        w[2] += math.copysign(1.0, n[2])
        basis = _E2 - np.outer(w[:2], w) / (1.0 + abs(n[2]))
        tg0, tg1 = (basis @ g).tolist()
        (h00, h01), (h10, h11) = (basis @ h @ basis.T).tolist()
        ng = float(n @ g)
        h00 -= ng
        h11 -= ng
        grad_norm = math.hypot(tg0, tg1)
        det = h00 * h11 - h01 * h10
        singular = not abs(det) > 1e-14 * max(abs(h00), abs(h01), abs(h11)) ** 2
        if steps == NEWTON_STEPS or singular:
            return n, f, m, steps, tried, grad_norm
        eta = np.array([h01 * tg1 - h11 * tg0, h10 * tg0 - h00 * tg1]) / det
        trial = n + eta @ basis
        trial /= np.linalg.norm(trial)
        vals, partners = adapt(b, trial[None], _NONE)
        tried += 1
        if not vals[0] > f:
            return n, f, m, steps, tried, grad_norm
        n, f, m = trial, vals[0], partners[0]
        steps += 1


def cc_discord(b: BlochForm, validate: bool = True) -> CcDiscordResult:
    """CC discord D_S by lattice seeding, alternating ascent and Newton.

    The ASCENT_SEEDS best lattice directions are polished together: each
    round moves every seed's partner m to the best for its n, then n to
    the best for m.  No seed's value can fall, so the rounds stop once
    none rises above its own running maximum, or after the short cap of
    ASCENT_ROUNDS (``ascent_capped``: the top was still rising when the
    ascent handed over).  The best seed is then finished by up to
    NEWTON_STEPS Riemannian Newton steps (_newton), each taken only if
    the objective rises; ``newton_steps`` counts those taken and
    ``grad_norm`` is the tangent-gradient norm of the objective at the
    reported x_hat (None where the objective has a kink there).
    ``optimizer_evals`` counts lattice points, ascent partners and
    Newton points tried.
    """
    if validate:
        _validate(b)

    vals = cc_objective_batch(b, _LATTICE)
    n = _LATTICE[np.argsort(-vals)[:ASCENT_SEEDS]]
    evals = LATTICE_POINTS
    running = np.full(len(n), -np.inf)
    for rounds in range(1, ASCENT_ROUNDS + 1):
        _, m = adapt(b, n, _NONE)
        vals, n = adapt(b, _NONE, m)
        evals += 2 * len(n)
        if not np.any(vals > running):
            capped = False
            break
        running = np.maximum(running, vals)
    else:
        capped = True

    vals, m = adapt(b, n, _NONE)
    evals += len(n)
    i = int(np.argmax(vals))
    n_i, f, m_i, steps, tried, grad_norm = _newton(b, n[i], vals[i], m[i])
    evals += tried
    x_hat = canonicalize(n_i)
    y_hat = canonicalize(m_i)
    pair = MeasurementPair(x_hat, y_hat)
    value = purity_norm_sq(b) - 0.25 * (1.0 + f)
    return CcDiscordResult(
        value=max(value, 0.0),
        x_hat=x_hat,
        y_hat=y_hat,
        closest_state=measure_ab(b, pair),
        optimizer_evals=evals,
        symmetric_pair=bool(abs(x_hat @ y_hat) > 1.0 - 1e-8),
        ascent_rounds=rounds,
        ascent_capped=capped,
        newton_steps=steps,
        grad_norm=grad_norm,
    )
