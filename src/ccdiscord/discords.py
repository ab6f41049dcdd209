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
direction on qubit B.  The maximization runs a Fibonacci half-sphere
lattice followed by derivative-free simplex refinement; the objective
is continuous but only piecewise smooth, so no gradients are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .bloch import BlochForm, DegenerateTop, from_bloch, purity_norm_sq
from .eig3 import eigh3
from .measurements import MeasurementPair, canonicalize, measure_a, measure_b, measure_ab

# relative gap under which a top eigenvalue is reported degenerate
DEGENERACY_RTOL = 1e-9
DEGENERACY_ATOL = 1e-12


@dataclass
class OptimizerConfig:
    """Knobs for the CC-discord sphere search."""

    lattice_points: int = 2048
    refine_starts: int = 8
    tol: float = 1e-10


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


def k_matrix_x(b: BlochForm) -> np.ndarray:
    """K_x = |x><x| + T T^T (symmetric PSD)."""
    return np.outer(b.x, b.x) + b.T @ b.T.T


def k_matrix_y(b: BlochForm) -> np.ndarray:
    """K_y = |y><y| + T^T T (symmetric PSD)."""
    return np.outer(b.y, b.y) + b.T.T @ b.T


def is_top_degenerate(w: np.ndarray) -> bool:
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
    """QC discord D_B; the mirror of cq_discord under subsystem swap."""
    if validate:
        _validate(b)
    k = k_matrix_y(b)
    w, v = eigh3(k)
    k_hat = canonicalize(v[:, 0])
    return AsymDiscordResult(
        value=0.25 * (np.trace(k) - w[0]),
        k_hat=k_hat,
        k_max=w[0],
        closest_state=measure_b(b, k_hat),
        degenerate=is_top_degenerate(w),
        eigen_basis=[(canonicalize(v[:, i]), w[i]) for i in range(3)],
    )


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


def partner_versor(b: BlochForm, x_hat) -> np.ndarray:
    """Top eigenvector of T^T|x_hat><x_hat|T + |y><y|, canonicalized.

    Raises DegenerateTop when the top eigenvalue is not simple; the CC
    objective is then flat over the degenerate subspace and callers may
    pick any member (see cc_discord).
    """
    x_hat = np.asarray(x_hat, dtype=float).reshape(3)
    a = b.T.T @ x_hat
    m = np.outer(a, a) + np.outer(b.y, b.y)
    w, v = eigh3(m)
    if is_top_degenerate(w):
        raise DegenerateTop("partner direction is not unique")
    return canonicalize(v[:, 0])


def _partner_any(b: BlochForm, x_hat) -> np.ndarray:
    try:
        return partner_versor(b, x_hat)
    except DegenerateTop:
        a = b.T.T @ np.asarray(x_hat, dtype=float).reshape(3)
        m = np.outer(a, a) + np.outer(b.y, b.y)
        _, v = eigh3(m)
        return canonicalize(v[:, 0])


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


def _sph(theta: float, phi: float) -> np.ndarray:
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def cc_discord(
    b: BlochForm, cfg: OptimizerConfig | None = None, validate: bool = True
) -> CcDiscordResult:
    """CC discord D_S by lattice search plus local refinement."""
    if cfg is None:
        cfg = OptimizerConfig()
    if validate:
        _validate(b)

    lattice = fibonacci_hemisphere(cfg.lattice_points)
    vals = cc_objective_batch(b, lattice)
    evals = cfg.lattice_points

    order = np.argsort(-vals)
    starts = order[: max(1, cfg.refine_starts)]

    best_val = -np.inf
    best_dir = lattice[order[0]]
    for idx in starts:
        d = lattice[idx]
        theta0 = float(np.arccos(np.clip(d[2], -1.0, 1.0)))
        phi0 = float(np.arctan2(d[1], d[0]))

        def neg(angles):
            return -cc_objective(b, _sph(angles[0], angles[1]))

        res = minimize(
            neg,
            np.array([theta0, phi0]),
            method="Nelder-Mead",
            options={
                "xatol": cfg.tol,
                "fatol": 1e-15,
                "maxiter": 400,
                "maxfev": 600,
            },
        )
        evals += res.nfev
        if -res.fun > best_val:
            best_val = -res.fun
            best_dir = _sph(res.x[0], res.x[1])

    x_hat = canonicalize(best_dir / np.linalg.norm(best_dir))
    y_hat = _partner_any(b, x_hat)
    pair = MeasurementPair(x_hat, y_hat)
    value = purity_norm_sq(b) - 0.25 * (1.0 + best_val)
    return CcDiscordResult(
        value=max(value, 0.0),
        x_hat=x_hat,
        y_hat=y_hat,
        closest_state=measure_ab(b, pair),
        optimizer_evals=evals,
        symmetric_pair=bool(abs(x_hat @ y_hat) > 1.0 - 1e-8),
    )
