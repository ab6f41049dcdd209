"""Measurement-based upper bounds on the CC discord.

All bounds pick explicit product-measurement directions and evaluate
the distance to the resulting CC state.  With k_x, k_y the top
eigenvectors of K_x, K_y and l_x, l_y the top eigenvectors of

    L_x = |x><x| + T |k_y><k_y| T^T,
    L_y = |y><y| + T^T |k_x><k_x| T,

the nonadaptive (product) bound uses the pair (k_x, k_y) and the
adaptive bound the better of (k_x, l_y) and (l_x, k_y).  Two
refinements follow: optimization over degenerate top eigenspaces of
K_x, K_y, and over all (not only top) eigenvectors of K_x, K_y.

Every bound draws its directions from one candidate engine: _candidates
lists the top eigenspace (or every eigenspace) of K_x and K_y, its
eigenvalues grouped by the rule of cq_discord's ``degenerate`` flag,
with a degenerate group sampled, and row 0 always the top eigenvector.
Candidates are ranked as product pairs (_best_product_pair) or as
adapted pairs (_best_adapted).  The latter rests on one fact: for a
fixed k_x the best partner is the top eigenvector of L_y(k_x), worth
lambda_max(L_y(k_x)).  L has rank two, so the adapted partners of all
candidates come in closed form from one batched call (discords.adapt,
also the step of the CC-discord ascent), whether or not L is
degenerate.  An iterative scheme feeds the adapted directions back as
inputs and usually converges rapidly to the CC discord; a fixed-point
criterion detects when it cannot improve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .bloch import BlochForm, purity_norm_sq
from .discords import (
    _validate,
    adapt,
    fibonacci_hemisphere,
    is_top_degenerate,
    k_matrix_x,
    k_matrix_y,
    l_matrix_x,
    l_matrix_y,
)
from .eig3 import eigh3
from .measurements import MeasurementPair, canonicalize, measure_ab

CIRCLE_SAMPLES = 360
SPHERE_SAMPLES = 812
# cells of one block of the product-pair grid (1 MiB of float64)
PAIR_BLOCK_CELLS = 1 << 17
_STALL_DOT = 1.0 - 1e-9

_ANGLES = np.linspace(0.0, np.pi, CIRCLE_SAMPLES, endpoint=False)[:, None]
_COS, _SIN = np.cos(_ANGLES), np.sin(_ANGLES)
_HEMISPHERE = fibonacci_hemisphere(SPHERE_SAMPLES)


class Branch(enum.Enum):
    S_PRIME = "S'"
    S_DPRIME = "S''"
    S_ZERO = "S0"


@dataclass
class BoundResult:
    value: float
    sigma: BlochForm
    directions: MeasurementPair
    branch: Branch


@dataclass
class IterationStep:
    n: int
    value: float
    pair_sprime: MeasurementPair
    pair_sdprime: MeasurementPair


@dataclass
class IterationTrace:
    steps: list[IterationStep] = field(default_factory=list)
    stalled: bool = False
    converged: bool = False

    @property
    def final_value(self) -> float:
        return self.steps[-1].value


def _sigma_norm_sq(b: BlochForm, n: np.ndarray, m: np.ndarray) -> float:
    """||sigma||^2 of the CC state from measuring along (n, m)."""
    return 0.25 * (1.0 + (n @ b.x) ** 2 + (m @ b.y) ** 2 + (n @ b.T @ m) ** 2)


def _result(b: BlochForm, n: np.ndarray, m: np.ndarray, branch: Branch) -> BoundResult:
    pair = MeasurementPair(canonicalize(n), canonicalize(m))
    sigma = measure_ab(b, pair)
    return BoundResult(
        value=max(purity_norm_sq(b) - _sigma_norm_sq(b, n, m), 0.0),
        sigma=sigma,
        directions=pair,
        branch=branch,
    )


def nonadaptive_bound(b: BlochForm, validate: bool = True) -> BoundResult:
    """Product bound from the two independently optimal directions."""
    if validate:
        _validate(b)
    k_x = _candidates(k_matrix_x(b))[0]
    k_y = _candidates(k_matrix_y(b))[0]
    return _result(b, k_x, k_y, Branch.S_ZERO)


def adaptive_bound(b: BlochForm, validate: bool = True) -> BoundResult:
    """Adaptive bound: measure one side optimally, then adapt the other."""
    if validate:
        _validate(b)
    k_x = _candidates(k_matrix_x(b))[:1]
    k_y = _candidates(k_matrix_y(b))[:1]
    _, n, m, branch = _best_adapted(b, k_x, k_y)
    return _result(b, n, m, branch)


def _candidates(mat: np.ndarray, groups: str = "top") -> np.ndarray:
    """Candidate unit vectors (rows) from the eigenspaces of a symmetric matrix.

    Eigenvalues, in descending order, fall into groups by the rule of
    cq_discord's ``degenerate`` flag (is_top_degenerate, applied to each
    neighbouring pair).  A group gives its eigenvectors and, when
    degenerate, a sampled family of their combinations: a circle of
    CIRCLE_SAMPLES for 2-fold, a half-sphere of SPHERE_SAMPLES for
    3-fold.  ``groups="top"`` keeps the top group, ``"all"`` every group.
    Row 0 is the top eigenvector.
    """
    w, v = eigh3(mat)
    edges = [0] + [i for i in (1, 2) if not is_top_degenerate(w[i - 1 :])] + [3]
    if groups == "top":
        edges = edges[:2]
    rows = []
    for lo, hi in zip(edges, edges[1:]):
        rows.append(v[:, lo:hi].T)
        if hi - lo == 2:
            rows.append(_COS * v[:, lo] + _SIN * v[:, lo + 1])
        elif hi - lo == 3:
            rows.append(_HEMISPHERE)
    return np.vstack(rows)


def _best_product_pair(b: BlochForm, ns: np.ndarray, ms: np.ndarray) -> tuple[int, int]:
    """Indices (i, j) of the (row of ns, row of ms) pair of largest ||sigma||^2.

    Ranks 4 ||sigma||^2 - 1 = (n.T.m)^2 + (n.x)^2 + (m.y)^2 over the
    grid of pairs in row blocks of at most PAIR_BLOCK_CELLS cells, each
    built in place, so memory stays bounded on the 815 x 815 grid of two
    3-fold eigenspaces.  The running best moves only on a strictly
    larger value: the pair is the grid's first maximum in row-major
    order, as one np.argmax over the whole grid would pick.
    """
    nt = ns @ b.T
    xs = (ns @ b.x) ** 2
    ys = (ms @ b.y) ** 2
    rows = max(1, PAIR_BLOCK_CELLS // len(ms))
    block = np.empty((min(rows, len(ns)), len(ms)))
    best, pair = -np.inf, (0, 0)
    for lo in range(0, len(ns), rows):
        hi = min(lo + rows, len(ns))
        g = np.matmul(nt[lo:hi], ms.T, out=block[: hi - lo])
        g *= g
        g += xs[lo:hi, None]
        g += ys
        i, j = np.unravel_index(np.argmax(g), g.shape)
        if g[i, j] > best:
            best, pair = g[i, j], (lo + int(i), int(j))
    return pair


def _best_adapted(
    b: BlochForm, kx_cands: np.ndarray, ky_cands: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, Branch]:
    """Best adapted pair over candidate rows for k_x (S') and k_y (S'').

    For fixed k_x the best partner is the top eigenvector of L_y(k_x),
    giving ||sigma||^2 = (1 + (k_x.x)^2 + lambda_max(L_y(k_x))) / 4, and
    mirrored for k_y; adapt scores every candidate in closed form, in
    one batched call.  Returns (||sigma||^2, n, m, branch); the S' branch wins
    ties.
    """
    vals, partners = adapt(b, kx_cands, ky_cands)
    i = int(np.argmax(vals))
    if i < len(kx_cands):
        return 0.25 * (1.0 + vals[i]), kx_cands[i], partners[i], Branch.S_PRIME
    return 0.25 * (1.0 + vals[i]), partners[i], ky_cands[i - len(kx_cands)], Branch.S_DPRIME


def degenerate_optimized_bounds(b: BlochForm, validate: bool = True) -> dict[str, BoundResult]:
    """Adaptive and nonadaptive bounds minimized over degenerate top
    eigenvectors of K_x, K_y.

    A degenerate top eigenspace is sampled (a circle of CIRCLE_SAMPLES
    directions, or a half-sphere of SPHERE_SAMPLES); each sample is
    adapted through the top eigenvalue of its L matrix.  For
    nondegenerate states this reproduces the plain bounds.
    """
    if validate:
        _validate(b)
    purity = purity_norm_sq(b)
    kx_cands = _candidates(k_matrix_x(b))
    ky_cands = _candidates(k_matrix_y(b))

    # nonadaptive: best product pair over the degenerate families
    i, j = _best_product_pair(b, kx_cands, ky_cands)
    nub = _result(b, kx_cands[i], ky_cands[j], Branch.S_ZERO)

    _, n, m, branch = _best_adapted(b, kx_cands, ky_cands)
    aub = _result(b, n, m, branch)
    if not aub.value <= purity + 1e-15:
        raise FloatingPointError(f"adaptive bound {aub.value} exceeds purity {purity}")
    return {"aub": aub, "nub": nub}


def nonoptimal_optimized_aub(b: BlochForm, validate: bool = True) -> BoundResult:
    """Adaptive bound minimized over all eigenvector choices.

    Tries every eigenvector of K_x (resp. K_y), not only the top one,
    each with its best partner, the top eigenvector of the induced L_y
    (resp. L_x): 2 x 3 candidates for a nondegenerate state.  Degenerate
    eigenspaces are sampled as in degenerate_optimized_bounds.
    """
    if validate:
        _validate(b)
    kx_cands = _candidates(k_matrix_x(b), "all")
    ky_cands = _candidates(k_matrix_y(b), "all")
    _, n, m, branch = _best_adapted(b, kx_cands, ky_cands)
    return _result(b, n, m, branch)


def iterate_adaptive(
    b: BlochForm,
    max_iters: int = 50,
    tol: float = 1e-14,
    optimized: bool = False,
    validate: bool = True,
) -> IterationTrace:
    """Iteratively re-adapt the measurement directions.

    Step n takes k^{n} = l^{n-1}, recomputes the top eigenvectors of
    the induced L^{n} matrices, and records the running minimum of the
    bound.  Stops on convergence (successive values within tol), on a
    stall, or after max_iters rounds.  A stall is reported when the
    value has made no progress at all since round 0 and the directions
    are stuck: either the fixed-point criterion k_x = l_y and k_y = l_x
    holds (up to sign), or the direction pair revisits an earlier
    round.  A trace whose initial bound already equals the CC discord
    is also reported as stalled; without an external reference value
    the two cases cannot be told apart.

    With ``optimized=True`` each round also tries every eigenvector of
    the current matrices, each with its adapted partner (the
    nonoptimal-measurement refinement); no convergence claim is
    attached to that variant.
    """
    if validate:
        _validate(b)
    purity = purity_norm_sq(b)
    trace = IterationTrace()

    k_x = canonicalize(_candidates(k_matrix_x(b))[0])
    k_y = canonicalize(_candidates(k_matrix_y(b))[0])
    running = np.inf
    first_value = None
    prev_value = None
    seen: set[tuple] = set()

    for n in range(max_iters):
        l_y, l_x = map(canonicalize, adapt(b, k_x[None], k_y[None])[1])
        s1 = _sigma_norm_sq(b, k_x, l_y)
        s2 = _sigma_norm_sq(b, l_x, k_y)
        raw = purity - max(s1, s2)
        if optimized:
            kx_cands = eigh3(k_matrix_x(b) if n == 0 else l_matrix_x(b, k_y))[1].T
            ky_cands = eigh3(k_matrix_y(b) if n == 0 else l_matrix_y(b, k_x))[1].T
            raw = min(raw, purity - _best_adapted(b, kx_cands, ky_cands)[0])
        running = min(running, raw)
        if first_value is None:
            first_value = running
        trace.steps.append(
            IterationStep(
                n=n,
                value=running,
                pair_sprime=MeasurementPair(k_x, l_y),
                pair_sdprime=MeasurementPair(l_x, k_y),
            )
        )

        fixed_point = abs(k_x @ l_y) > _STALL_DOT and abs(k_y @ l_x) > _STALL_DOT
        key = tuple(np.round(np.concatenate([k_x, k_y]), 9))
        cycling = key in seen
        seen.add(key)
        improved = running < first_value - tol
        if n >= 1 and (fixed_point or cycling) and not improved:
            trace.stalled = True
            break
        # without improvement a flat value is not convergence: keep
        # going so a direction cycle can close and be flagged
        if prev_value is not None and abs(running - prev_value) < tol and improved:
            trace.converged = True
            break
        prev_value = running
        k_x, k_y = l_x, l_y

    return trace
