"""Local von Neumann measurement maps in Bloch form.

A projective measurement along unit vector n on qubit A maps
f(x, y, T) to f(P x, y, P T) with P = |n><n|; on qubit B, to
f(x, Q y, T Q) with Q = |m><m|; measuring both sides applies both
projections.  The maps are idempotent, commute between sides, and
never increase purity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochForm, InvalidParameters

_CANON_EPS = 1e-12


def versor(v) -> np.ndarray:
    """Normalize a 3-vector to unit norm; zero vectors are rejected."""
    v = np.asarray(v, dtype=float).reshape(3)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise InvalidParameters("cannot normalize a zero direction")
    return v / n


def canonicalize(v: np.ndarray) -> np.ndarray:
    """Fix the sign ambiguity n vs -n of a measurement direction.

    The first component with magnitude above 1e-12 is made positive, so
    reported directions compare deterministically.
    """
    v = np.asarray(v, dtype=float).reshape(3)
    for c in v:
        if abs(c) > _CANON_EPS:
            return v if c > 0 else -v
    return v


@dataclass(frozen=True)
class MeasurementPair:
    """Directions (n_hat on qubit A, m_hat on qubit B) of a product
    von Neumann measurement."""

    n_hat: np.ndarray
    m_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_hat", versor(self.n_hat))
        object.__setattr__(self, "m_hat", versor(self.m_hat))


def measure_a(b: BlochForm, n_hat) -> BlochForm:
    """Measure qubit A along n_hat."""
    n = versor(n_hat)
    return BlochForm(n * (n @ b.x), b.y.copy(), np.outer(n, n @ b.T))


def measure_b(b: BlochForm, m_hat) -> BlochForm:
    """Measure qubit B along m_hat."""
    m = versor(m_hat)
    return BlochForm(b.x.copy(), m * (m @ b.y), np.outer(b.T @ m, m))


def measure_ab(b: BlochForm, pair: MeasurementPair) -> BlochForm:
    """Measure both qubits; equals measure_a o measure_b in any order."""
    n, m = pair.n_hat, pair.m_hat
    return BlochForm(
        n * (n @ b.x),
        m * (m @ b.y),
        (n @ b.T @ m) * np.outer(n, m),
    )
