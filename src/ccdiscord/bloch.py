"""Two-qubit states: density matrices, Bloch form, norms and distances.

A two-qubit state is parameterized either as a 4x4 Hermitian unit-trace
PSD matrix or as the triple (x, y, T) of local Bloch vectors and the 3x3
correlation matrix,

    rho = (1/4) (I (x) I + x.sigma (x) I + I (x) y.sigma
                 + sum_ij T_ij sigma_i (x) sigma_j),

with x_i = tr[rho (sigma_i (x) I)], y_i = tr[rho (I (x) sigma_i)] and
T_ij = tr[rho (sigma_i (x) sigma_j)].  Pauli convention is
sigma_1 = sigma_x, sigma_2 = sigma_y, sigma_3 = sigma_z in the
computational basis, so T signs are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-10


class InvalidState(ValueError):
    """Raised when a matrix fails the density-matrix checks."""


class InvalidParameters(ValueError):
    """Raised for out-of-range preset or CLI parameters."""


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)

# tr[rho (A (x) B)] basis, indexed [i][j] with 0 meaning identity
_KRON = [[np.kron(a, b) for b in (ID2, *PAULI)] for a in (ID2, *PAULI)]


def _ro(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BlochForm:
    """Bloch parameterization (x, y, T) of a two-qubit operator.

    A BlochForm is allowed to represent non-states (e.g. intermediate
    arithmetic); validity is an explicit check via :func:`from_bloch`
    with ``validate=True``, not a constructor constraint.
    """

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _ro(np.asarray(self.x).reshape(3)))
        object.__setattr__(self, "y", _ro(np.asarray(self.y).reshape(3)))
        object.__setattr__(self, "T", _ro(np.asarray(self.T).reshape(3, 3)))

    def swap(self) -> "BlochForm":
        """Exchange the two subsystems: (x, y, T) -> (y, x, T^T)."""
        return BlochForm(self.y.copy(), self.x.copy(), self.T.T.copy())

    def allclose(self, other: "BlochForm", atol: float = 1e-12) -> bool:
        return (
            np.allclose(self.x, other.x, atol=atol)
            and np.allclose(self.y, other.y, atol=atol)
            and np.allclose(self.T, other.T, atol=atol)
        )


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace and positivity of a
    4x4 matrix.

    Returns the matrix as a complex array; raises InvalidState on
    failure.  The PSD check uses eigenvalues of the Hermitian part with
    threshold -1e-10 to tolerate rounding from external inputs.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidState(f"expected a 4x4 matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidState("matrix has a NaN or infinite entry")
    if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
        raise InvalidState("matrix is not Hermitian")
    if abs(rho.trace().real - 1.0) > TRACE_TOL or abs(rho.trace().imag) > TRACE_TOL:
        raise InvalidState(f"trace is {rho.trace()}, expected 1")
    if np.linalg.eigvalsh(rho).min() < PSD_TOL:
        raise InvalidState("matrix has a negative eigenvalue")
    return rho


def to_bloch(rho: np.ndarray, validate: bool = True) -> BlochForm:
    """Extract (x, y, T) from a density matrix by Pauli traces."""
    if validate:
        rho = validate_density(rho)
    else:
        rho = np.asarray(rho, dtype=complex)
    x = np.array([np.trace(rho @ _KRON[i][0]).real for i in range(1, 4)])
    y = np.array([np.trace(rho @ _KRON[0][j]).real for j in range(1, 4)])
    T = np.array(
        [[np.trace(rho @ _KRON[i][j]).real for j in range(1, 4)] for i in range(1, 4)]
    )
    return BlochForm(x, y, T)


def from_bloch(b: BlochForm, validate: bool = False) -> np.ndarray:
    """Reconstruct the 4x4 matrix from a Bloch form.

    With ``validate=True`` the result must be a valid density matrix,
    otherwise InvalidState is raised.
    """
    rho = _KRON[0][0].astype(complex).copy()
    for i in range(3):
        rho += b.x[i] * _KRON[i + 1][0]
        rho += b.y[i] * _KRON[0][i + 1]
        for j in range(3):
            rho += b.T[i, j] * _KRON[i + 1][j + 1]
    rho *= 0.25
    if validate:
        validate_density(rho)
    return rho


def purity_norm_sq(b: BlochForm) -> float:
    """Squared Hilbert-Schmidt norm tr(rho^2) in Bloch components:
    (1 + <x|x> + <y|y> + tr(T T^T)) / 4.
    """
    return 0.25 * (1.0 + b.x @ b.x + b.y @ b.y + np.sum(b.T * b.T))


def hs_distance_sq(a: BlochForm, b: BlochForm) -> float:
    """Squared Hilbert-Schmidt distance ||rho_a - rho_b||^2 in Bloch form."""
    dx = a.x - b.x
    dy = a.y - b.y
    dT = a.T - b.T
    return 0.25 * (dx @ dx + dy @ dy + np.sum(dT * dT))


def _g17(v: float) -> float:
    # round-trip safe: 17 significant digits pin the double exactly
    return float(f"{float(v):.17g}")


def bloch_to_json_dict(b: BlochForm) -> dict:
    """Serializable dict in the Bloch-form state schema."""
    return {
        "bloch": {
            "x": [_g17(v) for v in b.x],
            "y": [_g17(v) for v in b.y],
            "T": [[_g17(v) for v in row] for row in b.T],
        }
    }


def bloch_from_json_dict(obj: dict) -> BlochForm:
    """Parse either the matrix or the Bloch state schema.

    Accepted forms:
      {"matrix": [[[re, im], ... x4] x4]}  (row-major)
      {"bloch": {"x": [..3], "y": [..3], "T": [[..3] x3]}}
    """
    if not isinstance(obj, dict):
        raise InvalidParameters("state JSON must be an object")
    if "matrix" in obj:
        m = obj["matrix"]
        try:
            rho = np.array(
                [[complex(e[0], e[1]) for e in row] for row in m], dtype=complex
            )
        except (TypeError, IndexError, ValueError) as exc:
            raise InvalidParameters(f"bad matrix entry: {exc}") from exc
        return to_bloch(rho)
    if "bloch" in obj:
        bl = obj["bloch"]
        try:
            return BlochForm(
                np.asarray(bl["x"], dtype=float),
                np.asarray(bl["y"], dtype=float),
                np.asarray(bl["T"], dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameters(f"bad bloch entry: {exc}") from exc
    raise InvalidParameters('state JSON needs a "matrix" or "bloch" key')


def dump_state(b: BlochForm) -> str:
    return json.dumps(bloch_to_json_dict(b), indent=2)


def load_state(text: str) -> BlochForm:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameters(f"invalid JSON: {exc}") from exc
    return bloch_from_json_dict(obj)
