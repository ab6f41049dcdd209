"""Eigensolver for real symmetric 3x3 matrices, single or stacked.

A thin wrapper over LAPACK (numpy.linalg.eigh) that symmetrizes the
input and returns eigenvalues in descending order with the
eigenvectors as matching columns.  A stack of shape (..., 3, 3) is
solved in one call; each matrix of the stack gets exactly the result a
single call on it would give.  Eigenvector signs are LAPACK's; callers
that report a direction pass it through ``canonicalize``.

It serves the K matrices, the candidate bases of the bounds and the
optimized iteration; the rank-two L matrices of the partner step
(discords.adapt) are solved in closed form without it.
"""

from __future__ import annotations

import numpy as np


def eigh3(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric 3x3 matrix or a stack of them.

    Returns (w, V) with w[..., :] descending and V[..., :, i] the unit
    eigenvector for w[..., i].  Deterministic for a given input.
    """
    m = np.asarray(m, dtype=float)
    w, v = np.linalg.eigh(0.5 * (m + np.swapaxes(m, -1, -2)))
    return w[..., ::-1], v[..., ::-1]
