import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ccdiscord.eig3 import eigh3

sym3 = arrays(
    np.float64,
    (3, 3),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
).map(lambda m: 0.5 * (m + m.T))


@settings(max_examples=300, deadline=None)
@given(sym3)
def test_eigenpairs_are_accurate(m):
    w, v = eigh3(m)
    scale = max(np.max(np.abs(w)), 1.0)
    assert w[0] >= w[1] >= w[2]
    assert np.allclose(v.T @ v, np.eye(3), atol=1e-12)
    for i in range(3):
        assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) < 1e-9 * scale


@pytest.mark.parametrize(
    "m",
    [
        np.eye(3),
        np.zeros((3, 3)),
        np.diag([2.0, 2.0, -1.0]),
        np.diag([5.0, 5.0, 5.0]),
        np.diag([1.0, 1.0 + 1e-13, 0.5]),
        np.full((3, 3), 1.0),
    ],
)
def test_degenerate_cases(m):
    w, v = eigh3(m)
    assert np.allclose(v.T @ v, np.eye(3), atol=1e-12)
    assert np.allclose(v @ np.diag(w) @ v.T, m, atol=1e-12)


def test_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3))
    m = m + m.T
    w1, v1 = eigh3(m)
    w2, v2 = eigh3(m.copy())
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


def test_stacked_matches_single_calls():
    rng = np.random.default_rng(5)
    ms = rng.standard_normal((2, 20, 3, 3))
    ms[0, :4] = [np.eye(3), np.diag([2.0, 2.0, -1.0]), np.full((3, 3), 1.0), np.zeros((3, 3))]
    w, v = eigh3(ms)
    assert w.shape == (2, 20, 3) and v.shape == (2, 20, 3, 3)
    for idx in np.ndindex(2, 20):
        w1, v1 = eigh3(ms[idx])
        assert np.array_equal(w[idx], w1) and np.array_equal(v[idx], v1)
