import numpy as np
import pytest

from ccdiscord import (
    BlochForm,
    MeasurementPair,
    canonicalize,
    cc_discord,
    from_bloch,
    measure_a,
    measure_ab,
    purity_norm_sq,
    random_state,
    to_bloch,
)
from ccdiscord.measurements import measure_b
from ccdiscord.presets import example3, h_state

from conftest import random_unit, sandwich_a, sandwich_b

EZ = np.array([0.0, 0.0, 1.0])


def test_measure_a_diagonal_correlations():
    b = BlochForm(np.zeros(3), np.zeros(3), np.diag([0.3, -0.2, 0.4]))
    out = measure_a(b, EZ)
    assert np.allclose(out.x, 0) and np.allclose(out.y, 0)
    assert np.allclose(out.T, np.diag([0, 0, 0.4]))


def test_measure_a_h_state_gives_closest_cq():
    from ccdiscord import cq_discord

    b = h_state(0.3, 0.7)
    res = cq_discord(b)
    measured = measure_a(b, res.k_hat)
    assert measured.allclose(res.closest_state)
    # closest CQ state realizes the discord as a distance
    from ccdiscord import hs_distance_sq

    assert hs_distance_sq(b, measured) == pytest.approx(res.value, abs=1e-12)


def test_idempotence(rng, random_states):
    for b in random_states[:10]:
        n = random_unit(rng)
        once = measure_a(b, n)
        assert measure_a(once, n).allclose(once, atol=1e-14)
        m = random_unit(rng)
        once_b = measure_b(b, m)
        assert measure_b(once_b, m).allclose(once_b, atol=1e-14)


def test_measure_b_is_swap_mirror(rng, random_states):
    for b in random_states[:10]:
        m = random_unit(rng)
        assert measure_b(b, m).allclose(measure_a(b.swap(), m).swap(), atol=1e-14)


def test_measure_b_matrix_oracle_on_asymmetric_state(rng):
    b = example3()
    for _ in range(5):
        m = random_unit(rng)
        expected = to_bloch(sandwich_b(from_bloch(b), m), validate=False)
        assert measure_b(b, m).allclose(expected, atol=1e-12)


def test_measure_z_leaves_ket00_invariant():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1
    b = to_bloch(rho)
    assert measure_b(b, EZ).allclose(b, atol=1e-14)


def test_measure_ab_commutes(rng, random_states):
    for b in random_states[:20]:
        pair = MeasurementPair(random_unit(rng), random_unit(rng))
        joint = measure_ab(b, pair)
        assert joint.allclose(measure_a(measure_b(b, pair.m_hat), pair.n_hat), atol=1e-14)
        assert joint.allclose(measure_b(measure_a(b, pair.n_hat), pair.m_hat), atol=1e-14)


def test_measure_ab_h_state_zz():
    p = 0.35
    b = h_state(p, 1.1)
    out = measure_ab(b, MeasurementPair(EZ, EZ))
    assert np.allclose(out.x, [0, 0, 1 - p], atol=1e-14)
    assert np.allclose(out.y, [0, 0, 1 - p], atol=1e-14)
    assert np.allclose(out.T, np.diag([0, 0, 1 - 2 * p]), atol=1e-14)
    oracle = to_bloch(sandwich_b(sandwich_a(from_bloch(b), EZ), EZ), validate=False)
    assert out.allclose(oracle, atol=1e-12)


def test_measurement_never_increases_purity(rng, random_states):
    for b in random_states:
        n, m = random_unit(rng), random_unit(rng)
        for out in (measure_a(b, n), measure_b(b, m), measure_ab(b, MeasurementPair(n, m))):
            assert purity_norm_sq(out) <= purity_norm_sq(b) + 1e-14


def test_bloch_maps_match_projector_sandwich(rng, random_states):
    for b in random_states[:10]:
        n, m = random_unit(rng), random_unit(rng)
        rho = from_bloch(b)
        assert measure_a(b, n).allclose(to_bloch(sandwich_a(rho, n), validate=False), atol=1e-12)
        assert measure_b(b, m).allclose(to_bloch(sandwich_b(rho, m), validate=False), atol=1e-12)


def test_is_cc_state_on_measured_output(rng):
    b = random_state(4, 11)
    sigma = measure_ab(b, MeasurementPair(random_unit(rng), random_unit(rng)))
    assert cc_discord(sigma).value < 1e-10


def test_is_cc_state_bell_false():
    assert cc_discord(h_state(1.0, 0.0)).value >= 1e-6


def test_is_cc_state_computational_diagonal():
    b = to_bloch(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    assert cc_discord(b).value < 1e-10


def test_canonicalize():
    assert np.allclose(canonicalize(np.array([-0.6, 0.8, 0.0])), [0.6, -0.8, 0.0])
    assert np.allclose(canonicalize(np.array([0.0, -1.0, 0.0])), [0.0, 1.0, 0.0])
    v = np.array([1e-14, -0.3, 0.9])
    assert np.allclose(canonicalize(v), [-1e-14, 0.3, -0.9])
