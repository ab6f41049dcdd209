"""Reference checks for the benchmark, made apart from the program.

This module never imports ccdiscord.  It builds its own 4x4 density
matrices (seeded Ginibre states and the h-state family), its own Pauli
basis and its own projective measurements, and checks the program's
outputs against them:

- every value reported with its directions equals ||rho - M(rho)||^2 for
  those directions, where M sandwiches rho between the product
  projectors on the 4x4 matrix;
- D_S is no larger than the distance after random product measurements;
- max(D_A, D_B) <= D_S <= D_aub_tilde <= D_aub <= D_nub;
- on rho(p, phi) the closed forms D_S = min(2p^2, 7p^2 - 8p + 3) / 4 and
  D_A = D_B = min(p^2, 3p^2 - 3p + 1) / 2 hold, and D_aub_tilde = D_S;
- `verify` exits 0 and reports oracle gaps within 1e-6.

Each check function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import json

import numpy as np

# tolerances of the acceptance suite
TOL_CLOSED_FORM = 1e-9  # D_S and D_aub_tilde against the h-state closed form
TOL_ONE_SIDED = 1e-12  # D_A and D_B against their closed forms
TOL_IDENTITY = 1e-12  # reported value against ||rho - M(rho)||^2 at its directions
TOL_CHAIN = 1e-10  # slack of each link of the inequality chain
TOL_ORACLE = 1e-6  # |grid oracle - D_S|
TOL_ITERATION = 1e-15  # how far the iteration's final value may sit below D_S

RANDOM_PAIRS = 16  # random product measurements tried against D_S per state

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def ginibre(rng: np.random.Generator) -> np.ndarray:
    """Rank-4 Ginibre state G G^+ / tr(G G^+), G with standard complex
    normal entries drawn real part first."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def hstate(p: float, phi: float) -> np.ndarray:
    """p |Psi_phi><Psi_phi| + (1 - p) |00><00| with
    |Psi_phi> = (|01> + e^{i phi} |10>) / sqrt(2)."""
    psi = np.array([0, 1, np.exp(1j * phi), 0], dtype=complex) / np.sqrt(2.0)
    rho = p * np.outer(psi, psi.conj())
    rho[0, 0] += 1.0 - p
    return rho


def hstate_closed_forms(p: float) -> tuple[float, float]:
    """(D_S, D_A = D_B) of rho(p, phi), independent of phi."""
    d_s = 0.25 * min(2 * p * p, 7 * p * p - 8 * p + 3)
    d_a = 0.5 * min(p * p, 3 * p * p - 3 * p + 1)
    return d_s, d_a


def matrix_json(rho: np.ndarray) -> str:
    """The program's matrix input schema, every entry round-trip exact."""
    return json.dumps(
        {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}
    )


def _bloch(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.array([np.trace(rho @ np.kron(s, _I2)).real for s in _PAULI])
    y = np.array([np.trace(rho @ np.kron(_I2, s)).real for s in _PAULI])
    t = np.array(
        [[np.trace(rho @ np.kron(a, b)).real for b in _PAULI] for a in _PAULI]
    )
    return x, y, t


def one_sided_discords(rho: np.ndarray) -> tuple[float, float]:
    """(D_A, D_B) from the top eigenvalues of K_x = xx^T + TT^T and
    K_y = yy^T + T^T T."""
    x, y, t = _bloch(rho)
    kx = np.outer(x, x) + t @ t.T
    ky = np.outer(y, y) + t.T @ t
    return (
        0.25 * (np.trace(kx) - np.linalg.eigvalsh(kx)[-1]),
        0.25 * (np.trace(ky) - np.linalg.eigvalsh(ky)[-1]),
    )


def _projectors(n: np.ndarray) -> np.ndarray:
    """(2, 2, 2) array of the projectors (I +- n.sigma) / 2."""
    n = np.asarray(n, dtype=float) / np.linalg.norm(n)
    ns = sum(c * s for c, s in zip(n, _PAULI))
    return np.stack([0.5 * (_I2 + ns), 0.5 * (_I2 - ns)])


def distance(rho: np.ndarray, n=None, m=None) -> float:
    """||rho - M(rho)||^2 for the measurement along n on qubit A and m on
    qubit B; a side given as None is left unmeasured."""
    pa = _projectors(n) if n is not None else _I2[None]
    pb = _projectors(m) if m is not None else _I2[None]
    measured = np.zeros((4, 4), dtype=complex)
    for a in pa:
        for b in pb:
            proj = np.kron(a, b)
            measured += proj @ rho @ proj
    return float(np.sum(np.abs(rho - measured) ** 2))


def _random_units(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.standard_normal((k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _below_random_measurements(rho, d_s, rng) -> list[str]:
    ns, ms = _random_units(rng, RANDOM_PAIRS), _random_units(rng, RANDOM_PAIRS)
    worst = min(distance(rho, n, m) for n, m in zip(ns, ms))
    if d_s > worst + TOL_CHAIN:
        return [f"D_S {d_s!r} exceeds a random product measurement's {worst!r}"]
    return []


def _chain(named: list[tuple[str, float]]) -> list[str]:
    """Each value is no larger than the next, up to TOL_CHAIN."""
    out = []
    for (a, va), (b, vb) in zip(named, named[1:]):
        if va > vb + TOL_CHAIN:
            out.append(f"chain: {a} = {va!r} > {b} = {vb!r}")
    return out


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{name} = {got!r}, expected {want!r} within {tol:g}"]
    return []


def check_report(rho: np.ndarray, rep: dict, rng: np.random.Generator) -> list[str]:
    """Check one `compute` report for the state rho."""
    out = []
    d = rep["directions"]
    d_a, d_b = one_sided_discords(rho)
    out += _close("D_A", rep["D_A"], d_a, TOL_ONE_SIDED)
    out += _close("D_B", rep["D_B"], d_b, TOL_ONE_SIDED)
    out += _close("D_A at k_x", distance(rho, n=d["k_x"]), rep["D_A"], TOL_IDENTITY)
    out += _close("D_B at k_y", distance(rho, m=d["k_y"]), rep["D_B"], TOL_IDENTITY)
    for key, n, m in (
        ("D_S", d["x_S"], d["y_S"]),
        ("D_nub", *d["nub"]),
        ("D_aub", *d["aub"]),
        ("D_aub_tilde", *d["aub_tilde"]),
    ):
        out += _close(f"{key} at its directions", distance(rho, n, m), rep[key], TOL_IDENTITY)
    out += _chain(
        [
            ("max(D_A, D_B)", max(rep["D_A"], rep["D_B"])),
            ("D_S", rep["D_S"]),
            ("D_aub_tilde", rep["D_aub_tilde"]),
            ("D_aub", rep["D_aub"]),
            ("D_nub", rep["D_nub"]),
        ]
    )
    out += _below_random_measurements(rho, rep["D_S"], rng)
    final = rep["iteration"]["final_value"]
    if final < rep["D_S"] - TOL_ITERATION:
        out.append(f"iteration final value {final!r} below D_S {rep['D_S']!r}")
    out += _chain([("iteration final value", final), ("D_aub", rep["D_aub"])])
    return out


def check_sweep_row(p: float, phi: float, row: dict, rng: np.random.Generator) -> list[str]:
    """Check one `sweep` CSV row for rho(p, phi).

    The D_nub column is the degenerate-optimized product bound; the
    product bound paired with D_aub in the chain is D_S11_nub.
    """
    rho = hstate(p, phi)
    d_s, d_a = hstate_closed_forms(p)
    out = _close("param", row["param"], p, 0.0)
    out += _close("D_S", row["D_S"], d_s, TOL_CLOSED_FORM)
    out += _close("D_A", row["D_A"], d_a, TOL_ONE_SIDED)
    out += _close("D_B", row["D_B"], d_a, TOL_ONE_SIDED)
    out += _close("D_aub_tilde", row["D_aub_tilde"], d_s, TOL_CLOSED_FORM)
    out += _chain(
        [
            ("max(D_A, D_B)", max(row["D_A"], row["D_B"])),
            ("D_S", row["D_S"]),
            ("D_aub_tilde", row["D_aub_tilde"]),
            ("D_aub", row["D_aub"]),
            ("D_S11_nub", row["D_S11_nub"]),
        ]
    )
    out += _chain([("D_S", row["D_S"]), ("D_nub", row["D_nub"])])
    out += _below_random_measurements(rho, row["D_S"], rng)
    return out


def parse_sweep(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, map(float, line.split(",")))) for line in lines[1:]]


def check_verify(seed: int, rc: int, text: str, rng: np.random.Generator) -> list[str]:
    """Check the output of `verify --strict --seeds <seed>`.

    The state is rebuilt here from the seed with the program's documented
    Ginibre recipe, so D_S can be bracketed independently.
    """
    out = [] if rc == 0 else [f"verify exit code {rc}"]
    rows = [
        fields
        for fields in map(str.split, text.splitlines())
        if len(fields) == 4 and fields[0] == str(seed)
    ]
    if len(rows) != 1:
        return out + [f"expected one table row for seed {seed}, got {rows}"]
    d_s, aub_gap, oracle_gap = (float(v) for v in rows[0][1:])
    if not oracle_gap <= TOL_ORACLE:
        out.append(f"oracle gap {oracle_gap!r} above {TOL_ORACLE:g}")
    if aub_gap < -TOL_CHAIN:
        out.append(f"adaptive bound below D_S by {-aub_gap!r}")
    if "all checks passed" not in text:
        out.append("verify did not report that all checks passed")
    rho = ginibre(np.random.default_rng(seed))
    out += _chain([("max(D_A, D_B)", max(one_sided_discords(rho))), ("D_S", d_s)])
    out += _below_random_measurements(rho, d_s, rng)
    return out
