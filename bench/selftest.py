"""Self-test of the benchmark's checker.

    python3 bench/selftest.py

Runs a few operations of each workload through the program and requires
that reference.py accepts their outputs.  Then it perturbs the outputs
and requires that each perturbation is rejected: D_S shifted by 1e-7, a
reported direction replaced by a random one, and a nonzero `verify`
exit.  Exits 0 when every case behaves as required.
"""

import json
import sys

import numpy as np

import reference
import run


def _ops(lib, workload: str, indices) -> list:
    ops = next(run.WORKLOADS[workload].rounds(0))
    return [(ops[i], *run.run_op(lib.cli, ops[i])) for i in indices]


def cases(lib, rng) -> list:
    """(label, problems found, whether problems are required)."""
    out = []
    for op, rc, text in _ops(lib, "ginibre_report", (0, 1)):
        out.append(("compute as reported", run.check_compute(op, rc, text, rng), False))
        rep = json.loads(text)
        out.append((
            "compute with D_S + 1e-7",
            reference.check_report(op.rho, dict(rep, D_S=rep["D_S"] + 1e-7), rng),
            True,
        ))
        for key, index in (("x_S", None), ("k_x", None), ("nub", 1), ("aub", 0),
                           ("aub_tilde", 1)):
            bad = json.loads(text)
            v = rng.standard_normal(3)
            v = (v / np.linalg.norm(v)).tolist()
            if index is None:
                bad["directions"][key] = v
            else:
                bad["directions"][key][index] = v
            out.append((
                f"compute with a random {key} direction",
                reference.check_report(op.rho, bad, rng),
                True,
            ))

    for op, rc, text in _ops(lib, "hstate_sweep", (0, 5, 9)):
        out.append((f"sweep p={op.key[0]} as reported", run.check_sweep(op, rc, text, rng), False))
        row = reference.parse_sweep(text)[0]
        out.append((
            f"sweep p={op.key[0]} with D_S + 1e-7",
            reference.check_sweep_row(*op.key, dict(row, D_S=row["D_S"] + 1e-7), rng),
            True,
        ))

    for op, rc, text in _ops(lib, "oracle_verify", (0, 1)):
        out.append(("verify as reported", run.check_verify(op, rc, text, rng), False))
        out.append(("verify with exit code 1", run.check_verify(op, 1, text, rng), True))
    return out


def main() -> int:
    lib = run.import_program()
    bad = 0
    for label, problems, required in cases(lib, np.random.default_rng(7)):
        ok = bool(problems) == required
        bad += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
        if not ok and problems:
            print("     " + "; ".join(problems))
    print(f"{bad} of the cases misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
