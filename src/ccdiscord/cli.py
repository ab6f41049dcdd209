"""Command-line interface.

Commands: compute (single-state report), sweep (CSV parameter sweep),
iterate (JSON-lines trace of the adaptive iteration), verify (oracle
and invariant checks on seeded ensembles), random (emit a random state
file).  Exit codes: 0 ok, 1 verification failure, 2 parse error,
3 invalid state, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from .bloch import (
    BlochForm,
    InvalidParameters,
    InvalidState,
    bloch_to_json_dict,
    dump_state,
    load_state,
)
from .bounds import (
    adaptive_bound,
    degenerate_optimized_bounds,
    iterate_adaptive,
    nonadaptive_bound,
    nonoptimal_optimized_aub,
)
from .discords import cc_discord, cq_discord, qc_discord
from .measurements import MeasurementPair
from .oracle import GridSpec, check_observation2, grid_cc_discord
from .presets import h_state, make, preset_names, random_state

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_IO = 4


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _load_input(args) -> BlochForm:
    if getattr(args, "preset", None):
        return make(args.preset)
    path = args.state
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from exc
    return load_state(text)


def _vec(v: np.ndarray) -> list[float]:
    return [float(f"{c:.17g}") for c in v]


def build_report(b: BlochForm, max_iters: int = 50) -> dict:
    """Aggregate every discord and bound for one state."""
    t0 = time.perf_counter()
    da = cq_discord(b)
    db = qc_discord(b, validate=False)
    ds = cc_discord(b, validate=False)
    nub = nonadaptive_bound(b, validate=False)
    aub = adaptive_bound(b, validate=False)
    degopt = degenerate_optimized_bounds(b, validate=False)
    tilde = nonoptimal_optimized_aub(b, validate=False)
    trace = iterate_adaptive(b, max_iters=max_iters, validate=False)
    elapsed = time.perf_counter() - t0
    return {
        "D_A": da.value,
        "D_B": db.value,
        "D_S": ds.value,
        "D_nub": nub.value,
        "D_aub": aub.value,
        "D_aub_degopt": degopt["aub"].value,
        "D_nub_degopt": degopt["nub"].value,
        "D_aub_tilde": tilde.value,
        "directions": {
            "k_x": _vec(da.k_hat),
            "k_y": _vec(db.k_hat),
            "x_S": _vec(ds.x_hat),
            "y_S": _vec(ds.y_hat),
            "nub": [_vec(nub.directions.n_hat), _vec(nub.directions.m_hat)],
            "aub": [_vec(aub.directions.n_hat), _vec(aub.directions.m_hat)],
            "aub_tilde": [_vec(tilde.directions.n_hat), _vec(tilde.directions.m_hat)],
        },
        "aub_branch": aub.branch.value,
        "symmetric_pair": ds.symmetric_pair,
        "optimizer_evals": ds.optimizer_evals,
        "ascent": {
            "rounds": ds.ascent_rounds,
            "capped": ds.ascent_capped,
            "newton_steps": ds.newton_steps,
            "grad_norm": ds.grad_norm,
        },
        "iteration": {
            "rounds": len(trace.steps),
            "final_value": trace.final_value,
            "stalled": trace.stalled,
            "converged": trace.converged,
        },
        "timing_s": elapsed,
    }


def cmd_compute(args) -> int:
    b = _load_input(args)
    report = build_report(b, max_iters=args.max_iters)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


SWEEP_COLUMNS = ["D_A", "D_B", "D_S", "D_nub", "D_aub", "D_aub_tilde", "D_S11_nub"]


def _sweep_row(b: BlochForm) -> dict[str, float]:
    degopt = degenerate_optimized_bounds(b)
    return {
        "D_A": cq_discord(b, validate=False).value,
        "D_B": qc_discord(b, validate=False).value,
        "D_S": cc_discord(b, validate=False).value,
        # degenerate-optimized product bound; the unoptimized one is D_S11_nub
        "D_nub": degopt["nub"].value,
        "D_aub": adaptive_bound(b, validate=False).value,
        "D_aub_tilde": nonoptimal_optimized_aub(b, validate=False).value,
        "D_S11_nub": nonadaptive_bound(b, validate=False).value,
    }


def cmd_sweep(args) -> int:
    if args.step <= 0:
        raise InvalidParameters("step must be positive")
    if args.start > args.stop:
        raise InvalidParameters("start must not exceed stop")
    fixed = {}
    for item in args.fix or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise InvalidParameters(f"malformed --fix {item!r}")
        fixed[key.strip()] = val.strip()

    columns = SWEEP_COLUMNS if not args.columns else args.columns.split(",")
    unknown = set(columns) - set(SWEEP_COLUMNS)
    if unknown:
        raise InvalidParameters(f"unknown columns: {sorted(unknown)}")

    # start + i*step, not repeated += step, which drifts past stop
    count = math.floor((args.stop - args.start + 1e-12) / args.step) + 1
    values = [min(args.start + i * args.step, args.stop) for i in range(count)]
    if args.side is not None:
        extra = []
        for v in values:
            extra.extend([v - args.side, v + args.side])
        values = sorted(v for v in set(values) | set(extra) if np.isfinite(v))

    lines = ["param," + ",".join(columns)]
    for v in values:
        params = dict(fixed)
        params[args.param] = _fmt(v)
        spec = args.family + ":" + ",".join(f"{k}={p}" for k, p in params.items())
        row = _sweep_row(make(spec))
        lines.append(",".join([_fmt(v)] + [_fmt(row[c]) for c in columns]))

    text = "\n".join(lines) + "\n"
    try:
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_iterate(args) -> int:
    b = _load_input(args)
    trace = iterate_adaptive(
        b, max_iters=args.max_iters, tol=args.tol, optimized=args.optimized
    )
    for step in trace.steps:
        last = step.n == trace.steps[-1].n
        rec = {
            "n": step.n,
            "value": step.value,
            "pair_Sprime": [
                _vec(step.pair_sprime.n_hat),
                _vec(step.pair_sprime.m_hat),
            ],
            "pair_Sdprime": [
                _vec(step.pair_sdprime.n_hat),
                _vec(step.pair_sdprime.m_hat),
            ],
        }
        if last:
            rec["stalled"] = trace.stalled
            rec["converged"] = trace.converged
        json.dump(rec, sys.stdout)
        sys.stdout.write("\n")
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi)))
    return [int(s) for s in text.split(",")]


def cmd_verify(args) -> int:
    failures: list[str] = []

    if args.preset:
        if not args.preset.startswith("hstate"):
            raise InvalidParameters("closed-form verification supports only hstate")
        residuals = []
        for p in np.linspace(0.0, 1.0, args.p_grid):
            b = h_state(float(p), phi=np.pi / 2)
            exact = 0.25 * min(2 * p * p, 7 * p * p - 8 * p + 3)
            got = cc_discord(b, validate=False).value
            residuals.append(abs(got - exact))
            if abs(got - exact) > 1e-9:
                failures.append(f"hstate p={p:.6f}: |D_S - closed form| = {abs(got - exact):.3g}")
        print(f"hstate closed form: max residual {max(residuals):.3g} over {args.p_grid} points")
    else:
        seeds = _parse_seeds(args.seeds) if args.seeds else list(range(args.states))
        res = 64 if args.strict else 32
        gaps, obs2 = [], []
        rng = np.random.default_rng(args.seed)
        rows = []
        for seed in seeds:
            b = random_state(4, seed)
            da = cq_discord(b, validate=False).value
            db = qc_discord(b, validate=False).value
            ds = cc_discord(b, validate=False).value
            aub = adaptive_bound(b, validate=False).value
            nub = nonadaptive_bound(b, validate=False).value
            chain_ok = max(da, db) <= ds + 1e-10 <= aub + 2e-10 <= nub + 3e-10
            if not chain_ok:
                failures.append(f"seed {seed}: inequality chain violated")
            oracle = grid_cc_discord(b, GridSpec(resolution=res), validate=False)
            if abs(oracle - ds) > 1e-6:
                failures.append(f"seed {seed}: |oracle - D_S| = {abs(oracle - ds):.3g}")
            pair = MeasurementPair(rng.normal(size=3), rng.normal(size=3))
            obs2.append(check_observation2(b, pair))
            if obs2[-1] > 1e-12:
                failures.append(f"seed {seed}: purity identity residual {obs2[-1]:.3g}")
            gaps.append(aub - ds)
            rows.append((seed, ds, aub - ds, abs(oracle - ds)))
        if args.strict:
            print(f"{'seed':>6} {'D_S':>22} {'aub gap':>12} {'oracle gap':>12}")
            for seed, ds, gap, ogap in rows:
                print(f"{seed:>6} {ds:>22.16g} {gap:>12.3g} {ogap:>12.3g}")
        print(
            f"{len(seeds)} states: median aub gap {np.median(gaps):.3g}, "
            f"max aub gap {max(gaps):.3g}, max purity-identity residual {max(obs2):.3g}"
        )

    if failures:
        print("FAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


def cmd_random(args) -> int:
    b = random_state(args.rank, args.seed)
    text = dump_state(b) + "\n"
    try:
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _add_state_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help=f"one of {preset_names()} with parameters")
    group.add_argument("--state", help="path to a state JSON file, or - for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdiscord",
        description="Geometric discords of two-qubit states and their "
        "measurement-based upper bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="full report for one state")
    _add_state_source(p)
    p.add_argument("--max-iters", type=int, default=50)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("sweep", help="CSV sweep over a preset parameter")
    p.add_argument("--family", required=True, help="preset family, e.g. hstate")
    p.add_argument("--param", required=True, help="swept parameter name")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--fix", action="append", help="fixed parameter, e.g. phi=1.5708")
    p.add_argument("--columns", help="comma-separated column subset")
    p.add_argument("--side", type=float, nargs="?", const=1e-6, default=None,
                   help="also evaluate at param +- eps (default eps 1e-6)")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("iterate", help="adaptive-bound iteration trace")
    _add_state_source(p)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-14)
    p.add_argument("--optimized", action="store_true",
                   help="refine each round over all eigenvector combinations")
    p.set_defaults(fn=cmd_iterate)

    p = sub.add_parser("verify", help="ensemble and closed-form checks")
    p.add_argument("--states", type=int, default=200)
    p.add_argument("--seeds", help="seed range a..b or comma list")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--preset", help="hstate for the closed-form grid check")
    p.add_argument("--p-grid", type=int, default=101)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random measurement pairs")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("random", help="emit a seeded random state file")
    p.add_argument("--rank", type=int, default=4, choices=(1, 2, 3, 4))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(fn=cmd_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidState as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
