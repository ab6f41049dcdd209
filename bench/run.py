"""Benchmark of ccdiscord through its command line, run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, and the run stops with a nonzero exit if it is not there.

One process and one caller in a closed loop: each operation is one
`ccdiscord.cli.main` call on one state, with standard input and output
held in memory, and it starts when the previous one has returned.  The
loop runs whole rounds of operations for about S seconds.
Every output is then checked by reference.py, outside the timed region.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The same object, with the
unscaled wall-clock figures, and the spans of a traced run are written
under bench/results/.  Times are scaled to a reference host speed by a
calibration kernel timed before each operation (see KERNEL_REF_S).

Workloads (inputs depend only on the seed):
  ginibre_report  `compute --state -` on seeded rank-4 Ginibre matrices,
                  16 per round: the optimizer and the iteration dominate.
  hstate_sweep    one-point `sweep` over rho(p, phi), 16 grid values of p
                  per round at one seeded phase: K_x and K_y have
                  degenerate eigenspaces, so the degenerate-candidate
                  bounds dominate.
  oracle_verify   `verify --strict --seeds s`, 4 seeded s per round: the
                  resolution-64 grid oracle dominates time and memory.  Not
                  listed in BENCHMARK.json: its grids are memory-bound, do
                  not follow the calibration kernel, and their times are
                  too unsteady on a shared host (see README.md).

--trace 0 reports the end-to-end metrics.  --trace 1 first runs the
loop untraced for S/8 seconds, then reruns the same operations traced:
after each command it calls the library's public functions on the same
state, one span each, and derives the per-module metrics from the spans
(spans.py).  The tracing overhead compares each traced command with a
plain run of it made just before.
"""

import os

# One BLAS thread, set before numpy is first imported (the set-up runs
# inherit it): the benchmark is a single-threaded caller on a shared
# machine, and threaded BLAS makes the grid oracle's timings wander.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import reference
from spans import Tracer, module_metrics

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

GINIBRE_ROUND = 16
# Step 0.1 below p = 1/2 and 0.05 from 1/2 to 1, where the top eigenvalues of
# K_x and K_y are degenerate and the closed forms switch branch (p = 1/2 and
# 3/5).  An even grid would put half the points on each side of p = 1/2, so
# the median time would sit on the jump in cost there and wander between runs.
P_GRID = tuple(i / 10 for i in range(5)) + tuple(i / 20 for i in range(10, 21))
VERIFY_ROUND = 4
ORACLE_RESOLUTION = 64  # what `verify --strict` uses
MAX_ITERS = 50  # the `compute` default
SETUP_RUNS = 3
IMPORTTIME_RUNS = 3
# Times are scaled to a reference host speed: the speed of a shared host
# drifts by up to 1.5x over seconds to minutes, which no run length
# averages out.  Before each operation the loop times a fixed CPU kernel;
# an operation's time is multiplied by KERNEL_REF_S over the median
# kernel time of its 2 * KERNEL_WINDOW + 1 nearest operations.
KERNEL_REF_S = 3e-4
KERNEL_WINDOW = 5
_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import ccdiscord.cli as cli; cli.build_parser()"
)


@dataclass(frozen=True)
class Op:
    """One command call: argv, standard input, and the state it acts on
    as built by reference.py, plus the presets call that builds it in
    the program and the values the check needs."""

    argv: list
    rho: np.ndarray
    preset: tuple
    key: tuple = ()
    stdin: str = ""


@dataclass(frozen=True)
class Workload:
    rounds: Callable[[int], Iterator[list]]
    check: Callable[[Op, int, str, np.random.Generator], list]
    # library spans that replay calls the command itself makes
    in_command: frozenset


def ginibre_rounds(seed: int) -> Iterator[list]:
    for r in itertools.count():
        ops = []
        for i in range(GINIBRE_ROUND):
            rho = reference.ginibre(np.random.default_rng([seed, r, i]))
            preset = ("random_state", (4, r * GINIBRE_ROUND + i))
            argv = ["compute", "--state", "-"]
            ops.append(Op(argv, rho, preset, stdin=reference.matrix_json(rho)))
        yield ops


def hstate_rounds(seed: int) -> Iterator[list]:
    rng = np.random.default_rng(seed)
    while True:
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        ops = []
        for p in P_GRID:
            argv = ["sweep", "--family", "hstate", "--param", "p", "--start", repr(p),
                    "--stop", repr(p), "--step", "1", "--fix", f"phi={phi!r}"]
            preset = ("make", (f"hstate:phi={phi!r},p={p:.17g}",))
            ops.append(Op(argv, reference.hstate(p, phi), preset, key=(p, phi)))
        yield ops


def verify_rounds(seed: int) -> Iterator[list]:
    rng = np.random.default_rng(seed)
    while True:
        ops = []
        for s in rng.integers(0, 2**31, VERIFY_ROUND).tolist():
            rho = reference.ginibre(np.random.default_rng(s))
            argv = ["verify", "--strict", "--seeds", str(s)]
            ops.append(Op(argv, rho, ("random_state", (4, s)), key=(s,)))
        yield ops


def check_compute(op, rc, out, rng):
    if rc != 0:
        return [f"compute exit code {rc}"]
    return reference.check_report(op.rho, json.loads(out), rng)


def check_sweep(op, rc, out, rng):
    rows = reference.parse_sweep(out)
    if rc != 0 or len(rows) != 1:
        return [f"sweep exit code {rc}, {len(rows)} rows"]
    return reference.check_sweep_row(*op.key, rows[0], rng)


def check_verify(op, rc, out, rng):
    return reference.check_verify(op.key[0], rc, out, rng)


_DISCORDS_AND_BOUNDS = {
    "discords.cq_discord",
    "discords.qc_discord",
    "discords.cc_discord",
    "bounds.nonadaptive_bound",
    "bounds.adaptive_bound",
}
WORKLOADS = {
    "ginibre_report": Workload(
        ginibre_rounds,
        check_compute,
        frozenset(_DISCORDS_AND_BOUNDS | {
            "bloch.load_state",
            "bounds.degenerate_optimized_bounds",
            "bounds.nonoptimal_optimized_aub",
            "bounds.iterate_adaptive",
        }),
    ),
    "hstate_sweep": Workload(
        hstate_rounds,
        check_sweep,
        frozenset(_DISCORDS_AND_BOUNDS | {
            "presets.state",
            "bounds.degenerate_optimized_bounds",
            "bounds.nonoptimal_optimized_aub",
        }),
    ),
    "oracle_verify": Workload(
        verify_rounds,
        check_verify,
        frozenset(_DISCORDS_AND_BOUNDS | {
            "presets.state",
            "oracle.grid_cc_discord",
            "oracle.check_observation2",
        }),
    ),
}


def import_program():
    """Import ccdiscord from ./src of the checkout, ahead of any installed copy."""
    src = ROOT / "src"
    if not (src / "ccdiscord" / "cli.py").is_file():
        sys.exit(f"error: no ccdiscord sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import ccdiscord
    import ccdiscord.cli

    return ccdiscord


def run_op(cli, op: Op) -> tuple:
    """(exit code, standard output) of one command; the exit code is
    None when the command raised, and the output is then the exception."""
    out = io.StringIO()
    sys.stdin = io.StringIO(op.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(op.argv), out.getvalue()
    except (Exception, SystemExit) as exc:  # a crash counts as a failed operation
        return None, repr(exc)
    finally:
        sys.stdin = sys.__stdin__


def kernel_seconds() -> float:
    """Least wall time of 3 runs of a fixed kernel of Python arithmetic
    and small matrix products, the mix the commands spend their time on."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(3000):
            total += i * 0.5
        for _ in range(40):
            _KERNEL_MATRIX @ _KERNEL_MATRIX
        best = min(best, time.perf_counter() - t0)
    return best


def timed_rounds(cli, rounds: Iterator[list], seconds: float) -> list:
    """Run whole rounds for about `seconds`: stop once another round would
    end more than half a round past them.  Returns (op, exit code,
    output, seconds, kernel seconds just before) per operation."""
    done = []
    start = time.perf_counter()
    for count, ops in enumerate(rounds, 1):
        for op in ops:
            kernel = kernel_seconds()
            t0 = time.perf_counter()
            rc, out = run_op(cli, op)
            done.append((op, rc, out, time.perf_counter() - t0, kernel))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / count) >= seconds:
            return done


def check_all(workload: Workload, done: list, seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    failures = []
    for i, (op, rc, out, *_) in enumerate(done):
        if rc is None:
            continue
        try:
            problems = workload.check(op, rc, out, rng)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        failures += [f"op {i} {' '.join(op.argv)}: {p}" for p in problems]
    return failures


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, check=True
    )


def setup_seconds() -> tuple:
    """Median wall time, raw and scaled, of a fresh interpreter importing
    ccdiscord.cli and building its parser, after one run that
    byte-compiles the package."""
    _python("-c", SETUP_CODE)
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        before = kernel_seconds()
        t0 = time.perf_counter()
        _python("-c", SETUP_CODE)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * KERNEL_REF_S * 2 / (before + kernel_seconds()))
    return statistics.median(raw), statistics.median(scaled)


def _cumulative_ms(importtime: str, package: str) -> float:
    """Cumulative import time of `package` and its submodules, counting
    each top-most such import once."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative)))
    total, ancestors = 0, []
    # importtime prints a module after its imports; reversed, parents come first
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        ours = name == package or name.startswith(package + ".")
        if ours and not any(a[2] for a in ancestors):
            total += cumulative
        ancestors.append((depth, name, ours))
    return total / 1e3


def import_times() -> dict:
    _python("-c", SETUP_CODE)
    runs = [_python("-X", "importtime", "-c", SETUP_CODE).stderr for _ in range(IMPORTTIME_RUNS)]
    return {
        f"setup.import_{package}_ms": statistics.median(_cumulative_ms(r, package) for r in runs)
        for package in ("numpy", "scipy", "ccdiscord")
    }


def replay(lib, tracer: Tracer, op: Op, op_id: int, parent: int, in_command, rng) -> None:
    """Call each module's public functions on the operation's state, one
    span each, as the command does for the spans in in_command."""

    def span(name, fn, *args, **kwargs):
        return tracer.call(name, op_id, parent, fn, *args, **kwargs)

    text = op.stdin or reference.matrix_json(op.rho)
    loaded = span("bloch.load_state", lib.bloch.load_state, text)
    fn_name, args = op.preset
    built = span("presets.state", getattr(lib.presets, fn_name), *args)
    b = loaded if "bloch.load_state" in in_command else built

    span("eig3.eigh3", lib.eig3.eigh3, lib.discords.k_matrix_x(b))
    span("eig3.eigh3", lib.eig3.eigh3, lib.discords.k_matrix_y(b))
    cq = span("discords.cq_discord", lib.discords.cq_discord, b, validate=False)
    tracer.note(degenerate=bool(cq.degenerate))
    qc = span("discords.qc_discord", lib.discords.qc_discord, b, validate=False)
    tracer.note(degenerate=bool(qc.degenerate))
    cc = span("discords.cc_discord", lib.discords.cc_discord, b, validate=False)
    tracer.note(evals=cc.optimizer_evals)
    span("bounds.nonadaptive_bound", lib.bounds.nonadaptive_bound, b, validate=False)
    span("bounds.adaptive_bound", lib.bounds.adaptive_bound, b, validate=False)
    span("bounds.degenerate_optimized_bounds", lib.bounds.degenerate_optimized_bounds,
         b, validate=False)
    span("bounds.nonoptimal_optimized_aub", lib.bounds.nonoptimal_optimized_aub,
         b, validate=False)
    trace = span("bounds.iterate_adaptive", lib.bounds.iterate_adaptive, b,
                 max_iters=MAX_ITERS, validate=False)
    tracer.note(rounds=len(trace.steps), budget=not (trace.converged or trace.stalled))
    pair = lib.measurements.MeasurementPair(cc.x_hat, cc.y_hat)
    span("measurements.measure_ab", lib.measurements.measure_ab, b, pair)
    span("oracle.grid_cc_discord", lib.oracle.grid_cc_discord, b,
         lib.oracle.GridSpec(resolution=ORACLE_RESOLUTION), validate=False)
    pair = lib.measurements.MeasurementPair(rng.normal(size=3), rng.normal(size=3))
    span("oracle.check_observation2", lib.oracle.check_observation2, b, pair)


def profile(rows: list) -> str:
    """What the traced states are made of, from the spans' counts."""
    ops = {row[4] for row in rows}
    degenerate = {r[4] for r in rows if r[0].startswith("discords.") and r[5]
                  and r[5].get("degenerate")}
    iters = [r[5] for r in rows if r[0] == "bounds.iterate_adaptive"]
    rounds = sorted(a["rounds"] for a in iters)
    return (
        f"profile: {len(ops)} states, degenerate top of K_x or K_y "
        f"{len(degenerate)}/{len(ops)}, iteration rounds min/median/max "
        f"{rounds[0]}/{statistics.median(rounds)}/{rounds[-1]}, ending at "
        f"max_iters without a flag {sum(a['budget'] for a in iters)}/{len(iters)}"
    )


def scaled_seconds(done: list) -> list:
    """Each operation's time at the reference host speed."""
    kernels = [kernel for *_, kernel in done]
    out = []
    for i, (*_, seconds, _) in enumerate(done):
        near = kernels[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 1]
        out.append(seconds * KERNEL_REF_S / statistics.median(near))
    return out


def end_to_end(setup_s: float, seconds: list) -> dict:
    ms = [1e3 * t for t in seconds]
    return {
        "setup_s": setup_s,
        "states_per_s": len(ms) / sum(seconds),
        "state_ms_p50": statistics.median(ms),
        "state_ms_p95": statistics.quantiles(ms, n=20)[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(lib, workload: Workload, seed: int, seconds: float) -> tuple:
    """An untraced pass of whole rounds for seconds / 8, then the same
    operations again, each run once plainly and once traced (the replay
    makes a traced operation several times as long)."""
    untraced = timed_rounds(lib.cli, workload.rounds(seed), seconds / 8)
    tracer = Tracer()
    rng = np.random.default_rng([seed, 2])
    done = list(untraced)
    plain_s = traced_s = 0.0
    for op_id, (op, *_) in enumerate(untraced):
        t0 = time.perf_counter()
        run_op(lib.cli, op)
        plain_s += time.perf_counter() - t0
        root = tracer.open("op", op_id)
        command = tracer.open("cli." + op.argv[0], op_id, root)
        rc, out = run_op(lib.cli, op)
        tracer.close(command)
        traced_s += tracer.rows[command][2] - tracer.rows[command][1]
        done.append((op, rc, out, None, None))
        replay(lib, tracer, op, op_id, root, workload.in_command, rng)
        tracer.close(root)
    metrics = module_metrics(tracer.rows, workload.in_command)
    # each traced command against the plain run just before it, so that
    # the machine's drift in speed cancels
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    return done, metrics, tracer


def declared_metrics(trace: int) -> dict:
    """Name to unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    lib = import_program()
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wall_clock = {}
    if args.trace:
        metrics = import_times()
        done, layer, tracer = traced(lib, workload, args.seed, args.seconds)
        metrics.update(layer)
        tracer.write(RESULTS / f"spans-{tag}.jsonl")
        print(profile(tracer.rows), file=sys.stderr)
    else:
        raw_setup_s, setup_s = setup_seconds()
        done = timed_rounds(lib.cli, workload.rounds(args.seed), args.seconds)
        metrics = end_to_end(setup_s, scaled_seconds(done))
        wall_clock = end_to_end(raw_setup_s, [seconds for *_, seconds, _ in done])

    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        sys.exit(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    failures = check_all(workload, done, args.seed)
    crashed = [out for _, rc, out, *_ in done if rc is None]
    for message in (failures + crashed)[:20]:
        print(message, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(done),
        "failed": len(crashed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, wall_clock=wall_clock, failures=failures, crashed=crashed),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
