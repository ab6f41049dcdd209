import json
import subprocess
import sys

import numpy as np
import pytest

BASE = [sys.executable, "-m", "ccdiscord.cli"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, input=stdin
    )


def test_compute_example1_reference_values():
    proc = run_cli("compute", "--preset", "example1")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["D_A"] == pytest.approx((3 - np.sqrt(3)) / 64, abs=1e-10)
    assert rep["D_S"] == pytest.approx(1 / 32, abs=1e-9)
    assert rep["D_nub"] == pytest.approx(5 * (3 - np.sqrt(3)) / 192, abs=1e-6)
    assert rep["D_aub"] == pytest.approx((21 - 5 * np.sqrt(3)) / 384, abs=1e-10)
    assert rep["iteration"]["converged"] is True


def test_compute_example3_ordering():
    proc = run_cli("compute", "--preset", "example3")
    rep = json.loads(proc.stdout)
    assert rep["D_B"] < rep["D_A"] < rep["D_S"] <= rep["D_aub"] <= rep["D_nub"] + 1e-12
    assert rep["aub_branch"] in ("S'", "S''")
    assert rep["timing_s"] > 0


def test_compute_classical_state_all_small(tmp_path):
    path = tmp_path / "cc.json"
    path.write_text(
        json.dumps(
            {"bloch": {"x": [0, 0, 0.2], "y": [0, 0, 0.1], "T": np.diag([0, 0, 0.3]).tolist()}}
        )
    )
    proc = run_cli("compute", "--state", str(path))
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    for key in ("D_A", "D_B", "D_S", "D_nub", "D_aub"):
        assert abs(rep[key]) < 1e-10


def test_compute_reads_stdin():
    payload = json.dumps({"bloch": {"x": [0, 0, 0], "y": [0, 0, 0], "T": [[0, 0, 0]] * 3}})
    proc = run_cli("compute", "--state", "-", stdin=payload)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["D_S"] == pytest.approx(0.0, abs=1e-12)


def test_sweep_header_and_crossing(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep", "--family", "hstate", "--param", "p",
        "--start", "0.4", "--stop", "0.7", "--step", "0.1",
        "--fix", "phi=0.785398", "--output", str(out),
    )
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,D_A,D_B,D_S,D_nub,D_aub,D_aub_tilde,D_S11_nub"
    assert len(lines) == 5
    for line in lines[1:]:
        vals = dict(zip(lines[0].split(","), map(float, line.split(","))))
        assert max(vals["D_A"], vals["D_B"]) <= vals["D_S"] + 1e-9
        assert vals["D_S"] <= vals["D_aub"] + 1e-9
        assert vals["D_aub"] <= vals["D_S11_nub"] + 1e-12


def test_sweep_side_limits_capture_discontinuity():
    proc = run_cli(
        "sweep", "--family", "hstate", "--param", "p",
        "--start", "0.5", "--stop", "0.5", "--step", "1",
        "--side", "--columns", "D_aub,D_aub_tilde",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "param,D_aub,D_aub_tilde"
    rows = {float(l.split(",")[0]): list(map(float, l.split(",")[1:])) for l in lines[1:]}
    lo = min(rows)
    hi = max(rows)
    assert rows[lo][0] == pytest.approx(1 / 8, abs=1e-5)
    assert rows[hi][0] == pytest.approx(3 / 16, abs=1e-5)
    assert abs(rows[lo][1] - rows[hi][1]) < 1e-4


def test_sweep_phi_invariance_of_symmetric_discord():
    proc = run_cli(
        "sweep", "--family", "hstate", "--param", "phi",
        "--start", "0", "--stop", "3.0", "--step", "1.0",
        "--fix", "p=0.666667", "--columns", "D_S",
    )
    assert proc.returncode == 0
    vals = [float(l.split(",")[1]) for l in proc.stdout.strip().splitlines()[1:]]
    assert len(vals) == 4
    for v in vals:
        assert v == pytest.approx(7 / 36, abs=1e-6)


def test_sweep_single_row_when_start_equals_stop():
    proc = run_cli(
        "sweep", "--family", "werner", "--param", "p",
        "--start", "0.5", "--stop", "0.5", "--step", "0.1",
        "--columns", "D_S",
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 2


def test_sweep_grid_ends_exactly_at_stop():
    # repeated += 0.01 would reach p = 1.0000000000000007, past h_state's range
    proc = run_cli(
        "sweep", "--family", "hstate", "--param", "p",
        "--start", "0", "--stop", "1", "--step", "0.01",
        "--fix", "phi=1.5708", "--columns", "D_A",
    )
    assert proc.returncode == 0, proc.stderr
    params = [float(l.split(",")[0]) for l in proc.stdout.strip().splitlines()[1:]]
    assert len(params) == 101
    assert params[-1] == 1.0
    assert params == sorted(params)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, ccdiscord.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_iterate_example1_jsonl():
    proc = run_cli("iterate", "--preset", "example1")
    assert proc.returncode == 0
    recs = [json.loads(l) for l in proc.stdout.strip().splitlines()]
    assert recs[0]["n"] == 0
    assert recs[-1]["converged"] is True
    assert recs[-1]["value"] == pytest.approx(1 / 32, abs=1e-9)


def test_iterate_benchmark_family_stalls():
    proc = run_cli("iterate", "--preset", "hstate:p=0.55,phi=1.570796")
    assert proc.returncode == 0
    recs = [json.loads(l) for l in proc.stdout.strip().splitlines()]
    assert recs[-1]["stalled"] is True
    assert recs[-1]["converged"] is False


def test_verify_small_ensemble_passes():
    proc = run_cli("verify", "--states", "5", "--seeds", "0..5")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_closed_form_grid():
    proc = run_cli(
        "verify", "--preset", "hstate", "--p-grid", "11",
        "--states", "0",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_random_emits_valid_state(tmp_path):
    out = tmp_path / "state.json"
    proc = run_cli("random", "--rank", "1", "--seed", "5", "--output", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    from ccdiscord import bloch_from_json_dict, purity_norm_sq

    b = bloch_from_json_dict(data)
    assert purity_norm_sq(b) == pytest.approx(1.0, abs=1e-10)


def test_exit_code_parse_error():
    proc = run_cli("compute", "--preset", "hstate:p=oops")
    assert proc.returncode == 2


def test_exit_code_invalid_state(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bloch": {"x": [9, 0, 0], "y": [0, 0, 0], "T": [[0] * 3] * 3}}))
    proc = run_cli("compute", "--state", str(path))
    assert proc.returncode == 3


def test_exit_code_io_error(tmp_path):
    proc = run_cli("compute", "--state", str(tmp_path / "missing.json"))
    assert proc.returncode == 4


def test_exit_code_bad_sweep_columns():
    proc = run_cli(
        "sweep", "--family", "hstate", "--param", "p",
        "--start", "0.1", "--stop", "0.2", "--step", "0.1",
        "--columns", "D_bogus",
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("schema", ["bloch", "matrix"])
def test_exit_code_non_finite_state(schema, bad):
    if schema == "bloch":
        state = {"bloch": {"x": [bad, 0, 0], "y": [0, 0, 0], "T": [[0] * 3] * 3}}
    else:
        matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        matrix[0][1] = [bad, 0.0]
        state = {"matrix": matrix}
    payload = json.dumps(state)
    assert "NaN" in payload or "Infinity" in payload
    proc = run_cli("compute", "--state", "-", stdin=payload)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
