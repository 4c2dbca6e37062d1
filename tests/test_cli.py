"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from chanapprox import cli, damping_bounds
from chanapprox.errors import NoConvergenceError

IDENTITY = '{"kind": "unitary", "alpha": 0, "beta": 0, "delta": 0}'
PAULI_ID = '{"kind": "pauli", "p": [1, 0, 0, 0]}'
PHASE_U = '{"kind": "unitary", "alpha": 0, "beta": 0.5235987755982988, "delta": 0}'
DAMPING = '{"kind": "damping", "q": 1, "gamma": 0.5}'
REF_PAULI = '{"kind": "pauli", "p": [0.75, 0.125, 0.125, 0]}'


def _read_csv(path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    return header, rows


# --- diamond command -----------------------------------------------------


def test_diamond_identical_channels(capsys) -> None:
    assert cli.main(["diamond", IDENTITY, PAULI_ID]) == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert float(lines["diamond distance"]) == 0.0
    assert float(lines["discrimination probability"]) == 0.5


def test_diamond_phase_unitary_vs_identity(capsys) -> None:
    assert cli.main(["diamond", PHASE_U, IDENTITY, "--tol", "1e-8"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert abs(float(lines["diamond distance"]) - 1.0) <= 1e-7
    lo, hi = json.loads(lines["certified bounds"])
    assert lo <= float(lines["diamond distance"]) <= hi
    assert float(lines["certificate gap"]) <= 1e-8


def test_diamond_damping_vs_reference_pauli_in_bracket(capsys) -> None:
    assert cli.main(["diamond", DAMPING, REF_PAULI]) == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    value = float(lines["diamond distance"])
    lower, upper = damping_bounds(1.0, 0.5)
    assert lower - 1e-6 <= value <= upper + 1e-6


def test_diamond_json_output_echoes_inputs(capsys) -> None:
    assert cli.main(["diamond", IDENTITY, PAULI_ID, "--format", "json"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["convention"]
    assert doc["inputs"]["a"]["kind"] == "unitary"
    assert doc["inputs"]["b"]["kind"] == "pauli"
    assert doc["distance"] == 0.0
    assert doc["gap"] <= 1e-7


def test_diamond_reads_spec_from_file(tmp_path, capsys) -> None:
    spec = tmp_path / "chan.json"
    spec.write_text(PAULI_ID)
    assert cli.main(["diamond", IDENTITY, str(spec)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "diamond distance: 0" in out


# --- approx command ------------------------------------------------------


def test_approx_singleton_equals_diamond(capsys) -> None:
    assert cli.main(["approx", PHASE_U, IDENTITY, "--format", "json"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["distance"] - 1.0) <= 1e-5
    assert doc["weights"] == [1.0]


def test_approx_phase_unitary_over_identity_and_z(capsys) -> None:
    z_spec = '{"kind": "pauli", "p": [0, 0, 0, 1]}'
    assert (
        cli.main(["approx", PHASE_U, IDENTITY, z_spec, "--format", "json"])
        == cli.EXIT_OK
    )
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["distance"] - np.sqrt(3.0) / 2) <= 1e-4
    assert abs(doc["weights"][0] - 0.75) <= 1e-3
    assert doc["bounds"]["lower_bound_choi"] <= doc["distance"]
    assert doc["distance"] <= doc["bounds"]["upper_bound_single"] + 1e-6


# --- exit codes ------------------------------------------------------------


def test_exit_code_parse_errors(capsys) -> None:
    assert cli.main(["diamond", "{bad json", IDENTITY]) == cli.EXIT_PARSE
    assert "error:" in capsys.readouterr().err
    assert cli.main(["diamond", IDENTITY, '{"kind": "warp"}']) == cli.EXIT_PARSE
    assert cli.main(["fig1", "--grid", "1"]) == cli.EXIT_PARSE
    assert cli.main(["fig3", "--grid", "5"]) == cli.EXIT_PARSE
    assert cli.main(["fig1", "--grid", "3", "--parallel", "0"]) == cli.EXIT_PARSE
    assert cli.main(["fig4", "--grid", "3", "--tol", "nan"]) == cli.EXIT_PARSE
    mismatched = '{"kind": "covariant", "p": 0.1, "d": 3}'
    assert cli.main(["diamond", IDENTITY, mismatched]) == cli.EXIT_PARSE


def test_exit_code_no_convergence(monkeypatch, capsys) -> None:
    def explode(*args, **kwargs):
        raise NoConvergenceError("iteration cap hit")

    monkeypatch.setattr(cli, "diamond_sdp", explode)
    assert cli.main(["diamond", IDENTITY, PAULI_ID]) == cli.EXIT_NOCONVERGENCE
    assert "error:" in capsys.readouterr().err


def test_exit_code_invariant_violation(monkeypatch, capsys) -> None:
    def bad_row(item):
        q, gamma, tol = item
        return (gamma, 9.9, 0.0, 1.0, 0.0)

    monkeypatch.setattr(cli, "_fig4_row", bad_row)
    assert cli.main(["fig4", "--grid", "3"]) == cli.EXIT_INVARIANT
    assert "bracket" in capsys.readouterr().err


# --- sweep outputs ---------------------------------------------------------


def test_fig1_endpoints_and_schema(tmp_path) -> None:
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--grid", "5", "--out", str(out)]) == cli.EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["x", "distance_analytic", "p_opt", "distance_sdp", "gap"]
    assert len(rows) == 5
    first, last = rows[0], rows[-1]
    assert first[0] == 0.0 and last[0] == 2.0
    assert abs(first[1]) <= 1e-9 and abs(first[3]) <= 1e-9
    assert abs(last[1] - 4.0 / 3.0) <= 1e-9
    assert abs(last[3] - 4.0 / 3.0) <= 1e-5
    for row in rows:
        assert abs(row[1] - row[3]) <= 1e-5
        assert row[4] <= 1e-7


def test_fig1_parallel_output_is_byte_identical(tmp_path) -> None:
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert cli.main(["fig1", "--grid", "11", "--out", str(serial)]) == cli.EXIT_OK
    assert (
        cli.main(
            ["fig1", "--grid", "11", "--parallel", "2", "--out", str(parallel)]
        )
        == cli.EXIT_OK
    )
    assert serial.read_bytes() == parallel.read_bytes()


def test_fig2_center_value_and_symmetry(tmp_path) -> None:
    out = tmp_path / "fig2.csv"
    delta = repr(np.pi / 4)
    assert (
        cli.main(["fig2", "--grid", "3x3", "--delta", delta, "--out", str(out)])
        == cli.EXIT_OK
    )
    header, rows = _read_csv(out)
    assert header == ["alpha", "beta", "distance", "gap"]
    assert len(rows) == 9
    table = {(round(r[0], 9), round(r[1], 9)) : r[2] for r in rows}
    mid = round(np.pi / 4, 9)
    hi = round(np.pi / 2, 9)
    assert abs(table[(mid, mid)] - 1.5) <= 1e-4
    # beta -> pi/2 - beta leaves the distance unchanged
    for alpha in (0.0, mid, hi):
        assert abs(table[(alpha, 0.0)] - table[(alpha, hi)]) <= 2e-6
    for row in rows:
        assert row[3] <= 1e-6


def test_fig3_zero_rate_rows_and_symmetry(tmp_path) -> None:
    out = tmp_path / "fig3.csv"
    assert cli.main(["fig3", "--grid", "3x3", "--out", str(out)]) == cli.EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["q", "gamma", "distance", "gap"]
    table = {(round(r[0], 9), round(r[1], 9)): r[2] for r in rows}
    for q in (0.0, 0.5, 1.0):
        assert table[(q, 0.0)] == 0.0
    for gamma in (0.0, 0.5, 1.0):
        assert abs(table[(0.0, gamma)] - table[(1.0, gamma)]) <= 1e-9


def test_fig3_is_deterministic(tmp_path) -> None:
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["fig3", "--grid", "3x3", "--out", str(first)]) == cli.EXIT_OK
    assert cli.main(["fig3", "--grid", "3x3", "--out", str(second)]) == cli.EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_fig4_bracket_and_width_growth(tmp_path) -> None:
    out = tmp_path / "fig4.csv"
    assert cli.main(["fig4", "--grid", "6", "--out", str(out)]) == cli.EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["gamma", "distance", "lower", "upper", "gap"]
    widths = []
    for gamma, dist, lower, upper, gap in rows:
        assert lower - 1e-6 <= dist <= upper + 1e-6
        widths.append(upper - lower)
    # the bound bracket only widens as the damping strength grows
    for a, b in zip(widths, widths[1:]):
        assert b >= a - 1e-9


def test_fig_csv_uses_twelve_significant_digits(tmp_path) -> None:
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--grid", "3", "--out", str(out)]) == cli.EXIT_OK
    text = out.read_text()
    assert "1.33333333333" in text  # x = 2 analytic value, 12 significant digits
    for line in text.strip().splitlines()[1:]:
        for cell in line.split(","):
            mantissa = cell.split("e")[0].replace(".", "").replace("-", "")
            assert len(mantissa.lstrip("0")) <= 12, cell


def test_twocopy_json_matches_reference_values(capsys) -> None:
    assert cli.main(["twocopy", "--format", "json"]) == cli.EXIT_OK
    records = {rec["label"]: rec for rec in json.loads(capsys.readouterr().out)}
    assert abs(records["twocopy-correlated"]["distance"] - 1.281) <= 2e-3
    assert abs(records["twocopy-product"]["distance"] - 1.312) <= 2e-3
    assert abs(records["twocopy-tensored"]["distance"] - 1.314) <= 2e-3
    weights = records["twocopy-correlated"]["weights"]
    assert abs(weights[0] - 0.60) <= 0.01
    assert abs(weights[1] - 0.20) <= 0.01
    assert abs(weights[2] - 0.20) <= 0.01
    assert abs(weights[3]) <= 0.01
    for rec in records.values():
        assert rec["convention"]


def test_module_entry_point_runs_in_subprocess(tmp_path) -> None:
    out = tmp_path / "fig1.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "chanapprox.cli", "fig1", "--grid", "3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    header, rows = _read_csv(out)
    assert len(rows) == 3
