"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chanapprox import cli, damping_bounds, diamond_sdp, identity, unitary_qubit
from chanapprox import sdp
from chanapprox.errors import NoConvergenceError

import helpers

IDENTITY = '{"kind": "unitary", "alpha": 0, "beta": 0, "delta": 0}'
PAULI_ID = '{"kind": "pauli", "p": [1, 0, 0, 0]}'
PHASE_U = '{"kind": "unitary", "alpha": 0, "beta": 0.5235987755982988, "delta": 0}'
DAMPING = '{"kind": "damping", "q": 1, "gamma": 0.5}'
REF_PAULI = '{"kind": "pauli", "p": [0.75, 0.125, 0.125, 0]}'
# Against STEEP_DAMPING, whose optimal input state is pure, neither the closed
# form at the maximally mixed reference nor the reference iteration closes
# this one, so the diamond command reaches the solver.
STEEP_DAMPING = '{"kind": "damping", "q": 1, "gamma": 0.9}'
SKEW_PAULI = '{"kind": "pauli", "p": [0.7, 0.2, 0.1, 0]}'


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


def test_approx_vertex_pauli_members_take_the_unitary_closed_form(capsys, monkeypatch) -> None:
    # Pauli specs at a vertex are the unitary channels of I and Z, so their
    # single-member bound is diamond_sdp's, which closes in the closed-form
    # bracket at the maximally mixed input (as every qubit unitary pair
    # does) without a solve, within its gap of diamond_unitary's 2 sin(1/2)
    target = '{"kind": "unitary", "alpha": 0, "beta": 0.5, "delta": 0}'
    vertices = ['{"kind": "pauli", "p": [1, 0, 0, 0]}', '{"kind": "pauli", "p": [0, 0, 0, 1]}']
    z_unitary = '{"kind": "unitary", "alpha": 0, "beta": 1.5707963267948966, "delta": 0}'
    unitaries = [IDENTITY, z_unitary]
    solve = sdp._solve_ipm
    census = []

    def counting(prog, *args, **kwargs):
        census.append((prog.k, prog.ref))
        return solve(prog, *args, **kwargs)

    monkeypatch.setattr(sdp, "_solve_ipm", counting)
    bounds, censuses = [], []
    for members in (vertices, unitaries):
        census.clear()
        assert cli.main(["approx", target, *members, "--format", "json"]) == cli.EXIT_OK
        bounds.append(json.loads(capsys.readouterr().out)["bounds"]["upper_bound_single"])
        censuses.append(list(census))
    # the vertices and the unitary specs alike are found as I and Z: both
    # take the Pauli-set route, and no solve for the mixture, the Choi bound
    # or a member
    assert censuses == [[], []]
    assert bounds[0] == bounds[1]
    identity_member = diamond_sdp(unitary_qubit(0.0, 0.5, 0.0), identity(2), 1e-7)
    assert bounds[0] == identity_member.value
    assert abs(bounds[0] - 0.9588510772084059) <= identity_member.gap <= 1e-12


def test_approx_text_output_lists_every_field(capsys) -> None:
    # Z as a unitary spec: its Choi matrix differs from the Pauli Z's in
    # the last bits, but its largest Bell-diagonal entry is Z's, so the
    # mixture takes the Pauli-set route and no iteration
    z_spec = '{"kind": "unitary", "alpha": 0, "beta": 1.5707963267948966, "delta": 0}'
    assert cli.main(["approx", PHASE_U, IDENTITY, z_spec]) == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert list(lines) == [
        "distance",
        "weights",
        "upper bound (best single member)",
        "lower bound (joint trace program)",
        "certificate gap",
        "iterations",
    ]
    distance = float(lines["distance"])
    assert abs(distance - np.sqrt(3.0) / 2) <= 1e-4
    weights = [float(w) for w in lines["weights"].split()]
    assert len(weights) == 2 and abs(weights[0] - 0.75) <= 1e-3
    assert abs(sum(weights) - 1.0) <= 1e-9
    lower = float(lines["lower bound (joint trace program)"])
    upper = float(lines["upper bound (best single member)"])
    assert lower <= distance <= upper + 1e-6
    assert 0.0 <= float(lines["certificate gap"]) <= 1e-12
    assert int(lines["iterations"]) == 0


def test_approx_over_the_pauli_vertices_takes_no_iteration(capsys) -> None:
    # the README's worst-case unitary against the four vertex Pauli specs:
    # the Pauli-set route closes it, and every bound is in closed form
    angle = 0.7853981633974483
    target = json.dumps({"kind": "unitary", "alpha": angle, "beta": angle, "delta": angle})
    vertices = [json.dumps({"kind": "pauli", "p": row.tolist()}) for row in np.eye(4)]
    assert cli.main(["approx", target, *vertices]) == cli.EXIT_OK
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert lines["iterations"] == "0"
    assert float(lines["certificate gap"]) <= 1e-12
    assert abs(float(lines["distance"]) - 1.5) <= 1e-12


# --- exit codes ------------------------------------------------------------


def test_exit_code_parse_errors(tmp_path, capsys) -> None:
    assert cli.main(["diamond", "{bad json", IDENTITY]) == cli.EXIT_PARSE
    assert "error:" in capsys.readouterr().err
    assert cli.main(["diamond", IDENTITY, '{"kind": "warp"}']) == cli.EXIT_PARSE
    missing = str(tmp_path / "missing.json")
    assert cli.main(["diamond", IDENTITY, missing]) == cli.EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err
    assert cli.main(["fig1", "--grid", "1"]) == cli.EXIT_PARSE
    assert cli.main(["fig3", "--grid", "5"]) == cli.EXIT_PARSE
    assert cli.main(["fig3", "--grid", "2xa"]) == cli.EXIT_PARSE
    assert cli.main(["fig1", "--grid", "3", "--parallel", "0"]) == cli.EXIT_PARSE
    assert cli.main(["fig1", "--grid", "3", "--parallel", "abc"]) == cli.EXIT_PARSE
    assert cli.main(["fig4", "--grid", "3", "--tol", "nan"]) == cli.EXIT_PARSE
    mismatched = '{"kind": "covariant", "p": 0.1, "d": 3}'
    assert cli.main(["diamond", IDENTITY, mismatched]) == cli.EXIT_PARSE
    capsys.readouterr()
    nan_pauli = '{"kind": "pauli", "p": [NaN, 0, 0, 1]}'
    assert cli.main(["diamond", nan_pauli, PAULI_ID]) == cli.EXIT_PARSE
    assert "invalid 'pauli' spec" in capsys.readouterr().err
    # spec dimensions above 4 or not integers are named in the message
    too_big = '{"kind": "covariant", "p": 0.3, "d": 5}'
    assert cli.main(["approx", too_big, too_big]) == cli.EXIT_PARSE
    assert "'d': dimension 5" in capsys.readouterr().err
    fractional = '{"kind": "covariant", "p": 0.5, "d": 2.7}'
    assert cli.main(["diamond", fractional, IDENTITY]) == cli.EXIT_PARSE
    assert "'d' must be an integer" in capsys.readouterr().err
    damp = '{"kind": "damping", "q": 1, "gamma": 0.5}'
    pair = f'{{"kind": "tensor", "factors": [{damp}, {damp}]}}'
    nested = f'{{"kind": "tensor", "factors": [{pair}, {damp}]}}'
    assert cli.main(["diamond", nested, nested]) == cli.EXIT_PARSE
    assert "'factors': dimension 4 x 2" in capsys.readouterr().err


def test_exit_code_no_convergence(monkeypatch, capsys) -> None:
    def explode(*args, **kwargs):
        raise NoConvergenceError("iteration cap hit")

    monkeypatch.setattr(cli, "diamond_sdp", explode)
    assert cli.main(["diamond", IDENTITY, PAULI_ID]) == cli.EXIT_NOCONVERGENCE
    assert "error:" in capsys.readouterr().err
    monkeypatch.undo()

    # the real solver: a singular Schur solve leaves a wide certified gap
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(sdp, "_lin_solve", singular)
    assert cli.main(["diamond", STEEP_DAMPING, SKEW_PAULI]) == cli.EXIT_NOCONVERGENCE
    assert "above tolerance" in capsys.readouterr().err


def _without_solves(row):
    """A row worker (a step generator) that returns ``row(item)`` and
    requests no solve."""

    def worker(item):
        return row(item)
        yield

    return worker


def test_exit_code_invariant_violation(tmp_path, monkeypatch, capsys) -> None:
    def bad_row(item):
        q, gamma, tol = item
        return (gamma, 9.9, 0.0, 1.0, 0.0)

    def wide_gap_row(item):
        alpha, beta, delta, tol = item
        return (alpha, beta, 0.5, 10.0 * tol)

    def disagreeing_row(item):
        x, sdp_tol = item
        return (x, 0.0, 0.5, 0.25, 0.0)

    def slightly_disagreeing_row(item):
        # 2e-7 apart at the default tol 1e-7: the SDP column, solved to
        # 1e-9, can sit at most 5e-10 from the analytic one
        x, sdp_tol = item
        return (x, 0.5, 0.5, 0.5 + 2e-7, 0.0)

    monkeypatch.setattr(cli, "_fig4_row", _without_solves(bad_row))
    monkeypatch.setattr(cli, "_fig2_row", _without_solves(wide_gap_row))
    out = tmp_path / "previous.csv"
    out.write_text("previous contents\n")
    cases = (
        (["fig4", "--grid", "3"], "bracket", None),
        (["fig2", "--grid", "2x2"], "certificate gap", None),
        (["fig1", "--grid", "3"], "disagree", disagreeing_row),
        (["fig1", "--grid", "3"], "disagree", slightly_disagreeing_row),
    )
    for argv, message, fig1_row in cases:
        if fig1_row is not None:
            monkeypatch.setattr(cli, "_fig1_row", _without_solves(fig1_row))
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_INVARIANT
        assert message in capsys.readouterr().err
        # nothing is written unless every row passes its checks
        assert out.read_text() == "previous contents\n"


def test_nan_rows_violate_the_sweep_checks(tmp_path, monkeypatch, capsys) -> None:
    nan = float("nan")

    def nan_row(item):
        alpha, beta, delta, tol = item
        return (alpha, beta, nan, nan)

    def nan_bracket_row(item):
        q, gamma, tol = item
        return (gamma, nan, 0.0, 1.0, 0.0)

    def nan_sdp_row(item):
        x, sdp_tol = item
        return (x, 0.5, 0.5, nan, 0.0)

    monkeypatch.setattr(cli, "_fig2_row", _without_solves(nan_row))
    monkeypatch.setattr(cli, "_fig4_row", _without_solves(nan_bracket_row))
    monkeypatch.setattr(cli, "_fig1_row", _without_solves(nan_sdp_row))
    out = tmp_path / "previous.csv"
    out.write_text("previous contents\n")
    cases = (
        (["fig2", "--grid", "2x2"], "certificate gap nan"),
        (["fig4", "--grid", "3"], "bracket"),
        (["fig1", "--grid", "3"], "disagree"),
    )
    for argv, message in cases:
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_INVARIANT
        assert message in capsys.readouterr().err
        assert out.read_text() == "previous contents\n"


def test_unwritable_out_path_is_a_parse_error(tmp_path, capsys) -> None:
    target = str(tmp_path / "no-such-dir" / "out.txt")
    assert cli.main(["fig1", "--grid", "3", "--out", target]) == cli.EXIT_PARSE
    assert f"error: cannot write {target!r}: " in capsys.readouterr().err
    assert cli.main(["diamond", IDENTITY, PAULI_ID, "--out", target]) == cli.EXIT_PARSE
    assert f"error: cannot write {target!r}: " in capsys.readouterr().err


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
    auto = tmp_path / "auto.csv"
    assert cli.main(["fig1", "--grid", "11", "--out", str(serial)]) == cli.EXIT_OK
    assert (
        cli.main(
            ["fig1", "--grid", "11", "--parallel", "2", "--out", str(parallel)]
        )
        == cli.EXIT_OK
    )
    # a bare --parallel uses one worker per CPU
    assert (
        cli.main(["fig1", "--grid", "11", "--out", str(auto), "--parallel"])
        == cli.EXIT_OK
    )
    assert serial.read_bytes() == parallel.read_bytes() == auto.read_bytes()


@pytest.mark.parametrize(
    "argv", [["fig2", "--grid", "3x3"], ["fig3", "--grid", "3x3"], ["fig4", "--grid", "5"]]
)
def test_parallel_output_is_byte_identical(tmp_path, argv) -> None:
    # serially the sweep is one batch; with two workers it is two chunks
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert cli.main([*argv, "--out", str(serial)]) == cli.EXIT_OK
    assert cli.main([*argv, "--parallel", "2", "--out", str(parallel)]) == cli.EXIT_OK
    assert serial.read_bytes() == parallel.read_bytes()


def test_parallel_pool_has_at_most_one_worker_per_row(tmp_path, monkeypatch) -> None:
    """A pool has at most one worker per row and, for a given count or a
    bare --parallel, at most one per CPU. No real pool starts: the pool
    records its size and maps in-process, and the CPU count is pinned."""
    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    out = tmp_path / "fig4.csv"
    cases = (("3", "5000", 3), ("3", "2", 2), ("9", "5000", 4), ("9", "auto", 4), ("9", "3", 3))
    for grid, parallel, size in cases:
        argv = ["fig4", "--grid", grid, "--parallel", parallel, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert sizes.pop() == size and sizes == []
    # a single row never starts a pool
    assert cli._map_rows(_without_solves(abs), [-1.0], 5000) == [1.0]
    assert sizes == []


@pytest.mark.parametrize("grid", ["100000000000", "1000001", "1001x1000"])
def test_a_grid_above_a_million_rows_exits_2_before_any_row(grid, monkeypatch, capsys) -> None:
    """The row count is checked before the grid's axes are made: a NumPy
    array of 1e11 points would need 745 GiB."""
    made = []
    monkeypatch.setattr(cli.np, "linspace", lambda *args: made.append(args))
    command = "fig1" if "x" not in grid else "fig3"
    assert cli.main([command, "--grid", grid]) == cli.EXIT_PARSE
    assert "more than 1000000 rows" in capsys.readouterr().err
    assert made == []


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


def test_fig1_json_rows_match_csv(tmp_path, capsys) -> None:
    out = tmp_path / "fig1.csv"
    assert cli.main(["fig1", "--grid", "3", "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["fig1", "--grid", "3", "--format", "json"]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    header, rows = _read_csv(out)
    assert doc["columns"] == header
    assert doc["convention"]
    assert len(doc["rows"]) == len(rows)
    for rec, row in zip(doc["rows"], rows):
        assert list(rec) == header
        assert [float(format(rec[c], ".12g")) for c in header] == row


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
        # every record carries its own certificate
        primal, dual = rec["bounds"]["primal"], rec["bounds"]["dual"]
        assert rec["gap"] == dual - primal <= rec["inputs"]["tol"]
        assert primal <= rec["distance"] <= dual


def test_twocopy_output_is_byte_identical_across_runs(capsys) -> None:
    # the accelerated product search is deterministic
    def run(*argv) -> str:
        assert cli.main(["twocopy", *argv]) == cli.EXIT_OK
        return capsys.readouterr().out

    def without_wall_time(text: str) -> str:
        records = json.loads(text)
        for rec in records:
            rec.pop("wall_time_s")
        return json.dumps(records)

    assert run() == run()
    assert without_wall_time(run("--format", "json")) == without_wall_time(
        run("--format", "json")
    )


def test_twocopy_text_output(monkeypatch, capsys) -> None:
    fixed = helpers.canned_multi_copy()
    calls = []

    def fake(target, members, copies, tol):
        calls.append((len(members), copies, tol))
        return fixed

    bound_calls = []

    def fake_bounds(target, members, distance):
        bound_calls.append((target.dim, len(members), distance))
        return 1.5, 1.0

    monkeypatch.setattr(cli, "multi_copy_approx", fake)
    monkeypatch.setattr(cli, "approx_bounds", fake_bounds)
    assert cli.main(["twocopy"]) == cli.EXIT_OK
    assert calls == [(2, 2, 1e-6)]
    # the text output prints no bounds, so it pays for none
    assert bound_calls == []
    assert fixed.values == (1.25, 1.3, 1.375)
    out = capsys.readouterr().out
    lines = dict(line.strip().split(": ", 1) for line in out.strip().splitlines())
    assert lines == {
        "correlated mixture distance": "1.25",
        "weights (II IZ ZI ZZ)": "0.6 0.2 0.2 0",
        "product mixture distance": "1.3",
        "copy-1 weights": "0.7 0.3",
        "copy-2 weights": "0.625 0.375",
        "tensored single-copy distance": "1.375",
        "single-copy weights": "0.75 0.25",
    }
    # the JSON correlated record takes its bounds over the two-copy set
    assert cli.main(["twocopy", "--format", "json"]) == cli.EXIT_OK
    assert bound_calls == [(4, 4, 1.25)]
    records = {r["label"]: r for r in json.loads(capsys.readouterr().out)}
    corr = records["twocopy-correlated"]["bounds"]
    assert (corr["upper_bound_single"], corr["lower_bound_choi"]) == (1.5, 1.0)
    assert set(records["twocopy-product"]["bounds"]) == {"primal", "dual"}


def test_module_entry_point_runs_in_subprocess(capsys) -> None:
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "chanapprox.cli", *argv], capture_output=True
        )

    # the exit code and the stdout bytes are those of an in-process run
    proc = run("fig1", "--grid", "3")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert cli.main(["fig1", "--grid", "3"]) == cli.EXIT_OK
    assert proc.stdout == capsys.readouterr().out.encode("ascii")
    proc = run("fig1", "--grid", "1")
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stdout == b""
    assert b"error:" in proc.stderr


# --- parser and sweep runner -------------------------------------------------

_OUTPUT_DEFAULTS = {"tol": 1e-7, "out": None}
_SWEEP_DEFAULTS = {**_OUTPUT_DEFAULTS, "format": "csv", "parallel": None}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["diamond", "A", "B"], {"a": "A", "b": "B", **_OUTPUT_DEFAULTS, "format": "text"}),
        (
            ["approx", "T", "M"],
            {"target": "T", "members": ["M"], **_OUTPUT_DEFAULTS, "format": "text"},
        ),
        (["twocopy"], {**_OUTPUT_DEFAULTS, "format": "text"}),
        (["fig1"], {**_SWEEP_DEFAULTS, "grid": "201"}),
        (["fig2"], {**_SWEEP_DEFAULTS, "delta": np.pi / 8.0, "grid": "41x41"}),
        (["fig3"], {**_SWEEP_DEFAULTS, "grid": "33x33"}),
        (["fig4"], {**_SWEEP_DEFAULTS, "q": 0.7, "grid": "101"}),
    ],
)
def test_bare_subcommand_parses_to_its_defaults(argv, expected) -> None:
    args = vars(cli.build_parser().parse_args(argv))
    assert callable(args.pop("func"))
    assert args == {"command": argv[0], **expected}


@pytest.mark.parametrize(
    "argv, count",
    [
        (["fig1", "--grid", "3"], 3),
        (["fig2", "--grid", "2x3"], 6),
        (["fig3", "--grid", "3x2"], 6),
        (["fig4", "--grid", "4"], 4),
    ],
)
def test_sweep_runs_the_row_worker_bound_when_it_runs(tmp_path, monkeypatch, argv, count) -> None:
    # a worker bound to its module name when the sweep runs, as the
    # benchmark tracer binds its wrappers, computes every row
    name = f"_{argv[0]}_row"
    worker, items = getattr(cli, name), []

    def counting(item):
        items.append(item)
        return (yield from worker(item))

    monkeypatch.setattr(cli, name, counting)
    out = tmp_path / "rows.csv"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    assert len(items) == len(set(items)) == count
    assert len(out.read_text().splitlines()) == 1 + count


# --- benchmark tracer --------------------------------------------------------


def _load_tracing():
    """``perfbench/tracing.py``, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_every_name_it_lists(capsys) -> None:
    tracing = _load_tracing()
    originals = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    with tracing.Tracer() as tracer:
        assert cli.main(["fig1", "--grid", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    for (module, attr, _), original in zip(tracing.WRAPPED, originals):
        assert getattr(module, attr) is original, attr
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names[0] == "main"
    # the sweep looks its row worker up when it runs, so the wrapper sees every row
    assert names.count("_fig1_row") == 2
