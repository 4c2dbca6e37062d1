"""Self-test of the benchmark's checker: perturbed results must be counted
as failed results, and correct ones must not.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run as bench
import workloads  # first: it puts the checkout's src on sys.path
import tracing
from chanapprox import cli, diamond
from chanapprox.errors import NoConvergenceError

TOL = workloads.TOL


@pytest.fixture(scope="module")
def qubit_round():
    wl = workloads.QubitDiamond(0)
    rnd = next(wl.rounds())
    return wl, [(req, wl.call(req)) for req in rnd]


def _tally(wl, done) -> bench.Tally:
    tally = bench.Tally()
    bench.check_all(wl, done, tally)
    return tally


def test_correct_results_pass(qubit_round) -> None:
    wl, done = qubit_round
    tally = _tally(wl, done)
    assert (tally.attempted, tally.failed) == (3, 0), tally.messages


def test_distance_shifted_by_ten_tol_fails(qubit_round) -> None:
    wl, done = qubit_round
    for req, res in done:
        moved = dataclasses.replace(res, value=res.value + 10 * TOL)
        assert _tally(wl, [(req, moved)]).failed == 1, req.kind
    # Shifting the whole bracket keeps the certificate consistent; the
    # closed-form reference still catches it.
    for req, res in done:
        if req.kind in ("unitary", "covariant"):
            moved = dataclasses.replace(
                res,
                value=res.value - 10 * TOL,
                primal=res.primal - 10 * TOL,
                dual=res.dual - 10 * TOL,
            )
            assert _tally(wl, [(req, moved)]).failed == 1, req.kind


def test_gap_above_tol_fails(qubit_round) -> None:
    wl, done = qubit_round
    for req, res in done:
        wide = dataclasses.replace(
            res, primal=res.value - TOL, dual=res.value + TOL
        )
        assert _tally(wl, [(req, wide)]).failed == 1, req.kind


def test_no_convergence_counts_as_failure(monkeypatch) -> None:
    def refuse(a, b, tol):
        raise NoConvergenceError("gap stalled")

    monkeypatch.setattr(diamond, "diamond_sdp", refuse)
    wl = workloads.QubitDiamond(1)
    done = bench.closed_loop(wl, 0.0)
    tally = _tally(wl, done)
    assert tally.attempted == len(done) == 3
    assert tally.failed == 3


def test_nonzero_cli_exit_fails_every_row(monkeypatch, tmp_path) -> None:
    def refuse(q, gamma, tol):
        raise NoConvergenceError("gap stalled")

    monkeypatch.setattr(cli, "pauli_distance_damping", refuse)
    wl = workloads.QubitSweeps(0, tmp_path)
    req = workloads.Request("fig3", wl._draw("fig3"))
    outcome = wl.call(req)
    assert outcome[0] == cli.EXIT_NOCONVERGENCE
    tally = bench.Tally()
    bench.check_all(wl, [(req, outcome)], tally)
    assert tally.attempted == tally.failed == wl.results_in(req) == 9


def test_sweep_row_perturbations_fail(monkeypatch, tmp_path) -> None:
    monkeypatch.setitem(workloads.SWEEP_GRID, "fig1", "3")
    wl = workloads.QubitSweeps(0, tmp_path)
    req = workloads.Request("fig1", wl._draw("fig1"))
    rc, text = wl.call(req)
    assert rc == 0
    assert wl.check(req, (rc, text)) == []
    header, *rows = text.decode("ascii").splitlines()

    def with_row(i, column, value):
        cells = rows[i].split(",")
        cells[column] = repr(value)
        lines = [header, *rows[:i], ",".join(cells), *rows[i + 1 :]]
        return (0, ("\n".join(lines) + "\n").encode("ascii"))

    mid = [float(c) for c in rows[1].split(",")]
    tol = workloads.SWEEP_TOL["fig1"]
    assert len(wl.check(req, with_row(1, 3, mid[3] + 10 * tol))) == 1
    assert len(wl.check(req, with_row(1, 4, 2 * tol))) == 1
    assert len(wl.check(req, (0, text.rsplit(b"\n", 2)[0] + b"\n"))) == 3


def test_determinism_mismatch_counts(qubit_round, monkeypatch) -> None:
    wl, done = qubit_round
    original = diamond.diamond_sdp

    def nudged(a, b, tol):
        res = original(a, b, tol)
        return dataclasses.replace(res, value=res.value + 1e-15)

    monkeypatch.setattr(diamond, "diamond_sdp", nudged)
    tally = bench.Tally()
    bench.check_determinism(wl, done, tally)
    assert (tally.attempted, tally.failed) == (3, 3)


def _twocopy_text(**changes) -> str:
    records = []
    for label, value, weights in (
        ("twocopy-correlated", 1.28104740316, [0.6, 0.2, 0.2, 0.0]),
        ("twocopy-product", 1.31185769835, [0.77, 0.23, 0.77, 0.23]),
        ("twocopy-tensored", 1.31396432333, [0.75, 0.25]),
    ):
        rec = {
            "label": label,
            "inputs": {"copies": 2, "tol": 1e-6},
            "distance": value,
            "weights": weights,
            "gap": 1e-8,
        }
        rec.update(changes.get(label, {}))
        records.append(rec)
    return json.dumps(records)


def test_twocopy_checks() -> None:
    assert workloads.twocopy_failures(0, _twocopy_text()) == []
    assert workloads.twocopy_failures(cli.EXIT_NOCONVERGENCE, "") != []
    for label, change in (
        ("twocopy-correlated", {"distance": 1.2840}),
        ("twocopy-product", {"gap": 2e-6}),
        ("twocopy-tensored", {"weights": [0.8, 0.25]}),
        ("twocopy-product", {"distance": 1.3155}),
    ):
        text = _twocopy_text(**{label: change})
        assert len(workloads.twocopy_failures(0, text)) == 1, (label, change)


def test_per_layer_metrics_match_benchmark_spec() -> None:
    names = list(tracing.layer_metrics([], 0.0, [])[0]) + ["trace.overhead_frac"]
    assert names == list(bench.per_layer_units())
