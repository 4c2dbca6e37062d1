"""Acceptance gate: one pass/fail line per criterion, at stated tolerances.

Run this module alone with ``pytest tests/test_acceptance.py -rP`` to see
the per-criterion report lines.
"""

from __future__ import annotations

import csv
import time
from typing import Callable

import numpy as np

from chanapprox import (
    cli,
    covariance_distance_x,
    covariant,
    covariant_objective,
    d_i_unitary,
    damping_bounds,
    diamond_sdp,
    identity,
    multi_copy_approx,
    optimal_convex_approx,
    pauli_distance_damping,
    pauli_distance_special,
    pauli_unitaries,
    unitary_qubit,
)

import helpers
import properties

_COVARIANT_BREAK = float(np.sqrt((15.0 + np.sqrt(33.0)) / 6.0))


def _report(number: int, label: str, cap_seconds: float, body: Callable[[], str]) -> None:
    start = time.perf_counter()
    try:
        detail = body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > cap_seconds:
        print(f"ACCEPTANCE {number} ({label}): FAIL (runtime {elapsed:.1f}s over cap)")
        raise AssertionError(
            f"criterion {number} exceeded its {cap_seconds:.0f}s runtime cap: "
            f"{elapsed:.1f}s"
        )
    print(f"ACCEPTANCE {number} ({label}): PASS ({detail}; {elapsed:.1f}s)")


def test_acceptance_1_covariant_closed_form_cross_validation() -> None:
    def body() -> str:
        gen = helpers.rng(101)
        worst = 0.0
        for _ in range(50):
            alpha = gen.uniform(0.0, np.pi / 2)
            beta, delta = gen.uniform(0.0, 2 * np.pi, size=2)
            p = gen.uniform(0.0, 1.0)
            value = diamond_sdp(
                unitary_qubit(alpha, beta, delta), covariant(p), tol=1e-8
            ).value
            expected = covariant_objective(d_i_unitary(alpha, beta), p)
            worst = max(worst, abs(value - expected))
            assert abs(value - expected) <= 1e-6, (
                f"SDP {value} vs closed form {expected} at "
                f"({alpha}, {beta}, {delta}, p={p})"
            )
        return f"50 instances, max deviation {worst:.2e}"

    _report(1, "covariant closed-form cross-validation", 30.0, body)


def test_acceptance_2_covariance_distance_sweep(tmp_path) -> None:
    def body() -> str:
        out = tmp_path / "fig1.csv"
        assert cli.main(["fig1", "--out", str(out)]) == cli.EXIT_OK
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(c) for c in row] for row in reader]
        assert header == ["x", "distance_analytic", "p_opt", "distance_sdp", "gap"]
        assert len(rows) == 201
        worst = max(abs(r[1] - r[3]) for r in rows)
        assert worst <= 1e-5, f"analytic vs SDP columns deviate by {worst}"
        first, last = rows[0], rows[-1]
        assert first[0] == 0.0 and abs(first[1]) <= 1e-9 and abs(first[3]) <= 1e-9
        assert last[0] == 2.0
        assert abs(last[1] - 4.0 / 3.0) <= 1e-9
        assert abs(last[3] - 4.0 / 3.0) <= 1e-9
        eps = 1e-10
        for brk in (1.0, _COVARIANT_BREAK):
            lo = covariance_distance_x(brk - eps)[0]
            hi = covariance_distance_x(brk + eps)[0]
            assert abs(hi - lo) <= 1e-9, f"branch jump {abs(hi - lo)} at x={brk}"
        return f"201 points, max analytic-vs-SDP deviation {worst:.2e}"

    _report(2, "covariance distance sweep", 120.0, body)


def test_acceptance_3_pauli_distance_exact_cases() -> None:
    def body() -> str:
        members = pauli_unitaries()
        cases = {
            "beta-delta-zero": (
                np.linspace(0.0, np.pi / 2, 10),
                lambda t: unitary_qubit(t, 0.0, 0.0),
            ),
            "alpha-zero": (
                np.linspace(0.0, 2 * np.pi, 10),
                lambda t: unitary_qubit(0.0, t, 0.0),
            ),
            "alpha-half-pi": (
                np.linspace(0.0, 2 * np.pi, 10),
                lambda t: unitary_qubit(np.pi / 2, 0.0, t),
            ),
        }
        worst_value = worst_weight = 0.0
        for kind, (angles, make) in cases.items():
            for angle in angles:
                value, weights = pauli_distance_special(kind, float(angle))
                res = optimal_convex_approx(make(float(angle)), members, tol=1e-6)
                worst_value = max(worst_value, abs(res.distance - value))
                worst_weight = max(worst_weight, float(np.max(np.abs(res.weights - weights))))
                assert abs(res.distance - value) <= 1e-4, (
                    f"{kind} at angle {angle}: {res.distance} vs {value}"
                )
                assert np.max(np.abs(res.weights - weights)) <= 1e-3, (
                    f"{kind} at angle {angle}: weights {res.weights} vs {weights}"
                )
        res = optimal_convex_approx(
            unitary_qubit(np.pi / 4, np.pi / 4, np.pi / 4), members, tol=1e-6
        )
        assert abs(res.distance - 1.5) <= 1e-3
        assert np.max(np.abs(res.weights - 0.25)) <= 1e-3
        return (
            f"30 single-angle cases + worst case, max deviations "
            f"{worst_value:.2e} (distance) / {worst_weight:.2e} (weights)"
        )

    _report(3, "Pauli-distance exact cases", 300.0, body)


def test_acceptance_4_damping_grid() -> None:
    def body() -> str:
        grid = np.linspace(0.0, 1.0, 5)
        results = {
            (q, g): pauli_distance_damping(float(q), float(g))
            for q in grid
            for g in grid
        }
        worst_sym = 0.0
        for q in grid:
            for g in grid:
                res = results[(q, g)]
                mirror = results[(round(1.0 - q, 12), g)]
                dev = abs(res.distance - mirror.distance)
                worst_sym = max(worst_sym, dev)
                assert dev <= 2e-4, f"symmetry broken at (q={q}, gamma={g}): {dev}"
                lower, upper = damping_bounds(float(q), float(g))
                assert lower - 1e-6 <= res.distance <= upper + 1e-6, (
                    f"bracket broken at (q={q}, gamma={g}): "
                    f"{res.distance} not in [{lower}, {upper}]"
                )
                w = res.weights
                p = 0.5 * (w[1] + w[2])
                assert abs(w[1] - w[2]) <= 1e-3, f"weights not paired at ({q}, {g})"
                assert abs(w[3]) <= 1e-3, f"fourth weight nonzero at ({q}, {g})"
                assert abs(w[0] - (1.0 - 2.0 * p)) <= 1e-3
                assert w[1] >= g / 4 - 1e-3, (
                    f"weight floor broken at (q={q}, gamma={g}): {w[1]} < {g / 4}"
                )
        return f"5x5 grid, max symmetry deviation {worst_sym:.2e}"

    _report(4, "damping-channel grid", 900.0, body)


def test_acceptance_5_two_copy_reference_numbers() -> None:
    def body() -> str:
        target = unitary_qubit(0.0, np.pi / 6, 0.0)
        members = [identity(2), pauli_unitaries()[3]]
        res = multi_copy_approx(target, members, 2, 1e-6)
        a = res.correlated.distance
        b = res.product_value
        c = res.tensored_value
        assert abs(c - 1.314) <= 2e-3, f"tensored value {c}"
        assert abs(b - 1.312) <= 2e-3, f"product value {b}"
        assert abs(a - 1.281) <= 2e-3, f"correlated value {a}"
        q1 = res.product_weights[0][0]
        q2 = res.product_weights[1][0]
        assert abs(q1 - 0.77) <= 0.01 and abs(q2 - 0.77) <= 0.01
        assert abs(q1 - q2) <= 0.01
        w = res.correlated.weights
        for got, want in zip(w, (0.60, 0.20, 0.20, 0.00)):
            assert abs(got - want) <= 0.01, f"correlated weights {w}"
        assert a <= b + 1e-9 and b <= c + 1e-9
        return (
            f"distances {a:.4f} <= {b:.4f} <= {c:.4f}, "
            f"q1={q1:.3f}, q2={q2:.3f}"
        )

    _report(5, "two-copy reference numbers", 600.0, body)


def test_acceptance_6_property_suites() -> None:
    def body() -> str:
        deviations = {check.__name__: check() for check in properties.ALL_CHECKS}
        worst = max(deviations.values())
        return f"{len(deviations)} suites, max deviation {worst:.2e}"

    _report(6, "property suites", 600.0, body)


def test_acceptance_7_surface_coverage(tmp_path) -> None:
    # the two swept surfaces have no tabulated ground truth; they are
    # covered by the property suites plus symmetry/anchor samples here
    def body() -> str:
        assert len(properties.ALL_CHECKS) == 8
        out2 = tmp_path / "fig2.csv"
        assert cli.main(["fig2", "--grid", "3x3", "--out", str(out2)]) == cli.EXIT_OK
        with open(out2, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [[float(c) for c in row] for row in reader]
        table = {(round(r[0], 9), round(r[1], 9)): r[2] for r in rows}
        hi = round(np.pi / 2, 9)
        mid = round(np.pi / 4, 9)
        for alpha in (0.0, mid, hi):
            assert abs(table[(alpha, 0.0)] - table[(alpha, hi)]) <= 2e-6
        out3 = tmp_path / "fig3.csv"
        assert cli.main(["fig3", "--grid", "3x3", "--out", str(out3)]) == cli.EXIT_OK
        with open(out3, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = [[float(c) for c in row] for row in reader]
        table = {(round(r[0], 9), round(r[1], 9)): r[2] for r in rows}
        for q in (0.0, 0.5, 1.0):
            assert table[(q, 0.0)] == 0.0
        for g in (0.0, 0.5, 1.0):
            assert abs(table[(0.0, g)] - table[(1.0, g)]) <= 2e-4
        return "surface symmetries and anchors sampled via the CLI"

    _report(7, "swept-surface coverage", 600.0, body)
