"""Tests for simplex-restricted channel approximation and its closed forms."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from chanapprox import (
    approx_bounds,
    channels_close,
    compose,
    covariance_distance,
    covariance_distance_x,
    covariant_objective,
    damping,
    damping_bounds,
    diamond_sdp,
    identity,
    mix,
    multi_copy_approx,
    optimal_convex_approx,
    pauli_channel,
    pauli_distance_damping,
    pauli_distance_special,
    pauli_unitaries,
    tensor,
    unitary_channel,
    unitary_qubit,
)
from chanapprox import approx, choi, cli, diamond_unitary, sdp
from chanapprox.approx import two_copy_problem
from chanapprox.channels import PAULI, Channel
from chanapprox.errors import DimMismatchError, NoConvergenceError, NotUnitaryError, RangeError

import helpers
import properties

_COVARIANT_BREAK = float(np.sqrt((15.0 + np.sqrt(33.0)) / 6.0))


# --- optimal_convex_approx ----------------------------------------------


def test_member_target_gets_weight_one() -> None:
    members = [identity(2), unitary_channel(PAULI[1])]
    res = optimal_convex_approx(identity(2), members, tol=1e-6)
    assert res.distance == 0.0
    npt.assert_allclose(res.weights, [1.0, 0.0], atol=1e-9)


def test_near_member_distance_is_its_witness_value() -> None:
    # Choi trace norm 1.2e-12: above the 1e-12 exact-zero threshold but below
    # 1e-12 * d, so a d-scaled member test would report 0 against a 2e-8 witness
    target = unitary_qubit(3e-13, 0.0, 0.0)
    res = optimal_convex_approx(target, [identity(2), unitary_channel(PAULI[1])], tol=1e-6)
    assert res.distance == res.witness.value
    assert 0.0 <= res.witness.primal <= res.distance <= res.witness.dual <= 1e-6
    assert res.weights[0] >= 1.0 - 1e-6


def test_hull_interior_target_has_near_zero_distance() -> None:
    target = pauli_channel([0.3, 0.3, 0.2, 0.2])
    res = optimal_convex_approx(target, pauli_unitaries(), tol=1e-6)
    assert res.distance <= 1e-6
    npt.assert_allclose(res.weights, [0.3, 0.3, 0.2, 0.2], atol=1e-4)


def test_worst_unitary_over_paulis() -> None:
    target = unitary_qubit(np.pi / 4, np.pi / 4, np.pi / 4)
    res = optimal_convex_approx(target, pauli_unitaries(), tol=1e-6)
    npt.assert_allclose(res.distance, 1.5, atol=1e-5)
    npt.assert_allclose(res.weights, np.full(4, 0.25), atol=1e-4)


def test_phase_unitary_over_identity_and_z() -> None:
    target = unitary_qubit(0.0, np.pi / 6, 0.0)
    members = [identity(2), unitary_channel(PAULI[3])]
    res = optimal_convex_approx(target, members, tol=1e-6)
    npt.assert_allclose(res.distance, np.sqrt(3.0) / 2, atol=1e-5)
    npt.assert_allclose(res.weights[0], 0.75, atol=1e-4)


def test_distance_matches_mixture_diamond_distance() -> None:
    gen = helpers.rng(60)
    tol = 1e-6
    target = helpers.random_channel(2, 2, gen)
    members = [helpers.random_channel(2, 2, gen) for _ in range(3)]
    res = optimal_convex_approx(target, members, tol=tol)
    direct = diamond_sdp(target, mix(members, res.weights), tol=tol).value
    assert abs(res.distance - direct) <= 2 * tol


def test_two_member_adaptive_grid_oracle() -> None:
    gen = helpers.rng(61)
    tol = 1e-6
    target = helpers.random_channel(2, 2, gen)
    members = [helpers.random_channel(2, 2, gen) for _ in range(2)]
    res = optimal_convex_approx(target, members, tol=tol)

    def dist(w: float) -> float:
        return diamond_sdp(target, mix(members, [w, 1 - w]), tol=tol).value

    coarse = np.linspace(0.0, 1.0, 101)
    w0 = min(coarse, key=dist)
    fine = np.linspace(max(0.0, w0 - 0.01), min(1.0, w0 + 0.01), 21)
    oracle = min(dist(w) for w in fine)
    # no grid point beats the certified optimum, and the optimizer is
    # within its declared 1e-4 optimality slack of the best grid value
    assert oracle >= res.distance - 2 * tol
    assert res.distance <= oracle + 1e-4


def test_three_member_adaptive_grid_oracle() -> None:
    gen = helpers.rng(62)
    tol = 1e-6
    target = helpers.random_channel(2, 2, gen)
    members = [helpers.random_channel(2, 2, gen) for _ in range(3)]
    res = optimal_convex_approx(target, members, tol=tol)

    def dist(w: np.ndarray) -> float:
        return diamond_sdp(target, mix(members, w), tol=tol).value

    best = None
    best_w = None
    for i in np.linspace(0.0, 1.0, 21):
        for j in np.linspace(0.0, 1.0 - i, max(2, int(round((1 - i) / 0.05)) + 1)):
            val = dist(np.array([i, j, 1.0 - i - j]))
            if best is None or val < best:
                best, best_w = val, np.array([i, j, 1.0 - i - j])
    lo = np.clip(best_w - 0.05, 0.0, 1.0)
    for i in np.linspace(lo[0], min(1.0, best_w[0] + 0.05), 11):
        for j in np.linspace(lo[1], min(1.0 - i, best_w[1] + 0.05), 11):
            if i + j <= 1.0 + 1e-12:
                best = min(best, dist(np.array([i, j, max(0.0, 1.0 - i - j)])))
    assert best >= res.distance - 2 * tol
    assert res.distance <= best + 1e-4


def test_approx_input_validation() -> None:
    with pytest.raises(RangeError):
        optimal_convex_approx(identity(2), [], tol=1e-6)
    with pytest.raises(RangeError):
        optimal_convex_approx(identity(2), [identity(2)] * 9, tol=1e-6)
    for bad_tol in (1e-7, float("nan"), float("inf")):
        with pytest.raises(RangeError):
            optimal_convex_approx(identity(2), [identity(2)], tol=bad_tol)
        with pytest.raises(RangeError):
            pauli_distance_damping(0.5, 0.5, tol=bad_tol)
        with pytest.raises(RangeError):
            multi_copy_approx(identity(2), [identity(2)], copies=2, tol=bad_tol)
    with pytest.raises(DimMismatchError):
        optimal_convex_approx(identity(2), [identity(3)], tol=1e-6)


def test_missing_joint_weights_raise_instead_of_returning_a_vertex(monkeypatch) -> None:
    # Without joint weights there is no certified mixture, and no vertex is
    # close to a target inside the members' hull: the solve must fail.
    solve = sdp._solve_ipm

    def without_weights(prog, *args, **kwargs):
        sol = solve(prog, *args, **kwargs)
        if isinstance(prog, sdp._Program) and prog.minimax:
            sol = dataclasses.replace(sol, weights=None)
        return sol

    monkeypatch.setattr(sdp, "_solve_ipm", without_weights)
    target = pauli_channel([0.3, 0.3, 0.2, 0.2])
    with pytest.raises(NoConvergenceError):
        optimal_convex_approx(target, pauli_unitaries(), tol=1e-6)


def _kind(prog) -> str:
    if isinstance(prog, sdp._DualProgram):
        return "dual"
    kind = "minimax" if prog.minimax else "fixed"
    return f"sector-{kind}" if isinstance(prog, sdp._SectorProgram) else kind


def _log_kinds(monkeypatch) -> list:
    """Log the kind of every program that reaches the interior-point engine."""
    solve = sdp._solve_ipm
    kinds = []

    def counting(prog, *args, **kwargs):
        kinds.append(_kind(prog))
        return solve(prog, *args, **kwargs)

    monkeypatch.setattr(sdp, "_solve_ipm", counting)
    return kinds


def test_non_member_target_costs_one_minimax_solve(monkeypatch) -> None:
    kinds = _log_kinds(monkeypatch)
    res = optimal_convex_approx(unitary_qubit(0.43, 0.91, 0.27), pauli_unitaries(), tol=1e-6)
    assert res.iterations > 0
    assert kinds == ["minimax"]
    kinds.clear()
    pauli_distance_damping(0.7, 0.5)
    assert kinds == ["sector-minimax"]


def test_only_exactly_covariant_families_take_the_sector_program(monkeypatch) -> None:
    # damping against the identity is diagonal-unitary covariant; one
    # off-sector entry of 1e-300 (at |01><10|) makes it a full program
    delta = choi(damping(0.7, 0.5)) - choi(identity(2))
    assert isinstance(sdp._program([delta], 2, minimax=False), sdp._SectorProgram)
    nudged = delta.copy()
    nudged[1, 2] = nudged[2, 1] = 1e-300
    assert type(sdp._program([nudged], 2, minimax=False)) is sdp._Program
    # fig1 and fig2 rows are not covariant
    kinds = _log_kinds(monkeypatch)
    sdp._run(cli._fig1_row((1.2, 1e-7)))
    sdp._run(cli._fig2_row((0.43, 0.91, np.pi / 8, 1e-6)))
    assert kinds == ["fixed", "minimax"]


def test_two_copy_member_bounds_certify_without_the_dual_program(monkeypatch) -> None:
    # Every member of the two-copy set is a unitary pair with the target, so
    # diamond_unitary gives its distance and only the Choi bound reaches the
    # engine, on the invariant sectors at reference dimension 1.
    solve = sdp._solve_ipm
    census = []

    def counting(prog, *args, **kwargs):
        census.append((_kind(prog), prog.ref))
        return solve(prog, *args, **kwargs)

    monkeypatch.setattr(sdp, "_solve_ipm", counting)
    members = [identity(2), unitary_channel(PAULI[3])]
    target, pair_set = two_copy_problem(unitary_qubit(0.0, np.pi / 6, 0.0), members)
    upper, lower = approx_bounds(target, pair_set, 1.2810473988)
    assert census == [("sector-minimax", 1)]
    # the II member: diamond_unitary gives sqrt(3)
    assert abs(upper - np.sqrt(3.0)) <= 1e-12
    assert 0.0 < lower <= 1.2810473988
    # a member with two Kraus operators still takes its fixed solve
    census.clear()
    dephased = tensor(identity(2), mix(members, [0.5, 0.5]))
    approx_bounds(target, pair_set + [dephased], 1.2810473988)
    assert census == [("sector-fixed", 4), ("sector-minimax", 1)]


def test_unitary_member_outside_diamond_unitarys_check_takes_its_fixed_solve(monkeypatch) -> None:
    # K^dag K - I = diag(1.5e-9, 0): within Channel's Frobenius bound of
    # 1e-9 d, but above diamond_unitary's 1e-9 per entry
    near = Channel((np.diag([np.sqrt(1.0 + 1.5e-9), 1.0]).astype(complex),))
    target = unitary_qubit(0.0, np.pi / 6, 0.0)
    with pytest.raises(NotUnitaryError):
        diamond_unitary(target.kraus[0], near.kraus[0])
    kinds = _log_kinds(monkeypatch)
    upper, _ = approx_bounds(target, [near], 1.0)
    assert kinds == ["sector-fixed", "sector-minimax"]
    assert abs(upper - diamond_unitary(target.kraus[0], np.eye(2))) <= 1e-7


def _widen_joint(monkeypatch, **bounds) -> list:
    """Reset the joint minimax solve's bounds; log every program kind."""
    solve = sdp._solve_ipm
    kinds = []

    def widened(prog, *args, **kwargs):
        sol = solve(prog, *args, **kwargs)
        kinds.append(_kind(prog))
        if kinds[-1].endswith("minimax"):
            sol = dataclasses.replace(sol, **{k: f(sol) for k, f in bounds.items()})
        return sol

    monkeypatch.setattr(sdp, "_solve_ipm", widened)
    return kinds


def test_stalled_joint_bracket_falls_back_to_a_fixed_solve(monkeypatch) -> None:
    # Rare rows stall the joint bracket above 1e-7 (the upper side, or both
    # sides by a few 1e-7); a fixed solve at the weights is then the witness.
    target = unitary_qubit(0.43, 0.91, 0.27)
    plain = optimal_convex_approx(target, pauli_unitaries(), tol=1e-6)
    for stall in (
        {"dual": lambda sol: sol.primal + 2e-7},
        {"primal": lambda sol: sol.primal - 5e-7, "dual": lambda sol: sol.dual + 5e-7},
    ):
        kinds = _widen_joint(monkeypatch, **stall)
        res = optimal_convex_approx(target, pauli_unitaries(), tol=1e-6)
        assert kinds[:2] == ["minimax", "fixed"]
        assert res.weights.tobytes() == plain.weights.tobytes()
        assert res.witness.gap <= 1e-7
        assert abs(res.distance - plain.distance) <= 1e-7
        monkeypatch.undo()


def test_joint_bound_far_below_the_distance_raises_and_approx_exits_3(monkeypatch, capsys) -> None:
    # weights whose distance is more than tol above the joint lower bound
    # are not certified near-optimal
    _widen_joint(monkeypatch, primal=lambda sol: sol.dual - 2e-6)
    with pytest.raises(NoConvergenceError, match="above the certified optimum"):
        optimal_convex_approx(unitary_qubit(0.43, 0.91, 0.27), pauli_unitaries(), tol=1e-6)
    # a looser tol accepts the same weights
    loose = optimal_convex_approx(unitary_qubit(0.43, 0.91, 0.27), pauli_unitaries(), tol=1e-5)
    assert loose.witness.gap <= 1e-7
    phase = '{"kind": "unitary", "alpha": 0, "beta": 0.5, "delta": 0}'
    members = ['{"kind": "pauli", "p": [1, 0, 0, 0]}', '{"kind": "pauli", "p": [0, 0, 0, 1]}']
    assert cli.main(["approx", phase, *members]) == cli.EXIT_NOCONVERGENCE
    assert "above the certified optimum" in capsys.readouterr().err


def _recheck_witness(target, members, res) -> None:
    """Re-check a mixture's lower-bound certificate from its matrices alone."""
    cert = res.witness
    rho, w = cert.witness_state, cert.witness_operator
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    lift = np.kron(np.eye(target.dim), rho)
    assert np.linalg.eigvalsh(lift - w)[0] >= -1e-12
    assert np.linalg.eigvalsh(lift + w)[0] >= -1e-12
    delta = choi(target) - sum(p * choi(ch) for p, ch in zip(res.weights, members))
    assert np.einsum("ab,ba->", delta, w).real >= cert.primal - 1e-12
    assert 0.0 <= cert.primal <= res.distance <= cert.dual <= cert.primal + 1e-7


def test_mixture_witness_rechecks_from_its_matrices() -> None:
    paulis = pauli_unitaries()
    # a fig2 row and a fig3 row: the damping weights (1-2p, p, p, 0) mix
    # the four Paulis into the same channel as the two-endpoint mixture
    for fig2_target in (
        unitary_qubit(0.43, 0.91, np.pi / 8),
        # rows whose joint bracket stalls: its upper side, then both sides
        unitary_qubit(np.pi / 6, np.pi / 3, 1.5 * np.pi + 0.0023),
        unitary_qubit(np.pi / 6, 0.0, 5.79819173389371),
    ):
        _recheck_witness(fig2_target, paulis, optimal_convex_approx(fig2_target, paulis, 1e-6))
    _recheck_witness(damping(0.7, 0.5), paulis, pauli_distance_damping(0.7, 0.5))
    # near a member the joint lower bound dips below 0; W = 0 attains the 0
    near = unitary_qubit(3e-13, 0.0, 0.0)
    members = [identity(2), unitary_channel(PAULI[1])]
    res = optimal_convex_approx(near, members, 1e-6)
    assert res.witness.primal == 0.0 and not res.witness.witness_operator.any()
    _recheck_witness(near, members, res)


def test_vertex_optimal_target_matches_the_vertex_distance() -> None:
    # A fig2 grid point (delta = pi/8) whose optimal mixture is the identity
    # vertex: the joint weights land within a few 1e-9 of it, and their
    # certified distance matches the vertex's own certificate.
    target = unitary_qubit(np.pi / 16, np.pi / 16, np.pi / 8)
    res = optimal_convex_approx(target, pauli_unitaries(), tol=1e-6)
    vertex = diamond_sdp(target, identity(2), tol=1e-7).value
    assert abs(res.distance - vertex) <= 1e-8
    assert res.weights[0] >= 1.0 - 1e-6


def test_bound_ordering_properties() -> None:
    properties.check_bound_ordering(instances=10)


def test_simplex_convexity_property() -> None:
    properties.check_simplex_convexity(instances=1)


def test_angle_symmetry_property() -> None:
    properties.check_angle_symmetries(points=3)


def test_pauli_conjugation_permutes_weights() -> None:
    # composing with Pauli unitaries before and after maps the optimal
    # weight of member i to member j XOR i XOR l (bitwise on the
    # (bit-flip, phase-flip) labels of the four Paulis)
    bits = [(0, 0), (1, 0), (1, 1), (0, 1)]
    index = {b: k for k, b in enumerate(bits)}
    members = pauli_unitaries()
    target = unitary_qubit(0.43, 0.91, 0.27)
    base = optimal_convex_approx(target, members, tol=1e-6)
    for j, l in itertools.product(range(4), repeat=2):
        conj = compose(
            unitary_channel(PAULI[j]), compose(target, unitary_channel(PAULI[l]))
        )
        res = optimal_convex_approx(conj, members, tol=1e-6)
        assert abs(res.distance - base.distance) <= 2e-6
        perm = np.empty(4)
        for i in range(4):
            m = index[
                (
                    bits[j][0] ^ bits[i][0] ^ bits[l][0],
                    bits[j][1] ^ bits[i][1] ^ bits[l][1],
                )
            ]
            perm[m] = base.weights[i]
        npt.assert_allclose(res.weights, perm, atol=1e-3)


# --- covariant-family closed forms ---------------------------------------


def test_covariant_objective_examples() -> None:
    gen = helpers.rng(63)
    for x in gen.uniform(0, 2, size=5):
        npt.assert_allclose(covariant_objective(x, 0.0), x, atol=1e-12)
        npt.assert_allclose(
            covariant_objective(x, 1.0),
            2.0 / 3.0 + np.sqrt(16.0 - 3.0 * x * x) / 3.0,
            atol=1e-12,
        )
    with pytest.raises(RangeError):
        covariant_objective(2.1, 0.5)
    with pytest.raises(RangeError):
        covariant_objective(1.0, -0.1)


def test_covariance_distance_x_branch_values() -> None:
    value, p = covariance_distance_x(0.5)
    npt.assert_allclose((value, p), (0.5, 0.0))
    value, p = covariance_distance_x(1.0)
    npt.assert_allclose((value, p), (1.0, 0.0))
    # the second branch evaluates to the same value at the first breakpoint
    npt.assert_allclose(0.25 * (1.0 + np.sqrt(9.0)), 1.0)
    value, p = covariance_distance_x(2.0)
    npt.assert_allclose((value, p), (4.0 / 3.0, 1.0))
    assert covariance_distance_x(0.0)[0] == 0.0
    with pytest.raises(RangeError):
        covariance_distance_x(-0.1)


def test_covariance_distance_x_continuity() -> None:
    eps = 1e-10
    for brk in (1.0, _COVARIANT_BREAK):
        lo = covariance_distance_x(brk - eps)[0]
        hi = covariance_distance_x(brk + eps)[0]
        assert abs(hi - lo) <= 1e-9


def test_covariance_distance_x_grid_oracle() -> None:
    grid = np.linspace(0.0, 1.0, 10001)
    for x in (0.3, 1.2, 1.7, 1.95):
        value, p_opt = covariance_distance_x(x)
        oracle = min(covariant_objective(x, p) for p in grid)
        npt.assert_allclose(value, oracle, atol=1e-6)
        npt.assert_allclose(covariant_objective(x, p_opt), value, atol=1e-12)


def test_covariance_distance_uses_unitary_distance() -> None:
    from chanapprox import d_i_unitary

    alpha, beta = 0.7, 0.4
    npt.assert_allclose(
        covariance_distance(alpha, beta),
        covariance_distance_x(d_i_unitary(alpha, beta)),
    )


# --- single-angle Pauli closed forms --------------------------------------


def test_pauli_distance_special_examples() -> None:
    value, weights = pauli_distance_special("beta-delta-zero", np.pi / 4)
    npt.assert_allclose(value, 1.0)
    npt.assert_allclose(weights, [0.5, 0.0, 0.5, 0.0], atol=1e-12)
    value, weights = pauli_distance_special("alpha-zero", 0.0)
    npt.assert_allclose(value, 0.0)
    npt.assert_allclose(weights, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    value, weights = pauli_distance_special("alpha-half-pi", np.pi / 4)
    npt.assert_allclose(value, 1.0)
    npt.assert_allclose(weights, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_pauli_distance_special_matches_optimizer() -> None:
    members = pauli_unitaries()
    cases = {
        "beta-delta-zero": (0.35, lambda t: unitary_qubit(t, 0.0, 0.0)),
        "alpha-zero": (1.1, lambda t: unitary_qubit(0.0, t, 0.0)),
        "alpha-half-pi": (0.8, lambda t: unitary_qubit(np.pi / 2, 0.0, t)),
    }
    for kind, (angle, make) in cases.items():
        value, weights = pauli_distance_special(kind, angle)
        res = optimal_convex_approx(make(angle), members, tol=1e-6)
        npt.assert_allclose(res.distance, value, atol=1e-5)
        npt.assert_allclose(res.weights, weights, atol=1e-3)


def test_pauli_distance_special_range_checks() -> None:
    with pytest.raises(RangeError):
        pauli_distance_special("beta-delta-zero", 2.0)
    with pytest.raises(RangeError):
        pauli_distance_special("alpha-zero", -0.1)
    with pytest.raises(RangeError):
        pauli_distance_special("sideways", 0.1)


# --- damping channel approximation ----------------------------------------


def test_damping_bounds_examples() -> None:
    assert damping_bounds(0.5, 0.8)[0] == 0.0
    npt.assert_allclose(damping_bounds(0.3, 0.0), (0.0, 0.0), atol=1e-12)
    with pytest.raises(RangeError):
        damping_bounds(1.2, 0.5)
    with pytest.raises(RangeError):
        damping_bounds(0.5, -0.01)


def test_damping_upper_bound_is_distance_to_reference_pauli() -> None:
    for q, gamma in ((0.7, 0.5), (0.3, 0.8)):
        upper = damping_bounds(q, gamma)[1]
        ref = pauli_channel([1 - gamma / 2, gamma / 4, gamma / 4, 0.0])
        sdp_val = diamond_sdp(damping(q, gamma), ref, tol=1e-8).value
        npt.assert_allclose(upper, sdp_val, atol=1e-6)


def test_damping_approx_identity_limit() -> None:
    res = pauli_distance_damping(0.4, 0.0)
    assert res.distance == 0.0
    npt.assert_allclose(res.weights, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_damping_approx_symmetry_and_bracket() -> None:
    tol = 1e-6
    for q, gamma in ((0.7, 0.5), (0.2, 0.9)):
        res = pauli_distance_damping(q, gamma, tol=tol)
        mirror = pauli_distance_damping(1 - q, gamma, tol=tol)
        assert abs(res.distance - mirror.distance) <= 2e-4
        lower, upper = damping_bounds(q, gamma)
        assert lower - tol <= res.distance <= upper + tol
        # the single-member and Choi bounds refer to the two endpoints
        paulis = pauli_unitaries()
        endpoints = (paulis[0], mix(paulis[1:3], [0.5, 0.5]))
        single, choi_lower = approx_bounds(damping(q, gamma), endpoints, res.distance)
        assert choi_lower <= res.distance <= single + tol


def test_damping_approx_weight_structure() -> None:
    res = pauli_distance_damping(0.7, 0.5)
    w = res.weights
    assert abs(w[1] - w[2]) <= 1e-9
    assert w[3] <= 1e-9
    npt.assert_allclose(w[0], 1.0 - w[1] - w[2], atol=1e-9)


def test_damping_approx_weight_floor_on_grid() -> None:
    # reported regularity of the optimal weights: the bit-flip weight
    # stays above gamma / 4 across the parameter square
    for q in np.linspace(0.0, 1.0, 9):
        for gamma in np.linspace(0.0, 1.0, 9):
            res = pauli_distance_damping(float(q), float(gamma))
            assert res.weights[1] >= gamma / 4 - 1e-3, (
                f"weight floor broken at q={q}, gamma={gamma}: "
                f"{res.weights[1]} < {gamma / 4}"
            )


# --- two-copy approximation ------------------------------------------------


def test_multi_copy_rejects_bad_copy_count(monkeypatch) -> None:
    with pytest.raises(RangeError):
        multi_copy_approx(identity(2), [identity(2)], copies=3, tol=1e-6)

    def no_solve(*args, **kwargs):
        raise AssertionError("an oversized two-copy set reached the solver")

    # three members give nine tensor products, beyond the 8-member limit:
    # rejected before any solve
    monkeypatch.setattr(sdp, "_solve_ipm", no_solve)
    with pytest.raises(RangeError, match="1..2 members"):
        multi_copy_approx(identity(2), pauli_unitaries()[:3], copies=2, tol=1e-6)


def test_multi_copy_rejects_non_qubit() -> None:
    with pytest.raises(DimMismatchError):
        multi_copy_approx(identity(3), [identity(3)], copies=2, tol=1e-6)


def test_multi_copy_nan_product_distance_breaks_the_ordering(monkeypatch) -> None:
    certify = approx._diamond_of_delta
    certified = []

    def nan_product(delta, ref_dim, tol):
        res = certify(delta, ref_dim, tol)
        certified.append(res)
        # the tensored certificate comes first, the product certificate second
        if len(certified) == 2:
            res = dataclasses.replace(res, value=float("nan"))
        return res

    monkeypatch.setattr(approx, "_diamond_of_delta", nan_product)
    u = unitary_qubit(0.0, np.pi / 6, 0.0)
    with pytest.raises(NoConvergenceError, match="ordering"):
        multi_copy_approx(u, [identity(2)], copies=2, tol=1e-6)
    assert len(certified) == 2


def test_multi_copy_singleton_set_collapses() -> None:
    # with one available channel all three strategies coincide
    u = unitary_qubit(0.0, np.pi / 6, 0.0)
    res = multi_copy_approx(u, [identity(2)], copies=2, tol=1e-6)
    direct = diamond_sdp(tensor(u, u), identity(4), tol=1e-7).value
    npt.assert_allclose(res.correlated.distance, direct, atol=1e-4)
    npt.assert_allclose(res.product_value, direct, atol=1e-4)
    npt.assert_allclose(res.tensored_value, direct, atol=1e-4)
    assert res.correlated.distance <= res.product_value <= res.tensored_value + 1e-6


def _log_half_steps(monkeypatch, raise_call=None) -> list:
    """Log (set, result) of every ``optimal_convex_approx`` call of a two-copy
    study; the call numbered ``raise_call`` reports a dual bound 1e-3 higher."""
    solve = approx.optimal_convex_approx
    calls = []

    def logged(target, set, tol):
        res = solve(target, set, tol)
        if len(calls) == raise_call:
            res = dataclasses.replace(
                res, witness=dataclasses.replace(res.witness, dual=res.witness.dual + 1e-3)
            )
        calls.append((set, res))
        return res

    monkeypatch.setattr(approx, "optimal_convex_approx", logged)
    return calls


_PHASE_STUDY = (unitary_qubit(0.0, np.pi / 6, 0.0), [identity(2), unitary_channel(PAULI[3])])


def test_product_search_takes_at_most_twelve_half_steps(monkeypatch) -> None:
    calls = _log_half_steps(monkeypatch)
    res = multi_copy_approx(*_PHASE_STUDY, 2, 1e-6)
    # the single-copy and correlated solves come first
    assert len(calls) - 2 <= 12
    assert res.product_value <= 1.3118576984 + 1e-9
    assert res.product_witness.gap <= 1e-7


def test_rising_extrapolation_restarts_from_the_best_round(monkeypatch) -> None:
    # Calls 2-5 are the plain rounds 1 and 2; round 3 starts at the first
    # extrapolated point, and its second half-step (call 7) is made to rise.
    target, members = _PHASE_STUDY
    calls = _log_half_steps(monkeypatch, raise_call=7)
    res = multi_copy_approx(target, members, 2, 1e-6)
    # round 4 restarts plain alternation from round 2's right weights
    best_right = mix(members, calls[5][1].weights)
    npt.assert_array_equal(choi(calls[8][0][1]), choi(tensor(members[1], best_right)))
    # round 5 is plain again: the history was cleared
    right = mix(members, calls[9][1].weights)
    npt.assert_array_equal(choi(calls[10][0][1]), choi(tensor(members[1], right)))
    # the search still stops, certifies, and passes the ordering check
    assert res.product_witness.gap <= 1e-7
    assert res.correlated.distance <= res.product_value <= res.tensored_value + 1e-6
    assert res.product_value <= 1.3118576984 + 1e-9

