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
    covariant,
    covariant_objective,
    d_i_unitary,
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


def test_a_member_within_the_floor_gets_a_true_dual() -> None:
    """A target whose Choi difference from a member is not zero but within
    the exact-member floor gets all weight on that member, distance 0 and
    the lower bound 0 at W = 0, and as its dual the upper side of that
    member's bracket at I/d: a true bound, at least the certified lower side
    of the member's own distance. An exactly zero difference keeps value 0
    and gap 0."""
    target = unitary_qubit(1e-13, 0.0, 0.0)
    res = optimal_convex_approx(target, [identity(2), unitary_qubit(0.5, 0.0, 0.0)], 1e-6)
    assert res.weights.tolist() == [1.0, 0.0] and res.iterations == 0
    assert res.distance == res.witness.value == res.witness.primal == 0.0
    assert not res.witness.witness_operator.any()
    assert res.witness.dual >= diamond_sdp(target, identity(2)).primal > 0.0
    near = pauli_distance_damping(0.5, 0.0)
    assert near.distance == 0.0 and near.witness.dual > 0.0
    assert near.witness.dual >= diamond_sdp(damping(0.5, 0.0), identity(2)).primal
    exact = optimal_convex_approx(identity(2), [unitary_channel(PAULI[1]), identity(2)], 1e-6)
    assert (exact.distance, exact.witness.primal, exact.witness.dual) == (0.0, 0.0, 0.0)


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
    # the README's quick start, which the Pauli-set route closes
    target = unitary_qubit(np.pi / 4, np.pi / 4, np.pi / 4)
    res = optimal_convex_approx(target, pauli_unitaries(), tol=1e-6)
    assert res.iterations == 0
    npt.assert_allclose(res.distance, 1.5, atol=1e-12)
    npt.assert_allclose(res.weights, np.full(4, 0.25), atol=1e-12)


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


def test_approx_input_validation(monkeypatch) -> None:
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
    # a NaN, infinite or negative distance is rejected before any solve
    census = _log_census(monkeypatch)
    for bad_distance in (float("nan"), float("inf"), -1.0):
        with pytest.raises(RangeError):
            approx_bounds(unitary_qubit(0.3, 0.2, 0.1), pauli_unitaries(), bad_distance)
    assert census == []


def test_missing_joint_weights_raise_instead_of_returning_a_vertex(monkeypatch) -> None:
    # Without joint weights there is no certified mixture, and no vertex is
    # close to a target inside the members' hull: the solve must fail.
    solve = sdp._solve_ipm

    def without_weights(prog, *args, **kwargs):
        sol = solve(prog, *args, **kwargs)
        if isinstance(prog, sdp._Program) and prog.k > 1:
            sol = dataclasses.replace(sol, weights=None)
        return sol

    monkeypatch.setattr(sdp, "_solve_ipm", without_weights)
    target = pauli_channel([0.3, 0.3, 0.2, 0.2])
    with pytest.raises(NoConvergenceError):
        optimal_convex_approx(target, pauli_unitaries(), tol=1e-6)


def _kind(prog) -> str:
    if isinstance(prog, sdp._DualProgram):
        return "dual"
    kind = "minimax" if prog.k > 1 else "fixed"
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


def _non_pauli_set() -> list:
    """Three Pauli unitaries and a phase gate: no Pauli-set route, so a
    unitary target's mixture takes the joint minimax solve."""
    return [*pauli_unitaries()[:3], unitary_qubit(0.0, 1.3, 0.0)]


def test_non_member_target_costs_one_minimax_solve(monkeypatch) -> None:
    kinds = _log_kinds(monkeypatch)
    res = optimal_convex_approx(unitary_qubit(0.43, 0.91, 0.27), _non_pauli_set(), tol=1e-6)
    assert res.iterations > 0
    assert kinds == ["minimax"]
    kinds.clear()
    pauli_distance_damping(0.7, 0.5)
    assert kinds == ["sector-minimax"]


def test_only_exactly_covariant_families_take_the_sector_program(monkeypatch) -> None:
    # damping against the identity is diagonal-unitary covariant; one
    # off-sector entry of 1e-300 (at |01><10|) makes it a full program
    delta = choi(damping(0.7, 0.5)) - choi(identity(2))
    assert isinstance(sdp._program([delta], 2), sdp._SectorProgram)
    nudged = delta.copy()
    nudged[1, 2] = nudged[2, 1] = 1e-300
    assert type(sdp._program([nudged], 2)) is sdp._Program
    # damping against a Pauli channel with unequal X and Y weights (a
    # distance that the closed form at I/d and the reference iteration leave
    # open), fig2 rows and a unitary target against a non-Pauli set are not
    # covariant
    fig2 = choi(unitary_qubit(0.43, 0.91, np.pi / 8))
    assert type(sdp._program([fig2 - choi(ch) for ch in pauli_unitaries()], 2)) is sdp._Program
    kinds = _log_kinds(monkeypatch)
    diamond_sdp(damping(1.0, 0.9), pauli_channel([0.7, 0.2, 0.1, 0.0]), 1e-7)
    optimal_convex_approx(unitary_qubit(0.43, 0.91, np.pi / 8), _non_pauli_set(), 1e-6)
    assert kinds == ["fixed", "minimax"]


def _log_census(monkeypatch) -> list:
    """Log the kind and reference dimension of every program that reaches
    the interior-point engine."""
    solve = sdp._solve_ipm
    census = []

    def counting(prog, *args, **kwargs):
        census.append((_kind(prog), prog.ref))
        return solve(prog, *args, **kwargs)

    monkeypatch.setattr(sdp, "_solve_ipm", counting)
    return census


def test_two_copy_member_bounds_certify_without_the_dual_program(monkeypatch) -> None:
    # Every member of the two-copy set is a unitary pair with the target, so
    # diamond_sdp's closed-form pair bracket gives its distance and only the
    # Choi bound reaches the engine, on the invariant sectors at reference
    # dimension 1.
    census = _log_census(monkeypatch)
    members = [identity(2), unitary_channel(PAULI[3])]
    target, pair_set = two_copy_problem(unitary_qubit(0.0, np.pi / 6, 0.0), members)
    upper, lower = approx_bounds(target, pair_set, 1.2810473988)
    assert census == [("sector-minimax", 1)]
    # the II member: sqrt(3), within the bracket's gap of diamond_unitary's
    assert abs(upper - np.sqrt(3.0)) <= 1e-12
    assert 0.0 < lower <= 1.2810473988
    # a member with two Kraus operators still takes its fixed solve (the
    # closed form at I/d leaves this one open; it closes the equal mixture)
    census.clear()
    dephased = tensor(identity(2), mix(members, [0.75, 0.25]))
    approx_bounds(target, pair_set + [dephased], 1.2810473988)
    assert census == [("sector-fixed", 4), ("sector-minimax", 1)]


def _unitary_family(d: int, seed: int) -> list:
    """A random unitary channel U, then U e^{i s H} for random Hermitian H
    of unit norm at s = 0.3, 0.6 and 1.2: members at distances below 2."""
    gen = helpers.rng(seed)
    u = helpers.random_unitary(d, gen)
    family = [unitary_channel(u)]
    for s in (0.3, 0.6, 1.2):
        h = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        lam, v = np.linalg.eigh(h + h.conj().T)
        family.append(unitary_channel(u @ (v * np.exp(1j * s * lam / np.abs(lam).max())) @ v.conj().T))
    return family


@pytest.mark.parametrize("d", [2, 3, 4])
def test_single_kraus_member_bounds_take_no_member_solve(monkeypatch, d) -> None:
    # each member is a unitary pair with the target: the bracket at I/d
    # (every qubit pair) or the eigenvalue-hull bracket of the pair certifies
    # its diamond_sdp distance, within 1e-12 of diamond_unitary's; only the
    # Choi bound, at reference dimension 1, reaches the engine
    target, *members = _unitary_family(d, 300 + d)
    census = _log_census(monkeypatch)
    upper, _ = approx_bounds(target, members, 2.0)
    values = [diamond_sdp(target, ch, 1e-7).value for ch in members]
    assert [ref for _, ref in census] == [1]
    assert upper == min(values)
    for ch, value in zip(members, values):
        assert abs(value - diamond_unitary(target.kraus[0], ch.kraus[0])) <= 1e-12


def test_unitary_member_outside_diamond_unitarys_check_closes_in_the_pair_bracket(monkeypatch) -> None:
    # K^dag K - I = diag(1.5e-9, 0, 0, 0): within Channel's Frobenius bound
    # of 1e-9 d, but above diamond_unitary's 1e-9 per entry. At d = 4 the
    # closed form at I/d leaves this member open, and the bracket of the
    # single-Kraus pair, with its allowance for the Kraus operator's
    # distance from its polar factor, certifies it without a solve.
    near = Channel((np.diag([np.sqrt(1.0 + 1.5e-9), 1.0, 1.0, 1.0]).astype(complex),))
    phase = unitary_qubit(0.0, np.pi / 6, 0.0)
    target = tensor(phase, phase)
    with pytest.raises(NotUnitaryError):
        diamond_unitary(target.kraus[0], near.kraus[0])
    census = _log_census(monkeypatch)
    upper, _ = approx_bounds(target, [near], 1.0)
    # no member solve: only the one-member Choi bound at reference dimension 1
    assert census == [("sector-fixed", 1)]
    res = diamond_sdp(target, near, 1e-7)
    assert upper == res.value and 0.0 < res.gap <= 1e-9
    assert abs(upper - diamond_unitary(target.kraus[0], np.eye(4))) <= 1e-7


def test_member_with_zero_kraus_operators_takes_the_closed_form(monkeypatch) -> None:
    # damping(1, 0) is the identity channel with one Kraus operator, so its
    # distance closes in the bracket at I/d and only the Choi bound reaches
    # the engine (with a Pauli Z member instead of the phase gate, the Choi
    # bound would take the Pauli-set route and no solve at all)
    target = unitary_qubit(0.0, 0.5, 0.0)
    census = _log_census(monkeypatch)
    members = [damping(1.0, 0.0), unitary_qubit(0.0, 1.5, 0.0)]
    upper, _ = approx_bounds(target, members, 1.0)
    assert census == [("sector-minimax", 1)]
    res = diamond_sdp(target, members[0], 1e-7)
    assert upper == res.value and res.gap <= 1e-12
    assert abs(upper - diamond_unitary(target.kraus[0], np.eye(2))) <= res.gap
    assert diamond_unitary(target.kraus[0], np.eye(2)) == 0.9588510772084059


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


def test_stalled_joint_bracket_is_closed_by_the_dual_program(monkeypatch) -> None:
    # Rare rows stall the joint bracket above 1e-7 (the upper side, or both
    # sides by a few 1e-7); the dual program at the weights then closes it.
    target = unitary_qubit(0.43, 0.91, 0.27)
    plain = optimal_convex_approx(target, _non_pauli_set(), tol=1e-6)
    for stall in (
        {"dual": lambda sol: sol.primal + 2e-7},
        {"primal": lambda sol: sol.primal - 5e-7, "dual": lambda sol: sol.dual + 5e-7},
    ):
        kinds = _widen_joint(monkeypatch, **stall)
        res = optimal_convex_approx(target, _non_pauli_set(), tol=1e-6)
        assert kinds == ["minimax", "dual"]
        assert res.weights.tobytes() == plain.weights.tobytes()
        assert res.witness.gap <= 1e-7
        assert abs(res.distance - plain.distance) <= 1e-7
        monkeypatch.undo()


def test_joint_bound_far_below_the_distance_raises_and_approx_exits_3(monkeypatch, capsys) -> None:
    # weights whose distance is more than tol above the joint lower bound
    # are not certified near-optimal
    _widen_joint(monkeypatch, primal=lambda sol: sol.dual - 2e-6)
    with pytest.raises(NoConvergenceError, match="above the certified optimum"):
        optimal_convex_approx(unitary_qubit(0.43, 0.91, 0.27), _non_pauli_set(), tol=1e-6)
    # a looser tol accepts the same weights
    loose = optimal_convex_approx(unitary_qubit(0.43, 0.91, 0.27), _non_pauli_set(), tol=1e-5)
    assert loose.witness.gap <= 1e-7
    # the identity and a phase gate: no Pauli-set route
    phase = '{"kind": "unitary", "alpha": 0, "beta": 0.5, "delta": 0}'
    members = [
        '{"kind": "pauli", "p": [1, 0, 0, 0]}',
        '{"kind": "unitary", "alpha": 0, "beta": 1.3, "delta": 0}',
    ]
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
    # a unitary target against a non-Pauli set and a fig3 row: the damping
    # weights (1-2p, p, p, 0) mix the four Paulis into the same channel as
    # the two-endpoint mixture (the stalled fig2 rows are rechecked below)
    target = unitary_qubit(0.43, 0.91, np.pi / 8)
    members = _non_pauli_set()
    _recheck_witness(target, members, optimal_convex_approx(target, members, 1e-6))
    _recheck_witness(damping(0.7, 0.5), paulis, pauli_distance_damping(0.7, 0.5))
    # near a member the joint lower bound dips below 0; W = 0 attains the 0
    near = unitary_qubit(3e-13, 0.0, 0.0)
    members = [identity(2), unitary_qubit(0.3, 0.2, 0.1)]
    res = optimal_convex_approx(near, members, 1e-6)
    assert res.iterations > 0
    assert res.witness.primal == 0.0 and not res.witness.witness_operator.any()
    _recheck_witness(near, members, res)


# fig2 rows whose joint bracket stalls above 1e-7 on its own: the upper
# side, then both sides; the Pauli-set route closes both
_STALLED_FIG2_ROWS = (
    (np.pi / 6, np.pi / 3, 4.714680286095766),
    (np.pi / 6, 0.0, 5.79819173389371),
)


def _without_pauli_route(monkeypatch) -> None:
    """Send Pauli-set problems to the joint minimax solve, as any other set."""
    monkeypatch.setattr(approx, "_pauli_bracket", lambda *args: None)


def test_stalled_rows_close_with_one_dual_solve(monkeypatch) -> None:
    # Through the engine, each stalled row takes the joint solve and one
    # dual solve, and nothing else.
    paulis = pauli_unitaries()
    _without_pauli_route(monkeypatch)
    kinds = _log_kinds(monkeypatch)
    for row in _STALLED_FIG2_ROWS:
        kinds.clear()
        target = unitary_qubit(*row)
        res = optimal_convex_approx(target, paulis, 1e-6)
        assert kinds == ["minimax", "dual"], row
        assert res.witness.gap <= 1e-7
        _recheck_witness(target, paulis, res)


def test_stalled_rows_close_in_closed_form(monkeypatch) -> None:
    paulis = pauli_unitaries()
    kinds = _log_kinds(monkeypatch)
    # a row next to the first, whose joint bracket closes on its own
    for row in _STALLED_FIG2_ROWS + ((np.pi / 6, np.pi / 3, 1.5 * np.pi + 0.0023),):
        target = unitary_qubit(*row)
        res = optimal_convex_approx(target, paulis, 1e-6)
        assert res.iterations == 0 and res.witness.gap <= 1e-12
        _recheck_witness(target, paulis, res)
    assert kinds == []


# --- the Pauli-set route ----------------------------------------------------


def _recheck_pauli_route(target, members, res) -> None:
    """Re-check a closed Pauli-set certificate from its matrices alone: W is
    strictly feasible at rho = I/2, every member's Tr[Delta_i W] reaches the
    lower side, and the upper side is lambda_max(Tr_out|Delta(p)|) of the
    mixture at the weights."""
    cert = res.witness
    assert res.iterations == 0 and cert.gap <= 1e-12
    assert np.all(res.weights >= 0.0) and abs(res.weights.sum() - 1.0) <= 1e-12
    _recheck_witness(target, members, res)
    rho, w = cert.witness_state, cert.witness_operator
    npt.assert_array_equal(rho, np.eye(2) / 2)
    # the margin 1e-14 / 2 stands above the eigensolver's roundoff
    lift = np.kron(np.eye(2), rho)
    assert min(np.linalg.eigvalsh(lift - w)[0], np.linalg.eigvalsh(lift + w)[0]) >= 1e-15
    for ch in members:
        assert np.einsum("ab,ba->", choi(target) - choi(ch), w).real >= cert.primal - 1e-12
    delta = choi(target) - sum(p * choi(ch) for p, ch in zip(res.weights, members))
    lam, u = np.linalg.eigh(delta)
    magnitude = (u * np.abs(lam)) @ u.conj().T
    reduced = np.trace(magnitude.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    assert abs(np.linalg.eigvalsh(reduced)[-1] - cert.dual) <= 1e-12


def test_pauli_route_closes_inside_the_engine_bracket_on_every_subset(monkeypatch) -> None:
    # random targets, and a phase rotation whose overlaps with X and Y are
    # zero, so that Delta(p) has a kernel that the lower side must send to -1
    gen = helpers.rng(70)
    targets = [unitary_channel(helpers.random_unitary(2, gen)) for _ in range(3)]
    targets.append(unitary_qubit(0.0, 0.3, 0.0))
    paulis = pauli_unitaries()
    subsets = [c for k in range(1, 5) for c in itertools.combinations(range(4), k)]
    for target in targets:
        for subset in subsets:
            members = [paulis[i] for i in subset]
            kinds = _log_kinds(monkeypatch)
            res = optimal_convex_approx(target, members, 1e-6)
            assert kinds == [], subset
            monkeypatch.undo()
            _recheck_pauli_route(target, members, res)
            deltas = approx._simplex_deltas(target, members)
            engine = sdp._solve_ipm(sdp._program(deltas, 2), 1e-8)
            assert engine.primal - 1e-12 <= res.witness.primal, subset
            assert res.witness.dual <= engine.dual + 1e-12, subset


def test_pauli_route_needs_a_unitary_target_and_distinct_pauli_members() -> None:
    paulis = pauli_unitaries()
    target = unitary_qubit(0.43, 0.91, 0.27)
    deltas = approx._simplex_deltas(target, paulis)
    assert approx._pauli_mixture(target, paulis, deltas) is not None
    # a vertex Pauli spec is the Pauli unitary, bit for bit
    vertices = [pauli_channel(np.eye(4)[i]) for i in range(4)]
    assert approx._pauli_mixture(target, vertices, deltas) is not None
    for other_target, members in (
        (damping(0.7, 0.5), paulis),  # not unitary
        (tensor(target, target), [tensor(p, p) for p in paulis]),  # not a qubit
        (target, [paulis[0], paulis[0]]),  # a repeated member
        (target, _non_pauli_set()),
    ):
        deltas = approx._simplex_deltas(other_target, members)
        assert approx._pauli_mixture(other_target, members, deltas) is None
    # the Pauli Choi matrices the members are matched against: built once,
    # read-only
    chois = approx._pauli_chois()
    assert chois is approx._pauli_chois() and not chois.flags.writeable
    npt.assert_array_equal(chois, np.stack([ch.choi for ch in paulis]))


def test_pauli_set_bounds_take_no_solve(monkeypatch) -> None:
    # Every member distance is a unitary pair's closed form, and the Choi
    # bound reads the route's lower side: 2 W is feasible at reference
    # dimension 1, where the trace program has the same optimum.
    target = unitary_qubit(0.43, 0.91, 0.27)
    paulis = pauli_unitaries()
    engine = sdp._solve_ipm(sdp._program(approx._simplex_deltas(target, paulis), 1), 1e-8)
    census = _log_census(monkeypatch)
    res = optimal_convex_approx(target, paulis, 1e-6)
    upper, lower = approx_bounds(target, paulis, res.distance)
    assert census == []
    assert lower == min(res.witness.primal, res.distance)
    assert abs(lower - engine.primal / 2) <= 1e-7
    assert lower <= res.distance <= upper


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


def test_closed_forms_reject_a_parameter_with_its_family_constructors_message() -> None:
    """Each closed form checks a family parameter by that family's own
    range (``channels._FAMILIES``), so it raises the constructor's
    RangeError message for the same bad value."""
    cases = [
        (lambda v: d_i_unitary(v, 0.0), lambda v: unitary_qubit(v, 0.0, 0.0)),
        (lambda v: d_i_unitary(0.0, v), lambda v: unitary_qubit(0.0, v, 0.0)),
        (lambda v: damping_bounds(v, 0.5), lambda v: damping(v, 0.5)),
        (lambda v: damping_bounds(0.5, v), lambda v: damping(0.5, v)),
        (lambda v: covariant_objective(1.0, v), covariant),
        (lambda v: pauli_distance_special("beta-delta-zero", v), lambda v: unitary_qubit(v, 0, 0)),
        (lambda v: pauli_distance_special("alpha-zero", v), lambda v: unitary_qubit(0, v, 0)),
        (lambda v: pauli_distance_special("alpha-half-pi", v), lambda v: unitary_qubit(0, 0, v)),
    ]
    for closed, family in cases:
        for bad in (-0.5, 7.0, float("nan"), float("inf")):
            with pytest.raises(RangeError) as expected:
                family(bad)
            with pytest.raises(RangeError) as raised:
                closed(bad)
            assert str(raised.value) == str(expected.value)


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
    # The midpoints of three brackets around the same value need not be
    # ordered; every bracket holds the closed form, and the certified sides are.
    exact = diamond_unitary(np.kron(u.kraus[0], u.kraus[0]), np.eye(4))
    witnesses = (res.correlated.witness, res.product_witness, res.tensored_witness)
    for witness in witnesses:
        assert witness.primal - 1e-12 <= exact <= witness.dual + 1e-12, (witness, exact)
    assert res.correlated.witness.primal <= res.product_witness.dual
    assert res.product_witness.primal <= res.tensored_witness.dual


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


def test_rising_plain_round_stops_the_search_at_the_best_round(monkeypatch) -> None:
    # Calls 2-3 are round 1 and calls 4-5 the plain round 2, whose second
    # half-step (call 5) is made to rise: the search stops there.
    target, members = _PHASE_STUDY
    calls = _log_half_steps(monkeypatch, raise_call=5)
    res = multi_copy_approx(target, members, 2, 1e-6)
    assert len(calls) == 6
    # the product weights are round 1's, and they still certify
    assert res.product_weights[0].tobytes() == calls[2][1].weights.tobytes()
    assert res.product_weights[1].tobytes() == calls[3][1].weights.tobytes()
    assert res.product_witness.gap <= 1e-7
    assert res.correlated.distance <= res.product_value <= res.tensored_value + 1e-6


def test_secant_without_a_change_in_the_residual_is_the_plain_map() -> None:
    # equal residuals G(q) - q in both rounds, or NaN ones: no secant step
    q1, g1 = np.array([0.4, 0.6]), np.array([0.5, 0.5])
    assert approx._secant((np.array([0.5, 0.5]), np.array([0.6, 0.4])), (q1, g1)) is g1
    nan = np.array([np.nan, np.nan])
    assert approx._secant((nan, nan), (q1, g1)) is g1
