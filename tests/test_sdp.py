"""Tests for the interior-point solver behind the distance computations."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt

from chanapprox import (
    choi,
    mix,
    pauli_channel,
    pauli_unitaries,
    trace_norm,
    unitary_channel,
    unitary_qubit,
)
from chanapprox.channels import PAULI
from chanapprox import sdp

import helpers

TOL = 1e-8


def _feasibility_margin(sol: sdp.SdpSolution, ref_dim: int) -> float:
    """Most negative eigenvalue across all witness feasibility constraints."""
    n = sol.witness_w.shape[0]
    out_dim = n // ref_dim
    big = np.kron(np.eye(out_dim), sol.witness_rho)
    margin = min(
        float(np.linalg.eigvalsh(big + sol.witness_w)[0]),
        float(np.linalg.eigvalsh(big - sol.witness_w)[0]),
        float(np.linalg.eigvalsh(sol.witness_rho)[0]),
    )
    return margin


def _check_certificate(sol: sdp.SdpSolution, delta: np.ndarray, ref_dim: int) -> None:
    assert sol.primal <= sol.dual + 1e-12
    assert sol.gap <= TOL
    assert _feasibility_margin(sol, ref_dim) >= -1e-9
    npt.assert_allclose(np.trace(sol.witness_rho).real, 1.0, atol=1e-9)
    objective = float(np.trace(delta @ sol.witness_w).real)
    npt.assert_allclose(objective, sol.primal, atol=1e-8)


def test_solve_fixed_orthogonal_unitaries() -> None:
    delta = choi(unitary_qubit(0.0, 0.0, 0.0)) - choi(unitary_channel(PAULI[1]))
    sol = sdp.solve_fixed(delta, 2, TOL)
    npt.assert_allclose(sol.value, 2.0, atol=1e-7)
    _check_certificate(sol, delta, 2)


def test_solve_fixed_pauli_pair_matches_weight_distance() -> None:
    gen = helpers.rng(30)
    for _ in range(5):
        p = helpers.random_simplex(4, gen)
        q = helpers.random_simplex(4, gen)
        delta = choi(pauli_channel(p)) - choi(pauli_channel(q))
        sol = sdp.solve_fixed(delta, 2, TOL)
        npt.assert_allclose(sol.value, np.sum(np.abs(p - q)), atol=1e-7)
        _check_certificate(sol, delta, 2)


def test_solve_fixed_random_channels_certified() -> None:
    gen = helpers.rng(31)
    for _ in range(5):
        a = helpers.random_channel(2, 2, gen)
        b = helpers.random_channel(2, 2, gen)
        delta = choi(a) - choi(b)
        sol = sdp.solve_fixed(delta, 2, TOL)
        _check_certificate(sol, delta, 2)
        # the diamond norm of a difference map never exceeds the Choi trace
        # norm times the reference dimension, and is at least the trace
        # norm over the maximally entangled input
        assert sol.dual <= trace_norm(delta) + 1e-7
        assert sol.primal >= trace_norm(delta) / 2 - 1e-7


def test_solve_fixed_is_deterministic() -> None:
    gen = helpers.rng(32)
    delta = choi(helpers.random_channel(2, 2, gen)) - choi(
        helpers.random_channel(2, 2, gen)
    )
    first = sdp.solve_fixed(delta, 2, TOL)
    second = sdp.solve_fixed(delta, 2, TOL)
    assert first.primal == second.primal
    assert first.dual == second.dual
    npt.assert_array_equal(first.witness_w, second.witness_w)
    npt.assert_array_equal(first.witness_rho, second.witness_rho)


def test_solve_minimax_finds_equal_weights_for_worst_unitary() -> None:
    target = choi(unitary_qubit(np.pi / 4, np.pi / 4, np.pi / 4))
    deltas = [target - choi(ch) for ch in pauli_unitaries()]
    sol = sdp.solve_minimax(deltas, 2, TOL)
    npt.assert_allclose(sol.value, 1.5, atol=1e-6)
    npt.assert_allclose(sol.weights, np.full(4, 0.25), atol=1e-4)
    assert sol.gap <= TOL


def test_solve_minimax_weights_reproduce_fixed_value() -> None:
    gen = helpers.rng(33)
    target = helpers.random_channel(2, 3, gen)
    members = [helpers.random_channel(2, 2, gen) for _ in range(3)]
    deltas = [choi(target) - choi(m) for m in members]
    sol = sdp.solve_minimax(deltas, 2, TOL)
    mixed_delta = choi(target) - choi(mix(members, sol.weights))
    fixed = sdp.solve_fixed(mixed_delta, 2, TOL)
    # the minimax optimum is attainable by its own weights, and no weight
    # vector can do better than the certified dual bound
    assert fixed.value <= sol.dual + 1e-6
    assert fixed.value >= sol.primal - 1e-6


def test_solve_minimax_trace_matches_grid_minimum() -> None:
    gen = helpers.rng(34)
    target = helpers.random_channel(2, 2, gen)
    members = [helpers.random_channel(2, 2, gen) for _ in range(2)]
    deltas = [choi(target) - choi(m) for m in members]
    sol = sdp.solve_minimax_trace(deltas, TOL)

    def norm_at(w: float) -> float:
        return trace_norm(w * deltas[0] + (1 - w) * deltas[1])

    coarse = min(norm_at(w) for w in np.linspace(0.0, 1.0, 401))
    assert sol.primal <= coarse + 1e-6
    best_w = min(np.linspace(0.0, 1.0, 401), key=norm_at)
    fine = min(
        norm_at(w)
        for w in np.linspace(max(0.0, best_w - 0.01), min(1.0, best_w + 0.01), 401)
    )
    npt.assert_allclose(sol.primal, fine, atol=1e-5)
    # returned weights achieve the reported value
    npt.assert_allclose(
        trace_norm(sum(w * d for w, d in zip(sol.weights, deltas))),
        sol.primal,
        atol=1e-6,
    )


def test_solution_value_and_gap_definitions() -> None:
    sol = sdp.SdpSolution(
        primal=1.0,
        dual=1.2,
        witness_w=np.eye(2),
        witness_rho=np.eye(2) / 2,
        weights=None,
        iterations=5,
    )
    npt.assert_allclose(sol.value, 1.1)
    npt.assert_allclose(sol.gap, 0.2)


# --- operator consistency of every program shape ----------------------------


def _program_shapes():
    gen = helpers.rng(35)

    def delta(d: int) -> np.ndarray:
        a = helpers.random_channel(d, 2, gen)
        b = helpers.random_channel(d, 3, gen)
        return choi(a) - choi(b)

    d2, d4 = delta(2), delta(4)
    family = [delta(2) for _ in range(3)]
    return {
        "fixed-ref2": sdp._Program([d2], 2, minimax=False),
        "fixed-ref4": sdp._Program([d4], 4, minimax=False),
        "minimax-ref2": sdp._Program(family, 2, minimax=True),
        "trace-minimax": sdp._Program(family, None, minimax=True),
        "dual-ref2": sdp._DualProgram(d2, 2),
        "dual-ref4": sdp._DualProgram(d4, 4),
    }


def _random_pd(size: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.normal(size=(size, size)) + 1j * gen.normal(size=(size, size))
    return g @ g.conj().T / size + 0.1 * np.eye(size)


def _assert_rel(actual, expected, scale: float) -> None:
    err = float(np.linalg.norm(np.asarray(actual) - np.asarray(expected)))
    assert err <= 1e-12 * scale, (err, scale)


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def test_program_operators_are_consistent_for_every_shape() -> None:
    """slack = C - A^T(y), <A^T(y), X> = y . A(X), and schur matches brute force."""
    gen = helpers.rng(36)
    for name, prog in _program_shapes().items():
        zero_mats, zero_scal = prog.slack_blocks(np.zeros(prog.m))
        sizes = [blk.shape[0] for blk in zero_mats]
        k = None if zero_scal is None else zero_scal.size
        y = gen.normal(size=prog.m)
        x_mats = [_random_pd(s, gen) for s in sizes]
        z_mats = [_random_pd(s, gen) for s in sizes]
        x_scal = None if k is None else gen.uniform(0.5, 2.0, size=k)
        z_scal = None if k is None else gen.uniform(0.5, 2.0, size=k)

        # S(y) = S(0) - A^T(y)
        s_mats, s_scal = prog.slack_blocks(y)
        a_mats, a_scal = prog.adjoint_blocks(y)
        for s, s0, a in zip(s_mats, zero_mats, a_mats):
            _assert_rel(s, s0 - a, _norm(s0) + _norm(a))
        if k is not None:
            _assert_rel(s_scal, zero_scal - a_scal, _norm(zero_scal) + _norm(a_scal))

        # apply is the adjoint of adjoint_blocks
        applied = prog.apply(x_mats, x_scal)
        assert applied.dtype == np.float64 and applied.shape == (prog.m,), name
        terms = [float(np.einsum("ab,ba->", a, x).real) for a, x in zip(a_mats, x_mats)]
        if k is not None:
            terms.extend(a_scal * x_scal)
        scale = sum(abs(t) for t in terms) + _norm(y) * _norm(applied)
        _assert_rel(sum(terms), float(y @ applied), scale)

        # schur against the dense brute force over unit vectors
        units = [prog.adjoint_blocks(e) for e in np.eye(prog.m)]
        brute = np.zeros((prog.m, prog.m))
        for b, (x, z) in enumerate(zip(x_mats, z_mats)):
            gens = np.stack([u[0][b] for u in units])
            t = np.matmul(np.matmul(x, gens), z)
            flat = gens.reshape(prog.m, -1)
            brute += (flat @ t.transpose(0, 2, 1).reshape(prog.m, -1).T).real
        if k is not None:
            rows = np.stack([u[1] for u in units])
            brute += rows @ ((x_scal * z_scal)[:, None] * rows.T)
        brute = 0.5 * (brute + brute.T)
        xz = None if k is None else x_scal * z_scal
        fast = prog.schur(x_mats, z_mats, xz)
        _assert_rel(fast, brute, _norm(brute))
