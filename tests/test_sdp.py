"""Tests for the interior-point solver behind the distance computations."""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from chanapprox import (
    choi,
    damping,
    diamond_sdp,
    identity,
    mix,
    pauli_channel,
    pauli_unitaries,
    tensor,
    trace_norm,
    unitary_channel,
    unitary_qubit,
)
from chanapprox.approx import two_copy_problem
from chanapprox.channels import PAULI
from chanapprox import cli, sdp
from chanapprox.errors import NoConvergenceError

import helpers
import properties

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
    npt.assert_allclose([sol.primal, sol.dual], 2.0, atol=1e-7)
    _check_certificate(sol, delta, 2)


def test_solve_fixed_pauli_pair_matches_weight_distance() -> None:
    gen = helpers.rng(30)
    for _ in range(5):
        p = helpers.random_simplex(4, gen)
        q = helpers.random_simplex(4, gen)
        delta = choi(pauli_channel(p)) - choi(pauli_channel(q))
        sol = sdp.solve_fixed(delta, 2, TOL)
        npt.assert_allclose([sol.primal, sol.dual], np.sum(np.abs(p - q)), atol=1e-7)
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
    npt.assert_allclose([sol.primal, sol.dual], 1.5, atol=1e-6)
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
    assert fixed.dual <= sol.dual + 1e-6
    assert fixed.primal >= sol.primal - 1e-6


def test_solve_minimax_trace_matches_grid_minimum() -> None:
    gen = helpers.rng(34)
    target = helpers.random_channel(2, 2, gen)
    members = [helpers.random_channel(2, 2, gen) for _ in range(2)]
    deltas = [choi(target) - choi(m) for m in members]
    # the trace-norm minimax is the minimax program at reference dimension 1
    sol = sdp.solve_minimax(deltas, 1, TOL)

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
    npt.assert_allclose(sol.gap, 0.2)


# --- operator consistency of every program shape ----------------------------


def _damping_deltas(q: float, gamma: float) -> list[np.ndarray]:
    """A fig3 row's family: damping against the identity and the equal X/Y mixture."""
    paulis = pauli_unitaries()
    target = choi(damping(q, gamma))
    return [target - choi(ch) for ch in (paulis[0], mix(paulis[1:3], [0.5, 0.5]))]


def _two_copy_pair():
    paulis = pauli_unitaries()
    return two_copy_problem(unitary_qubit(0.0, np.pi / 6, 0.0), [identity(2), paulis[3]])


def _two_copy_deltas() -> list[np.ndarray]:
    """The correlated two-copy family (II IZ ZI ZZ) of the phase-gate study."""
    target, members = _two_copy_pair()
    return [choi(target) - choi(ch) for ch in members]


def _program_shapes():
    gen = helpers.rng(35)

    def delta(d: int) -> np.ndarray:
        a = helpers.random_channel(d, 2, gen)
        b = helpers.random_channel(d, 3, gen)
        return choi(a) - choi(b)

    d2, d4 = delta(2), delta(4)
    family = [delta(2) for _ in range(3)]
    damping_family = _damping_deltas(0.7, 0.5) + [
        choi(damping(0.7, 0.5)) - choi(pauli_channel([0.9, 0.0, 0.0, 0.1]))
    ]
    two_copy = _two_copy_deltas()
    return {
        "fixed-ref2": sdp._Program([d2], 2, minimax=False),
        "fixed-ref4": sdp._Program([d4], 4, minimax=False),
        "minimax-ref2": sdp._Program(family, 2, minimax=True),
        "minimax-ref1": sdp._Program(family, 1, minimax=True),
        "dual-ref2": sdp._DualProgram(d2, 2),
        "dual-ref4": sdp._DualProgram(d4, 4),
        # damping against Pauli channels keeps both pairs |01>, |10>; the
        # two-copy phase-gate family keeps none
        "sector-fixed-ref2": sdp._SectorProgram(damping_family[:1], 2, minimax=False),
        "sector-minimax-ref2": sdp._SectorProgram(damping_family, 2, minimax=True),
        "sector-fixed-ref4": sdp._SectorProgram(two_copy[:1], 4, minimax=False),
        "sector-minimax-ref4": sdp._SectorProgram(two_copy, 4, minimax=True),
        # the Choi bounds of both families
        "sector-minimax-ref1-d2": sdp._SectorProgram(damping_family, 1, minimax=True),
        "sector-minimax-ref1-d4": sdp._SectorProgram(two_copy, 1, minimax=True),
    }


def _random_pd(size: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.normal(size=(size, size)) + 1j * gen.normal(size=(size, size))
    return g @ g.conj().T / size + 0.1 * np.eye(size)


def _assert_rel(actual, expected, scale: float) -> None:
    err = float(np.linalg.norm(np.asarray(actual) - np.asarray(expected)))
    assert err <= 1e-12 * scale, (err, scale)


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def _blocks(groups) -> list[np.ndarray]:
    """The block matrices of a program's grouped matrices, in order."""
    return [block for group in groups for block in group]


def _grouped(prog, blocks) -> list[np.ndarray]:
    """Block matrices, in order, stacked into the program's groups."""
    out, start = [], 0
    for c in prog.c:
        out.append(np.stack(blocks[start : start + len(c)]))
        start += len(c)
    return out


def _brute_schur(prog, x_mats, z_mats, xz_scal) -> np.ndarray:
    """The Schur matrix from A^T(e_i) of every unit vector, dense."""
    units = [prog.adjoint_blocks(e) for e in np.eye(prog.m)]
    brute = np.zeros((prog.m, prog.m))
    for b, (x, z) in enumerate(zip(x_mats, z_mats)):
        gens = np.stack([_blocks(u[0])[b] for u in units])
        t = np.matmul(np.matmul(x, gens), z)
        flat = gens.reshape(prog.m, -1)
        brute += (flat @ t.transpose(0, 2, 1).reshape(prog.m, -1).T).real
    rows = np.stack([u[1] for u in units])
    brute += rows @ (xz_scal[:, None] * rows.T)
    return 0.5 * (brute + brute.T)


def test_program_operators_are_consistent_for_every_shape() -> None:
    """slack = C - A^T(y), <A^T(y), X> = y . A(X), and schur matches brute force."""
    gen = helpers.rng(36)
    for name, prog in _program_shapes().items():
        zero_mats, zero_scal = prog.slack_blocks(np.zeros(prog.m))
        sizes = [blk.shape[0] for blk in _blocks(zero_mats)]
        k = zero_scal.size
        y = gen.normal(size=prog.m)
        x_mats = [_random_pd(s, gen) for s in sizes]
        z_mats = [_random_pd(s, gen) for s in sizes]
        x_scal = gen.uniform(0.5, 2.0, size=k)
        z_scal = gen.uniform(0.5, 2.0, size=k)

        # S(y) = S(0) - A^T(y)
        s_mats, s_scal = prog.slack_blocks(y)
        a_mats, a_scal = prog.adjoint_blocks(y)
        for s, s0, a in zip(s_mats, zero_mats, a_mats):
            _assert_rel(s, s0 - a, _norm(s0) + _norm(a))
        _assert_rel(s_scal, zero_scal - a_scal, _norm(zero_scal) + _norm(a_scal))

        # apply is the adjoint of adjoint_blocks
        applied = prog.apply(_grouped(prog, x_mats), x_scal)
        assert applied.dtype == np.float64 and applied.shape == (prog.m,), name
        terms = [
            float(np.einsum("ab,ba->", a, x).real) for a, x in zip(_blocks(a_mats), x_mats)
        ]
        terms.extend(a_scal * x_scal)
        scale = sum(abs(t) for t in terms) + _norm(y) * _norm(applied)
        _assert_rel(sum(terms), float(y @ applied), scale)

        # schur against the dense brute force over unit vectors
        brute = _brute_schur(prog, x_mats, z_mats, x_scal * z_scal)
        fast = prog.schur(_grouped(prog, x_mats), _grouped(prog, z_mats), x_scal * z_scal)
        _assert_rel(fast, brute, _norm(brute))

        # a second call on fresh iterates reuses the program's buffers but
        # leaves the first returned matrix as it was
        kept = fast.copy()
        x_mats = [_random_pd(s, gen) for s in sizes]
        z_mats = [_random_pd(s, gen) for s in sizes]
        xz_scal = gen.uniform(0.5, 2.0, size=k)
        second = prog.schur(_grouped(prog, x_mats), _grouped(prog, z_mats), xz_scal)
        _assert_rel(second, _brute_schur(prog, x_mats, z_mats, xz_scal), _norm(second))
        assert np.array_equal(fast, kept), name


def test_warm_schur_call_allocates_no_large_temporaries() -> None:
    """At n = 16 the per-iteration Schur work lives in program-owned buffers:
    a warm call allocates little beyond its 0.56 MiB result (271 x 271)."""
    gen = helpers.rng(42)
    a, b = helpers.random_channel(4, 2, gen), helpers.random_channel(4, 3, gen)
    delta = choi(a) - choi(b)
    prog = sdp._Program([delta], 4, minimax=False)
    assert (prog.n, prog.m) == (16, 271)
    sizes = [blk.shape[0] for blk in _blocks(prog.slack_blocks(np.zeros(prog.m))[0])]
    x_mats = _grouped(prog, [_random_pd(s, gen) for s in sizes])
    z_mats = _grouped(prog, [_random_pd(s, gen) for s in sizes])
    prog.schur(x_mats, z_mats, np.zeros(0))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        prog.schur(x_mats, z_mats, np.zeros(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 1.5 * 2**20, peak - start


def test_concurrent_solves_match_serial_bits() -> None:
    """Two threads solving different d = 4 pairs give the serial bits."""
    gen = helpers.rng(43)
    pairs = [
        (helpers.random_channel(4, 2, gen), helpers.random_channel(4, 3, gen))
        for _ in range(2)
    ]

    def bits(res):
        return (
            struct.pack("<3d", res.value, res.primal, res.dual),
            res.witness_operator.tobytes(),
            res.witness_state.tobytes(),
        )

    serial = [bits(diamond_sdp(a, b, TOL)) for a, b in pairs]
    threaded = [None, None]

    def run(i):
        threaded[i] = bits(diamond_sdp(*pairs[i], TOL))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two solves finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threaded == serial


# --- batches -------------------------------------------------------------------


def _row_requests(steps) -> list:
    """The (program, gap_tol) of every solve a sweep row's step generator
    needs, each answered by a solve of its own."""
    requests = []
    try:
        request = next(steps)
        while True:
            requests.append(request)
            request = steps.send(sdp._solve_ipm(*request))
    except StopIteration:
        return requests


def _solution_bits(sol: sdp.SdpSolution) -> tuple:
    arrays = (sol.weights, sol.witness_w, sol.witness_rho)
    return (
        struct.pack("<2d", sol.primal, sol.dual),
        sol.iterations,
        *(None if a is None else a.tobytes() for a in arrays),
    )


def test_batched_solves_match_solo_solves_bit_for_bit() -> None:
    """A problem gives the same bits alone, in a batch, in the reversed batch
    and beside members that stop at other iterations."""
    # The two (alpha, beta, delta) fig2 rows stall above 1e-7 and take the
    # fixed solve at their weights, and the second one's fixed solve also
    # takes the dual-program fallback: every follow-up solve of a row.
    stalled = [(np.pi / 6, np.pi / 3, 4.714680286095766), (np.pi / 6, 0.0, 5.79819173389371)]
    rows = [cli._fig1_row((x, 1e-9)) for x in (0.4, 1.2, 1.5, 1.95)]
    rows += [
        cli._fig2_row((alpha, beta, delta, 1e-6))
        for alpha, beta, delta in [(0.3, 0.9, np.pi / 8), (np.pi / 4, np.pi / 4, np.pi / 8)] + stalled
    ]
    rows += [cli._fig3_row((q, gamma, 1e-6)) for q, gamma in ((0.25, 0.5), (0.7, 0.3), (0.9, 0.9))]
    groups = {}
    for prog, tol in (request for row in rows for request in _row_requests(row)):
        groups.setdefault(prog.shape_key(), []).append((prog, tol))
    kinds = sorted(
        (type(group[0][0]).__name__, getattr(group[0][0], "minimax", False), len(group))
        for group in groups.values()
    )
    assert kinds == [
        ("_DualProgram", False, 1),
        ("_Program", False, 6),  # four fig1 rows and the stalled rows' fixed solves
        ("_Program", True, 4),
        ("_SectorProgram", True, 3),
    ]
    for group in groups.values():
        progs, tols = map(list, zip(*group))
        alone = [_solution_bits(sdp._solve_ipm(prog, tol)) for prog, tol in group]
        batch = sdp._solve_batch(progs, tols)
        assert [_solution_bits(sol) for sol in batch] == alone
        reverse = sdp._solve_batch(progs[::-1], tols[::-1])
        assert [_solution_bits(sol) for sol in reverse] == alone[::-1]
        for i, prog in enumerate(progs):
            # the others, and this problem again, at loose gap targets
            loose = progs + [prog, prog]
            loose_tols = [1e-2] * len(progs) + [1e-4, 1e-3]
            loose_tols[i] = tols[i]
            mixed = sdp._solve_batch(loose, loose_tols)
            assert len({sol.iterations for sol in mixed}) > 1
            assert _solution_bits(mixed[i]) == alone[i]


def _pauli_deltas(alpha: float, beta: float) -> np.ndarray:
    """A fig2 row's family at delta = pi/8."""
    target = choi(unitary_qubit(alpha, beta, np.pi / 8))
    return [target - choi(ch) for ch in pauli_unitaries()]


def test_a_failing_member_stops_alone_in_its_batch(monkeypatch) -> None:
    # A stacked Cholesky raises for the whole stack when one slice fails.
    # The failing problem must stop with its bracket at the iteration where
    # its own solve stops, and every other problem must go on as if alone.
    healthy = [sdp._program(_pauli_deltas(a, b), 2, True) for a, b in ((0.3, 0.9), (1.2, 0.4), (0.5, 0.5))]
    sick = sdp._program(_pauli_deltas(0.7, 0.4), 2, True)
    schur = sdp._BlockProgram.schur

    def poisoned(self, x_mats, z_mats, xz_scal):
        m = schur(self, x_mats, z_mats, xz_scal)
        # the sick problem's Schur matrix turns NaN once its scalar duals pass 1e3
        mine = (self.g_rows == sick.g_rows).all(axis=(-2, -1))
        m[mine & (xz_scal.max(axis=-1) > 1e3)] = np.nan
        return m

    monkeypatch.setattr(sdp._BlockProgram, "schur", poisoned)
    sick_alone = sdp._solve_ipm(sick, TOL)
    assert sick_alone.iterations == 5
    assert np.isfinite(sick_alone.primal) and np.isfinite(sick_alone.dual)
    assert sick_alone.gap > TOL
    alone = [_solution_bits(sdp._solve_ipm(prog, TOL)) for prog in healthy]
    assert all(bits[1] > 5 for bits in alone)
    for order in ([0, 1, "sick", 2], ["sick", 2, 1, 0]):
        progs = [sick if i == "sick" else healthy[i] for i in order]
        sols = sdp._solve_batch(progs, [TOL] * len(progs))
        for i, sol in zip(order, sols):
            expected = _solution_bits(sick_alone) if i == "sick" else alone[i]
            assert _solution_bits(sol) == expected, i


def test_programs_reject_malformed_shapes() -> None:
    delta = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="exactly one matrix"):
        sdp._Program([delta, delta], 2, minimax=False)
    with pytest.raises(ValueError, match="not divisible"):
        sdp._Program([delta], 3, minimax=True)
    with pytest.raises(ValueError, match="not divisible"):
        sdp._DualProgram(delta, 3)


# --- step length and forced exits -------------------------------------------


def _random_herm(size: int, gen: np.random.Generator) -> np.ndarray:
    g = gen.normal(size=(size, size)) + 1j * gen.normal(size=(size, size))
    return 0.5 * (g + g.conj().T)


def test_max_step_matches_brute_force_scaled_eigenvalue() -> None:
    gen = helpers.rng(37)
    for trial in range(6):
        mats = [_random_pd(s, gen) for s in (2, 4, 3)]
        d_mats = [_random_herm(s, gen) for s in (2, 4, 3)]
        scal = gen.uniform(0.5, 2.0, size=3)
        # even trials let the scalar part bind, odd ones leave it unbounded
        d_scal = gen.uniform(-50.0, -20.0, size=3) if trial % 2 == 0 else np.ones(3)
        steps = list(scal / -d_scal) if trial % 2 == 0 else []
        for p, dp in zip(mats, d_mats):
            # the generalized eigenvalues of (dP, P) are those of P^-1/2 dP P^-1/2
            lmin = float(np.linalg.eigvals(np.linalg.solve(p, dp)).real.min())
            if lmin < 0.0:
                steps.append(-1.0 / lmin)
        expected = min(steps)
        got = sdp._max_step(sdp._inv_sqrt_factors(mats), scal, d_mats, d_scal)
        assert abs(got - expected) <= 1e-12 * expected, (trial, got, expected)


def test_max_step_is_finite_on_singular_and_indefinite_blocks() -> None:
    no_scal = np.zeros(0)
    directions = (-np.eye(2), np.diag([0.5, -2.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    for diag in ([1.0, 0.0], [1.0, -1e-10]):
        block = np.diag(diag).astype(complex)
        for direction in directions:
            roots = sdp._inv_sqrt_factors([block])
            step = sdp._max_step(roots, no_scal, [direction], no_scal)
            assert np.isfinite(step) and step >= 0.0, (diag, step)


# --- Schur solve -------------------------------------------------------------


def test_tri_inv_matches_dense_inverse_and_stays_lower_triangular() -> None:
    gen = helpers.rng(40)
    # the base case, both sides of the base size, an odd split, the Schur sizes
    for size in (1, 19, 64, 65, 271, 273):
        g = gen.normal(size=(size, size))
        low = np.linalg.cholesky(g @ g.T / size + np.eye(size))
        got = sdp._tri_inv(low)
        expected = np.linalg.inv(low)
        assert _norm(got - expected) <= 1e-12 * _norm(expected), size
        assert not np.any(np.triu(got, 1)), size


def test_lin_solve_residual_matches_lu_with_refinement() -> None:
    gen = helpers.rng(41)
    size = 70
    total = lu_total = 0.0
    for _ in range(12):
        # condition number 1e10, as on a late Schur matrix
        q, _ = np.linalg.qr(gen.normal(size=(size, size)))
        m = (q * np.logspace(0.0, -10.0, size)) @ q.T
        m = 0.5 * (m + m.T)
        rhs = gen.normal(size=size)
        x = sdp._lin_solve(m, sdp._tri_inv(np.linalg.cholesky(m)), rhs)
        lu = np.linalg.solve(m, rhs)
        for _ in range(2):
            lu = lu + np.linalg.solve(m, rhs - m @ lu)
        total += _norm(rhs - m @ x)
        lu_total += _norm(rhs - m @ lu)
    # Both residuals end at roundoff, where their order on one system is a
    # coin flip, so the test sums twelve. Without refinement the sum is
    # 3.5x to 6x the LU one.
    assert total <= 1.25 * lu_total, (total, lu_total)


def _worst_unitary_deltas() -> list[np.ndarray]:
    target = choi(unitary_qubit(np.pi / 4, np.pi / 4, np.pi / 4))
    return [target - choi(ch) for ch in pauli_unitaries()]


def test_linalg_error_ends_the_solve_with_its_bracket(monkeypatch) -> None:
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    deltas = _worst_unitary_deltas()
    monkeypatch.setattr(sdp, "_lin_solve", singular)
    sol = sdp.solve_minimax(deltas, 2, TOL)
    assert sol.iterations == 1
    assert np.isfinite(sol.primal) and np.isfinite(sol.dual)
    assert sol.primal <= sol.dual
    with pytest.raises(NoConvergenceError, match="above tolerance"):
        sdp.solve_fixed(deltas[0], 2, TOL)


def test_one_cholesky_and_no_lu_solve_per_newton_system(monkeypatch) -> None:
    counts = {"cholesky": 0, "solve": 0, "schur": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sdp.np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(sdp.np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(
        sdp._BlockProgram, "schur", counted("schur", sdp._BlockProgram.schur)
    )
    delta = choi(unitary_qubit(0.3, 0.2, 0.1)) - choi(unitary_channel(PAULI[1]))
    for solve in (
        lambda: sdp.solve_minimax(_worst_unitary_deltas(), 2, TOL),
        lambda: sdp.solve_fixed(delta, 2, TOL),
    ):
        counts.update(cholesky=0, solve=0, schur=0)
        sol = solve()
        assert sol.gap <= TOL
        # the iteration that meets the gap target builds no Newton system
        built = sol.iterations - 1
        assert counts == {"cholesky": built, "solve": 0, "schur": built}


def test_failed_cholesky_ends_the_solve_with_its_bracket(monkeypatch) -> None:
    monkeypatch.setattr(sdp._BlockProgram, "schur", lambda self, *args: -np.eye(self.m))
    deltas = _worst_unitary_deltas()
    sol = sdp.solve_minimax(deltas, 2, TOL)
    assert sol.iterations == 1
    assert np.isfinite(sol.primal) and np.isfinite(sol.dual)
    assert sol.primal <= sol.dual
    with pytest.raises(NoConvergenceError, match="above tolerance"):
        sdp.solve_fixed(deltas[0], 2, TOL)


def test_diamond_sdp_imports_no_scipy() -> None:
    """The solver is NumPy-only: SciPy is neither declared nor imported."""
    src = str(Path(sdp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from chanapprox import diamond_sdp, identity, unitary_qubit\n"
        "diamond_sdp(unitary_qubit(0.3, 0.2, 0.1), identity(2), 1e-8)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mu_floor_stops_the_solve_without_dividing_by_zero(monkeypatch) -> None:
    monkeypatch.setattr(sdp, "_block_ip", lambda *args: 0.0)
    assert sdp.solve_minimax(_worst_unitary_deltas(), 2, TOL).iterations == 1


def test_mu_stall_ends_a_solve_that_cannot_move(monkeypatch) -> None:
    # A zero step freezes the iterates, and an infinite projected bound keeps
    # the gap stall from counting, so only the mu stall can stop the solve:
    # the first iteration sets the lower bound, the next six leave mu as it is.
    monkeypatch.setattr(sdp, "_max_step", lambda roots, scal, *args: np.zeros(scal.shape[:-1]))
    monkeypatch.setattr(sdp._Program, "project_dual", lambda self, *args: np.inf)
    sol = sdp.solve_minimax(_worst_unitary_deltas(), 2, TOL)
    assert sol.iterations == 7
    assert (sol.primal, sol.dual, sol.weights) == (-1.0, np.inf, None)


def test_iteration_cap_ends_the_solve(monkeypatch) -> None:
    monkeypatch.setattr(sdp, "_MAX_ITER", 2)
    sol = sdp.solve_minimax(_worst_unitary_deltas(), 2, TOL)
    assert sol.iterations == 2
    assert sol.gap > TOL


def test_dual_projection_rejects_a_zero_or_nan_reference_block() -> None:
    gen = helpers.rng(39)
    delta = choi(helpers.random_channel(2, 2, gen)) - choi(helpers.random_channel(2, 2, gen))
    prog = sdp._DualProgram(delta, 2)
    eye = np.eye(4, dtype=complex)
    for ref_block in (np.zeros((2, 2), dtype=complex), np.full((2, 2), np.nan, dtype=complex)):
        assert prog.project_dual(_grouped(prog, [eye, eye, ref_block]), np.zeros(0)) == np.inf


# --- sector program ------------------------------------------------------------


def test_sector_program_keeps_only_pairs_with_data() -> None:
    assert sdp._SectorProgram(_damping_deltas(0.7, 0.5), 2, True).pairs.tolist() == [1, 2]
    two_copy = sdp._SectorProgram(_two_copy_deltas(), 4, True)
    assert two_copy.pairs.size == 0
    assert (two_copy.n, two_copy.ref, two_copy.m) == (4, 4, 20)
    # at reference dimension 1 the program has no p coordinates
    choi_bound = sdp._SectorProgram(_two_copy_deltas(), 1, True)
    assert (choi_bound.n, choi_bound.ref, choi_bound.m) == (4, 1, 17)


def _recheck_on_full_space(sol: sdp.SdpSolution, deltas, ref_dim: int) -> None:
    """Re-check a sector result's primal side from its matrices on the full Delta."""
    w, rho = sol.witness_w, sol.witness_rho
    assert w.shape == deltas[0].shape
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
    lift = np.kron(np.eye(w.shape[0] // ref_dim), rho)
    assert np.linalg.eigvalsh(lift - w)[0] >= -1e-12
    assert np.linalg.eigvalsh(lift + w)[0] >= -1e-12
    for delta in deltas:
        assert np.einsum("ab,ba->", delta, w).real >= sol.primal - 1e-12


def test_sector_results_recheck_on_the_full_space() -> None:
    target, _ = _two_copy_pair()
    pair_choi = choi(target)
    single = [identity(2), pauli_unitaries()[3]]
    base = mix(single, [0.75, 0.25])
    # (deltas, ref_dim, minimax, tol) as the two-copy study and fig3 solve them
    cases = [
        (_two_copy_deltas(), 4, True, 1e-8),  # correlated
        ([pair_choi - choi(tensor(ch, base)) for ch in single], 4, True, 1e-8),  # half-step
        ([pair_choi - choi(tensor(base, base))], 4, False, 1e-7),  # tensored
        (_damping_deltas(0.25, 0.5), 2, True, 1e-8),  # fig3 row
        (_two_copy_deltas(), 1, True, 1e-8),  # the correlated Choi bound
        (_damping_deltas(0.25, 0.5), 1, True, 1e-8),  # a damping Choi bound
    ]
    for deltas, ref_dim, minimax, tol in cases:
        assert isinstance(sdp._program(deltas, ref_dim, minimax), sdp._SectorProgram)
        if minimax:
            sol = sdp.solve_minimax(deltas, ref_dim, tol)
        else:
            sol = sdp.solve_fixed(deltas[0], ref_dim, tol)
        assert sol.gap <= tol
        _recheck_on_full_space(sol, deltas, ref_dim)
        full = sdp._solve_ipm(sdp._Program(deltas, ref_dim, minimax), tol)
        assert max(sol.primal, full.primal) <= min(sol.dual, full.dual), (sol, full)


def test_duc_sector_bracket_overlap_property() -> None:
    properties.check_duc_sector_bracket_overlap(families=1)



def test_sector_dual_bound_is_the_full_bound_of_the_lifted_duals() -> None:
    # Sector blocks that already differ by Delta_0, and every pair dual at 0:
    # the projection must raise each pair to x-_ab - x+_ab = Delta_ab at
    # least cost, and its bound is then lambda_max(Tr_1[X1 + X2]) of the
    # lifted duals, which satisfy X1 - X2 = Delta on the full space.
    delta = _damping_deltas(0.25, 0.5)[0]
    prog = sdp._SectorProgram([delta], 2, minimax=False)
    sec, pairs = prog.sector, prog.pairs
    x2 = (1.0 + np.abs(delta).sum()) * np.eye(2, dtype=complex)
    x1 = x2 + delta[np.ix_(sec, sec)]
    pair_duals = np.diag(np.r_[np.zeros(2 * len(pairs)), 1.0, 1.0]).astype(complex)
    duals = _grouped(prog, [x1, x2, pair_duals])
    bound = prog.project_dual(duals, np.zeros(0))
    # a fixed program has no weights
    assert prog.certificate(np.zeros(prog.m), duals, np.zeros(0))[2] is None
    lift1 = np.zeros((4, 4), dtype=complex)
    lift2 = np.zeros((4, 4), dtype=complex)
    lift1[np.ix_(sec, sec)] = x1
    lift2[np.ix_(sec, sec)] = x2
    pair_delta = delta[pairs, pairs].real
    assert np.all(pair_delta > 0.0)
    lift1[pairs, pairs] = pair_delta
    assert np.abs(lift1 - lift2 - delta).max() <= 1e-15
    full = float(np.linalg.eigvalsh(sdp._trace_out(lift1 + lift2, 2))[-1])
    assert abs(bound - full) <= 1e-12, (bound, full)


def test_sector_choi_bound_is_the_full_trace_bound_of_the_lifted_duals() -> None:
    # At reference dimension 1 the full bound is Tr[X1 + X2] of the lifted
    # duals: the sum over b of the reference-d bound's terms, not their max.
    deltas = _damping_deltas(0.25, 0.5)
    prog = sdp._program(deltas, 1, minimax=True)
    assert isinstance(prog, sdp._SectorProgram) and prog.ref == 1
    sec, pairs = prog.sector, prog.pairs
    scal = np.array([3.0, 1.0])
    delta = (scal[0] * deltas[0] + scal[1] * deltas[1]) / scal.sum()
    x2 = (1.0 + np.abs(delta).sum()) * np.eye(2, dtype=complex)
    x1 = x2 + delta[np.ix_(sec, sec)]
    pair_duals = np.diag(np.r_[np.zeros(2 * len(pairs)), 1.0]).astype(complex)
    bound = prog.project_dual(_grouped(prog, [x1, x2, pair_duals]), scal)
    lift1 = np.zeros((4, 4), dtype=complex)
    lift2 = np.zeros((4, 4), dtype=complex)
    lift1[np.ix_(sec, sec)] = x1
    lift2[np.ix_(sec, sec)] = x2
    pair_delta = delta[pairs, pairs].real
    lift1[pairs, pairs] = np.maximum(pair_delta, 0.0) + 1e-15
    lift2[pairs, pairs] = np.maximum(-pair_delta, 0.0) + 1e-15
    assert np.abs(lift1 - lift2 - delta).max() <= 1e-15
    assert np.linalg.eigvalsh(lift1)[0] >= 0.0 and np.linalg.eigvalsh(lift2)[0] >= 0.0
    full = float(np.linalg.eigvalsh(sdp._trace_out(lift1 + lift2, 4))[-1])
    assert abs(bound - full) <= 1e-12, (bound, full)
    # the solved bound re-checks on the full Delta, and brackets the full program's
    sol = sdp.solve_minimax(deltas, 1, 1e-8)
    _recheck_on_full_space(sol, deltas, 1)
    full_sol = sdp._solve_ipm(sdp._Program(deltas, 1, True), 1e-8)
    assert max(sol.primal, full_sol.primal) <= min(sol.dual, full_sol.dual)
    assert abs(sol.primal - full_sol.primal) <= 4e-8

