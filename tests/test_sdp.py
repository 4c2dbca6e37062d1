"""Tests for the interior-point solver behind the distance computations."""

from __future__ import annotations

import dataclasses
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
    compose,
    covariant,
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
from chanapprox import approx, channels, cli, diamond, sdp
from chanapprox.errors import (
    DimMismatchError,
    NoConvergenceError,
    NonSquareError,
    RangeError,
)

import helpers
import properties

TOL = 1e-8
#: Pauli weights with X != Y: damping against this channel is not DUC, and
#: the closed form at the maximally mixed reference leaves the damping
#: pairs used here open (it closes some others, such as q = gamma = 0.5).
#: The reference iteration closes most of them; it gives up at gamma = 0.9.
_SKEW_PAULI = [0.7, 0.2, 0.1, 0.0]


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
    sol = sdp._solve_ipm(sdp._program(deltas, 2), TOL)
    npt.assert_allclose([sol.primal, sol.dual], 1.5, atol=1e-6)
    npt.assert_allclose(sol.weights, np.full(4, 0.25), atol=1e-4)
    assert sol.gap <= TOL


def test_solve_minimax_weights_reproduce_fixed_value() -> None:
    gen = helpers.rng(33)
    target = helpers.random_channel(2, 3, gen)
    members = [helpers.random_channel(2, 2, gen) for _ in range(3)]
    deltas = [choi(target) - choi(m) for m in members]
    sol = sdp._solve_ipm(sdp._program(deltas, 2), TOL)
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
    sol = sdp._solve_ipm(sdp._program(deltas, 1), TOL)

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


def _real_product_delta() -> np.ndarray:
    """A noisy two-qubit product pair, not DUC, whose Choi difference is
    exactly real; the reference iteration leaves it open."""
    a = tensor(damping(0.8, 0.7), covariant(0.2))
    b = tensor(pauli_channel([0.7, 0.2, 0.1, 0.0]), pauli_channel([0.5, 0.3, 0.1, 0.1]))
    return choi(a) - choi(b)


def _twisted(delta: np.ndarray, phases) -> np.ndarray:
    """(I (x) V) delta (I (x) V)^H for V = diag(exp(i phases)) on the
    reference factor: the same diamond norm, and complex for real delta."""
    lift = np.kron(np.eye(delta.shape[0] // len(phases)), np.diag(np.exp(1j * np.asarray(phases))))
    return lift @ delta @ lift.conj().T


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
    real_family = [
        choi(damping(0.7, 0.5)) - choi(pauli_channel(p))
        for p in (_SKEW_PAULI, [0.5, 0.1, 0.3, 0.1], [0.2, 0.3, 0.4, 0.1])
    ]
    return {
        "one-member-ref2": sdp._Program([d2], 2),
        "one-member-ref4": sdp._Program([d4], 4),
        "minimax-ref2": sdp._Program(family, 2),
        "minimax-ref1": sdp._Program(family, 1),
        "dual-ref2": sdp._DualProgram(d2, 2),
        "dual-ref4": sdp._DualProgram(d4, 4),
        # damping against Pauli channels keeps both pairs |01>, |10>; the
        # two-copy phase-gate family keeps none
        "sector-one-member-ref2": sdp._SectorProgram(damping_family[:1], 2),
        "sector-minimax-ref2": sdp._SectorProgram(damping_family, 2),
        "sector-one-member-ref4": sdp._SectorProgram(two_copy[:1], 4),
        "sector-minimax-ref4": sdp._SectorProgram(two_copy, 4),
        # the Choi bounds of both families
        "sector-minimax-ref1-d2": sdp._SectorProgram(damping_family, 1),
        "sector-minimax-ref1-d4": sdp._SectorProgram(two_copy, 1),
        # exactly real families: W and rho real symmetric
        "real-one-member-ref2": sdp._Program(real_family[:1], 2),
        "real-one-member-ref4": sdp._Program([_real_product_delta()], 4),
        "real-minimax-ref2": sdp._Program(real_family, 2),
        "real-minimax-ref1": sdp._Program(real_family, 1),
    }


def _random_pd(size: int, gen: np.random.Generator, real: bool = False) -> np.ndarray:
    """A random positive-definite matrix, real symmetric when ``real``."""
    g = gen.normal(size=(size, size))
    if not real:
        g = g + 1j * gen.normal(size=(size, size))
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
    """The Schur matrix from A^T(e_i) of every unit vector, dense, on the
    complex space whatever the dtype of the program."""
    units = [prog.adjoint_blocks(e) for e in np.eye(prog.m)]
    brute = np.zeros((prog.m, prog.m))
    for b, (x, z) in enumerate(zip(x_mats, z_mats)):
        x, z = x.astype(complex), z.astype(complex)
        gens = np.stack([_blocks(u[0])[b] for u in units]).astype(complex)
        t = np.matmul(np.matmul(x, gens), z)
        flat = gens.reshape(prog.m, -1)
        brute += (flat @ t.transpose(0, 2, 1).reshape(prog.m, -1).T).real
    rows = np.stack([u[1] for u in units])
    brute += rows @ (xz_scal[:, None] * rows.T)
    return 0.5 * (brute + brute.T)


def test_a_program_is_minimax_exactly_when_its_family_has_more_than_one_member() -> None:
    """``_Program.minimax``, which tags a solve's program kind, is true for
    the minimax and trace families and false for a single distance, sector
    programs included; the dual program has no family."""
    for name, prog in _program_shapes().items():
        if name.startswith("dual"):
            assert not hasattr(prog, "minimax"), name
        else:
            assert prog.minimax == ("minimax" in name) == (prog.k > 1), name


def test_program_operators_are_consistent_for_every_shape() -> None:
    """slack = C - A^T(y), <A^T(y), X> = y . A(X), and schur matches brute
    force; a real program's iterates are real symmetric, as in the engine."""
    gen = helpers.rng(36)
    for name, prog in _program_shapes().items():
        real = name.startswith("real")
        assert prog.real == real, name
        zero_mats, zero_scal = prog.slack_blocks(np.zeros(prog.m))
        # s(0) = h; a sector program's only matrix group is its pair
        npt.assert_array_equal(zero_scal, prog.h)
        assert len(zero_mats) == (1 if name.startswith("sector") else 2), name
        sizes = [blk.shape[0] for blk in _blocks(zero_mats)]
        k = zero_scal.size
        y = gen.normal(size=prog.m)
        x_mats = [_random_pd(s, gen, real) for s in sizes]
        z_mats = [_random_pd(s, gen, real) for s in sizes]
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
        x_mats = [_random_pd(s, gen, real) for s in sizes]
        z_mats = [_random_pd(s, gen, real) for s in sizes]
        xz_scal = gen.uniform(0.5, 2.0, size=k)
        second = prog.schur(_grouped(prog, x_mats), _grouped(prog, z_mats), xz_scal)
        _assert_rel(second, _brute_schur(prog, x_mats, z_mats, xz_scal), _norm(second))
        assert np.array_equal(fast, kept), name


def test_warm_schur_call_allocates_no_large_temporaries() -> None:
    """At n = 16 the per-iteration Schur work lives in program-owned buffers:
    a warm call allocates little beyond its result, 0.56 MiB (272 x 272) for
    a complex program and 0.16 MiB (146 x 146) for a real one; the bound
    scales with the result."""
    gen = helpers.rng(42)
    a, b = helpers.random_channel(4, 2, gen), helpers.random_channel(4, 3, gen)
    for delta, m in ((choi(a) - choi(b), 272), (_real_product_delta(), 146)):
        prog = sdp._Program([delta], 4)
        assert (prog.n, prog.m) == (16, m)
        sizes = [blk.shape[0] for blk in _blocks(prog.slack_blocks(np.zeros(prog.m))[0])]
        x_mats = _grouped(prog, [_random_pd(s, gen, prog.real) for s in sizes])
        z_mats = _grouped(prog, [_random_pd(s, gen, prog.real) for s in sizes])
        prog.schur(x_mats, z_mats, np.ones(1))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            prog.schur(x_mats, z_mats, np.ones(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 1.5 * 2**20 * (m / 272) ** 2, (m, peak - start)


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


def _logged(steps, log: list):
    """``steps``, appending each engine request it yields to ``log``."""
    sol = None
    while True:
        try:
            request = steps.send(sol)
        except StopIteration as finished:
            return finished.value
        if isinstance(request[0], sdp._BlockProgram):
            log.append(request)
        sol = yield request


def _row_requests(steps) -> list:
    """The (program, gap_tol) of every solve a sweep row's step generator
    needs, each answered by a solve of its own (``_run``); its other
    requests (brackets, Choi differences) are answered alone and left out."""
    requests = []
    sdp._run(_logged(steps, requests))
    return requests


def _solution_bits(sol: sdp.SdpSolution) -> tuple:
    arrays = (sol.weights, sol.witness_w, sol.witness_rho)
    return (
        struct.pack("<2d", sol.primal, sol.dual),
        sol.iterations,
        *(None if a is None else a.tobytes() for a in arrays),
    )


def _open_distance_row(q: float, gamma: float, tol: float):
    """The steps of one diamond distance that the closed form at the maximally
    mixed reference leaves open, so that it takes a one-member solve when the
    reference iteration is off: damping against a Pauli channel with unequal
    X and Y weights (not DUC)."""
    return diamond._diamond_sdp_steps(damping(q, gamma), pauli_channel(_SKEW_PAULI), tol)


def test_batched_solves_match_solo_solves_bit_for_bit(monkeypatch) -> None:
    """A problem gives the same bits alone, in a batch, in the reversed batch
    and beside members that stop at other iterations."""
    # The Pauli-set route answers fig2 rows in closed form; with it off,
    # they take the joint minimax solve as any other set does. The two
    # (alpha, beta, delta) rows stall above 1e-7 and close their joint
    # brackets with the dual program at their weights: every follow-up
    # solve of a row.
    monkeypatch.setattr(approx, "_pauli_bracket", lambda *args: None)
    # The reference iteration closes the four distances; with it off, they
    # take their one-member solves.
    monkeypatch.setattr(sdp, "_reference_iteration", lambda *args: None)
    stalled = [(np.pi / 6, np.pi / 3, 4.714680286095766), (np.pi / 6, 0.0, 5.79819173389371)]
    rows = [_open_distance_row(q, gamma, 1e-9) for q, gamma in ((1.0, 0.3), (1.0, 0.5), (0.8, 0.5), (0.6, 0.9))]
    rows += [
        cli._fig2_row((alpha, beta, delta, 1e-6))
        for alpha, beta, delta in [(0.3, 0.9, np.pi / 8), (np.pi / 4, np.pi / 4, np.pi / 8)] + stalled
    ]
    rows += [cli._fig3_row((q, gamma, 1e-6)) for q, gamma in ((0.25, 0.5), (0.7, 0.3), (0.9, 0.9))]
    groups = {}
    for prog, tol in (request for row in rows for request in _row_requests(row)):
        groups.setdefault(prog.shape_key(), []).append((prog, tol))
    kinds = sorted(
        (type(group[0][0]).__name__, getattr(group[0][0], "k", 1) > 1, len(group))
        for group in groups.values()
    )
    assert kinds == [
        ("_DualProgram", False, 2),  # the stalled rows' closing solves
        ("_Program", False, 4),  # the four distances
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


def _result_bits(res) -> tuple:
    """Every float and array of a ``DiamondResult`` or an ``ApproxResult``."""
    cert = getattr(res, "witness", res)
    weights = getattr(res, "weights", None)
    return (
        struct.pack("<4d", cert.value, cert.primal, cert.dual, getattr(res, "distance", cert.value)),
        cert.witness_state.tobytes(),
        cert.witness_operator.tobytes(),
        None if weights is None else weights.tobytes(),
        getattr(res, "iterations", 0),
    )


def _route_pairs() -> dict:
    """A channel pair and tol for each route of one ``diamond_sdp`` distance."""
    skew = pauli_channel(_SKEW_PAULI)
    u1, u2 = (unitary_qubit(*angles) for angles in ((0.3, 0.5, 0.1), (0.9, 1.2, 0.4)))
    v1, v2 = (unitary_qubit(*angles) for angles in ((0.6, 0.5, 0.1), (0.9, 1.7, 0.4)))
    gen = helpers.rng(1001)  # the second pair of this draw falls back at 1e-9
    drawn = [helpers.random_channel(2, k, gen) for _ in range(2) for k in (2, 3)]
    return {
        "zero": (identity(2), identity(2), 1e-7),
        "bracket": (unitary_qubit(0.0, np.pi / 6, 0.0), identity(2), 1e-7),
        "pair": (tensor(u1, u2), tensor(v1, v2), 1e-7),
        "iteration": (damping(1.0, 0.5), skew, 1e-7),
        "engine": (damping(1.0, 0.9), skew, 1e-7),
        "dual": (drawn[2], drawn[3], 1e-9),
    }


def _requested_distance(first, member, tol: float):
    """The steps of one distance whose Choi difference is a request
    (``channels._ChoiDifferences``), as a fig1 row asks for it."""
    deltas, kraus = yield channels._ChoiDifferences(first, [member]), None
    sol = yield from sdp._fixed_steps(deltas[0], 2, tol, kraus)
    return diamond.DiamondResult._of_solution(sol)


def _route_steps() -> dict:
    """A step generator maker for each route of one distance: the channel
    pairs of ``_route_pairs`` through ``diamond_sdp``'s steps, and two
    distances whose Choi differences are requests."""
    makers = {
        name: (lambda pair=pair: diamond._diamond_sdp_steps(*pair))
        for name, pair in _route_pairs().items()
    }
    skew = pauli_channel(_SKEW_PAULI)
    makers["request"] = lambda: _requested_distance(
        ("unitary", (0.4, 0.3, 0.2)), ("covariant", (0.3,)), 1e-7
    )
    makers["request, iteration"] = lambda: _requested_distance(("damping", (1.0, 0.5)), skew, 1e-7)
    return makers


def test_run_and_a_run_all_window_give_the_same_bits_on_every_route(monkeypatch) -> None:
    """Each route of one distance, answered request by request (``_run``) and
    in one window with the others (``_run_all``), in both orders, gives the
    same bits; the census shows which route each pair takes. A distance
    whose Choi difference is a request has the bits of the same pair's
    channels."""
    makers = _route_steps()
    trail = []
    brackets, pair_bracket, iteration, solve = (
        sdp._brackets, sdp._unitary_pair_solution, sdp._reference_iteration, sdp._solve_batch
    )
    differences = channels._ChoiDifferences.answer

    def bracketed(requests):
        trail.append("I/d")
        return brackets(requests)

    def paired(*args):
        trail.append("pair")
        return pair_bracket(*args)

    def iterated(*args):
        sol = iteration(*args)
        trail.append("iteration" if sol is not None else "iteration gives up")
        return sol

    def solved(progs, tols):
        trail.extend(type(prog).__name__ for prog in progs)
        return solve(progs, tols)

    def requested(requests, tols=None):
        trail.append("Choi")
        return differences(requests, tols)

    monkeypatch.setattr(sdp, "_brackets", bracketed)
    monkeypatch.setattr(sdp, "_unitary_pair_solution", paired)
    monkeypatch.setattr(sdp, "_reference_iteration", iterated)
    monkeypatch.setattr(sdp, "_solve_batch", solved)
    monkeypatch.setattr(channels._ChoiDifferences, "answer", staticmethod(requested))
    alone, trails = {}, {}
    for name, make in makers.items():
        trail.clear()
        alone[name] = _result_bits(sdp._run(make()))
        trails[name] = list(trail)
    assert trails == {
        "zero": ["I/d"],
        "bracket": ["I/d"],
        "pair": ["I/d", "pair"],
        "iteration": ["I/d", "iteration"],
        "engine": ["I/d", "iteration gives up", "_Program"],
        "dual": ["I/d", "iteration gives up", "_Program", "_DualProgram"],
        "request": ["Choi", "I/d"],
        "request, iteration": ["Choi", "I/d", "iteration"],
    }
    assert alone["request, iteration"] == alone["iteration"]
    covariant_pair = (unitary_qubit(0.4, 0.3, 0.2), covariant(0.3), 1e-7)
    assert alone["request"] == _result_bits(sdp._run(diamond._diamond_sdp_steps(*covariant_pair)))

    expected = list(alone.values())
    window = sdp._run_all([make() for make in makers.values()])
    assert [_result_bits(res) for res in window] == expected
    reverse = sdp._run_all([make() for make in list(makers.values())[::-1]])
    assert [_result_bits(res) for res in reverse] == expected[::-1]


def test_a_window_answers_its_choi_requests_in_one_build_per_family(monkeypatch, capsys) -> None:
    """Default fig1 runs its 201 rows in windows of 64, 64, 64 and 9; each
    window builds its unitaries and its covariant channels in one stacked
    call each, and evaluates their brackets once. A fig3 window builds its
    damping channels once, and the fixed endpoints take no build."""
    builds, brackets = [], []
    family_kraus, bracket = channels._family_kraus, sdp._mixed_reference_solution

    def built(family, params):
        builds.append((family, len(params)))
        return family_kraus(family, params)

    def bracketed(deltas, weights, ref_dim):
        brackets.append(len(deltas))
        return bracket(deltas, weights, ref_dim)

    monkeypatch.setattr(channels, "_family_kraus", built)
    monkeypatch.setattr(sdp, "_mixed_reference_solution", bracketed)
    assert cli.main(["fig1"]) == cli.EXIT_OK
    windows = [64, 64, 64, 9]
    assert builds == [(family, size) for size in windows for family in ("unitary", "covariant")]
    assert brackets == windows
    builds.clear()
    assert cli.main(["fig3", "--grid", "3x3"]) == cli.EXIT_OK
    assert builds == [("damping", 9)]
    capsys.readouterr()


def test_a_row_with_a_bad_parameter_stops_alone_with_the_scalar_message() -> None:
    """A window whose stacked build raises answers each request alone: the
    row with the bad parameter raises its scalar constructor's RangeError
    after the window, and every other row finishes with its solo bits."""
    items = [(0.3, 0.5, 1e-6), (0.7, float("nan"), 1e-6), (0.5, 0.9, 1e-6)]
    finished = {}

    def recorded(i, steps):
        finished[i] = np.array((yield from steps)).tobytes()

    with pytest.raises(RangeError) as expected:
        damping(0.7, float("nan"))
    with pytest.raises(RangeError) as alone:
        sdp._run(cli._fig3_row(items[1]))
    assert str(alone.value) == str(expected.value)
    solo = {i: np.array(sdp._run(cli._fig3_row(items[i]))).tobytes() for i in (0, 2)}
    with pytest.raises(RangeError) as windowed:
        sdp._run_all([recorded(i, cli._fig3_row(item)) for i, item in enumerate(items)])
    assert str(windowed.value) == str(expected.value)
    assert finished == solo


def test_witness_states_of_the_closed_routes_are_exactly_hermitian() -> None:
    """The reference state that ``_best_at_state`` hands back is symmetrized,
    as the engine's is: a reference-iteration result, a unitary-pair result
    and the certificate of a dual-program solve have rho == rho^H exactly."""
    pairs = _route_pairs()
    states = [diamond_sdp(*pairs[name]).witness_state for name in ("iteration", "pair")]
    a, b, tol = pairs["dual"]
    states.append(sdp._solve_ipm(sdp._DualProgram(choi(a) - choi(b), 2), tol).witness_rho)
    for rho in states:
        assert rho.dtype == np.complex128
        assert np.array_equal(rho, rho.conj().T)


def test_stacked_brackets_match_solo_brackets_bit_for_bit(monkeypatch) -> None:
    """A window of fig1 results and one of fig2 results close in the closed
    form at the maximally mixed reference. Each gives the same bits alone
    (``_run``), in its window (``_run_all``) and in the reversed window; a
    window evaluates the brackets of each shape once, and the engine never
    runs. alpha = beta = 0 is an exact member; x = 0 is an exactly zero
    Delta, which its window's bracket closes with value 0 and gap 0; x = 2
    is the fig1 row at distance 2 from the identity."""
    xs = np.linspace(0.0, 2.0, 9)
    fig2 = [(a, b, np.pi / 8) for a in (0.0, 0.7, np.pi / 2) for b in (0.0, 1.1)]

    def rows():
        """The steps of the fig1 and fig2 results, as cli's row workers build them."""
        steps = [
            diamond._diamond_sdp_steps(
                unitary_qubit(float(np.arcsin(x / 2.0)), 0.0, 0.0),
                covariant(approx.covariance_distance_x(x)[1]),
                1e-9,
            )
            for x in xs
        ]
        paulis = pauli_unitaries()
        return steps + [approx._convex_approx_steps(unitary_qubit(*r), paulis, 1e-6) for r in fig2]

    alone = [_result_bits(sdp._run(steps)) for steps in rows()]
    stacks = []
    bracket = sdp._mixed_reference_solution

    def logged(deltas, weights, ref_dim):
        stacks.append(len(deltas))
        return bracket(deltas, weights, ref_dim)

    monkeypatch.setattr(sdp, "_mixed_reference_solution", logged)
    solves = _count_solves(monkeypatch)
    assert [_result_bits(res) for res in sdp._run_all(rows())] == alone
    # the exact member asks for no bracket: 9 fig1 rows and 5 fig2 rows
    assert stacks == [9, 5] and solves == []
    assert [_result_bits(res) for res in sdp._run_all(rows()[::-1])] == alone[::-1]
    assert stacks == [9, 5, 5, 9]
    assert all(bits[-1] == 0 for bits in alone)
    for bits in (alone[0], alone[len(xs)]):
        assert bits[0] == struct.pack("<4d", 0.0, 0.0, 0.0, 0.0)
    assert struct.unpack("<4d", alone[len(xs) - 1][0])[0] == pytest.approx(4.0 / 3.0, abs=1e-9)
    # A family's kernel is its own: an eigenvalue of 1e-14 is above it at
    # scale 1, and below that of a family 1e3 times larger in the stack.
    family = np.stack([np.diag([1.0, 1e-14, -1.0, -0.5]), np.eye(4)]).astype(complex)
    small, large = (sdp._Bracket(scale * family, [1.0, 0.0], 2) for scale in (1.0, 1e3))
    (solo,) = bracket([small.deltas], [small.weights], 2)
    for stack in ([small, large], [large, small]):
        sols = sdp._brackets(stack)
        assert _solution_bits(sols[stack.index(small)]) == _solution_bits(solo)


def _pauli_deltas(alpha: float, beta: float) -> np.ndarray:
    """A fig2 row's family at delta = pi/8."""
    target = choi(unitary_qubit(alpha, beta, np.pi / 8))
    return [target - choi(ch) for ch in pauli_unitaries()]


def test_a_failing_member_stops_alone_in_its_batch(monkeypatch) -> None:
    # A stacked Cholesky raises for the whole stack when one slice fails.
    # The failing problem must stop with its bracket at the iteration where
    # its own solve stops, and every other problem must go on as if alone.
    healthy = [sdp._program(_pauli_deltas(a, b), 2) for a, b in ((0.3, 0.9), (1.2, 0.4), (0.5, 0.5))]
    sick = sdp._program(_pauli_deltas(0.7, 0.4), 2)
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


def test_a_failed_centre_ends_the_solve_with_its_bracket(monkeypatch) -> None:
    # A singular slack matrix stops the solve in _centre; the bracket of the
    # iterations before it is kept, and it holds the converged value.
    prog = sdp._program(_pauli_deltas(0.7, 0.4), 2)
    full = sdp._solve_ipm(prog, TOL)
    centre = sdp._centre
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 4:
            raise np.linalg.LinAlgError("singular slack")
        return centre(*args)

    monkeypatch.setattr(sdp, "_centre", failing)
    sol = sdp._solve_ipm(prog, TOL)
    assert sol.iterations == 4 < full.iterations
    assert sol.gap > TOL
    assert sol.primal <= full.primal <= full.dual <= sol.dual < np.inf
    assert sol.witness_w is not None and sol.weights is not None


def _raising_after_first_solve(steps):
    """The step generator ``steps`` up to its first request, then a failure."""
    yield next(steps)
    raise NoConvergenceError("forced after the first solve")


def test_a_raising_row_stops_alone_and_is_raised_after_its_window(monkeypatch) -> None:
    items = [(q, gamma, 1e-6) for q, gamma in ((0.3, 0.9), (1.0, 0.4), (0.5, 0.5), (0.7, 0.4))]
    alone = [np.array(sdp._run(cli._fig3_row(item))).tobytes() for item in items]
    finished = {}

    def recorded(i, steps):
        finished[i] = np.array((yield from steps)).tobytes()

    steps = [recorded(i, cli._fig3_row(item)) for i, item in enumerate(items)]
    steps[1] = recorded(1, _raising_after_first_solve(cli._fig3_row(items[1])))
    monkeypatch.setattr(sdp, "_MAX_BATCH", 3)
    with pytest.raises(NoConvergenceError, match="forced"):
        sdp._run_all(steps)
    # the other rows of the window finish with their solo bits, and the
    # next window never starts
    assert finished == {0: alone[0], 2: alone[2]}


def test_sweep_with_a_raising_row_exits_3_and_writes_nothing(
    tmp_path, monkeypatch, capsys
) -> None:
    row = cli._fig4_row

    def flaky(item):
        return _raising_after_first_solve(row(item)) if item[1] == 0.5 else row(item)

    monkeypatch.setattr(cli, "_fig4_row", flaky)
    assert cli.main(["fig4", "--grid", "3"]) == cli.EXIT_NOCONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == "" and "forced" in captured.err
    out = tmp_path / "fig4.csv"
    assert cli.main(["fig4", "--grid", "3", "--out", str(out)]) == cli.EXIT_NOCONVERGENCE
    assert not out.exists() and "forced" in capsys.readouterr().err


def test_dual_program_without_a_projection_certifies_no_lower_side(monkeypatch) -> None:
    # the second pair of this draw takes the dual-program fallback at 1e-9
    gen = helpers.rng(1001)
    drawn = [helpers.random_channel(2, k, gen) for _ in range(2) for k in (2, 3)]
    delta = choi(drawn[2]) - choi(drawn[3])
    solve = sdp._solve_batch
    kinds = []

    def logged(progs, tols):
        kinds.extend(type(prog).__name__ for prog in progs)
        return solve(progs, tols)

    monkeypatch.setattr(sdp, "_solve_batch", logged)
    sol = sdp.solve_fixed(delta, 2, 1e-9)
    assert sol.gap <= 1e-9
    assert kinds == ["_Program", "_DualProgram"]
    # the fallback keeps the one member's weight, as a first-solve success does
    assert sol.weights.tolist() == [1.0]

    def failing(self, mats, scal):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(sdp._DualProgram, "project_dual", failing)
    sol = sdp._solve_ipm(sdp._DualProgram(delta, 2), 1e-9)
    assert sol.witness_w is None and sol.witness_rho is None and sol.weights is None
    assert (sol.dual, sol.iterations) == (np.inf, 1)
    with pytest.raises(NoConvergenceError, match="above tolerance"):
        sdp.solve_fixed(delta, 2, 1e-9)


def test_programs_reject_malformed_shapes() -> None:
    """The divisibility check sits in ``_fixed_steps``, which every single
    distance passes, and not in the program constructors, which a closed
    form never reaches: without it this delta came back as primal 1.333 >
    dual 1.0."""
    delta = np.eye(4, dtype=complex)
    with pytest.raises(ValueError, match="not divisible"):
        sdp.solve_fixed(delta, 3, TOL)
    with pytest.raises(ValueError, match="not divisible"):
        diamond._diamond_of_delta(delta, 3, TOL)


def test_a_single_distance_checks_its_input_before_any_bracket(monkeypatch) -> None:
    """``_fixed_steps`` rejects a non-square or non-finite delta, a reference
    dimension that does not divide n and a tol outside [1e-9, inf), each with
    a ValueError subclass, before it requests the bracket at I/d."""
    calls = []
    brackets = sdp._brackets

    def counted(requests):
        calls.append(len(requests))
        return brackets(requests)

    monkeypatch.setattr(sdp, "_brackets", counted)
    eye = np.eye(4, dtype=complex)
    cases = [
        (eye, 3, TOL, DimMismatchError),
        (eye, 0, TOL, DimMismatchError),
        (eye[:3], 1, TOL, NonSquareError),
        (np.full((4, 4), np.nan, dtype=complex), 2, TOL, RangeError),
        (np.full((4, 4), np.inf, dtype=complex), 2, TOL, RangeError),
    ] + [(eye, 2, tol, RangeError) for tol in (np.nan, 0.0, -1.0, 1e-10)]
    for delta, ref_dim, tol, error in cases:
        with pytest.raises(error):
            sdp.solve_fixed(delta, ref_dim, tol)
        with pytest.raises(error):
            sdp._run_all([sdp._fixed_steps(delta, ref_dim, tol)])
    assert calls == []
    assert sdp.solve_fixed(eye, 2, 1e-9).gap <= 1e-9
    assert calls == [1]


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


def _open_delta() -> np.ndarray:
    """A Delta that the closed form at the maximally mixed reference and the
    reference iteration leave open, so that ``solve_fixed`` reaches the
    engine: its optimal reference state is pure, and the iteration gives up."""
    return choi(damping(1.0, 0.9)) - choi(pauli_channel(_SKEW_PAULI))


def test_linalg_error_ends_the_solve_with_its_bracket(monkeypatch) -> None:
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    deltas = _worst_unitary_deltas()
    monkeypatch.setattr(sdp, "_lin_solve", singular)
    sol = sdp._solve_ipm(sdp._program(deltas, 2), TOL)
    assert sol.iterations == 1
    assert np.isfinite(sol.primal) and np.isfinite(sol.dual)
    assert sol.primal <= sol.dual
    with pytest.raises(NoConvergenceError, match="above tolerance"):
        sdp.solve_fixed(_open_delta(), 2, TOL)


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
    for solve in (
        lambda: sdp._solve_ipm(sdp._program(_worst_unitary_deltas(), 2), TOL),
        lambda: sdp.solve_fixed(_open_delta(), 2, TOL),
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
    sol = sdp._solve_ipm(sdp._program(deltas, 2), TOL)
    assert sol.iterations == 1
    assert np.isfinite(sol.primal) and np.isfinite(sol.dual)
    assert sol.primal <= sol.dual
    with pytest.raises(NoConvergenceError, match="above tolerance"):
        sdp.solve_fixed(_open_delta(), 2, TOL)


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
    assert sdp._solve_ipm(sdp._program(_worst_unitary_deltas(), 2), TOL).iterations == 1


def test_mu_stall_ends_a_solve_that_cannot_move(monkeypatch) -> None:
    # A zero step freezes the iterates, and an infinite projected bound keeps
    # the gap stall from counting, so only the mu stall can stop the solve:
    # the first iteration sets the lower bound, the next six leave mu as it is.
    monkeypatch.setattr(sdp, "_max_step", lambda roots, scal, *args: np.zeros(scal.shape[:-1]))
    monkeypatch.setattr(sdp._Program, "project_dual", lambda self, *args: np.inf)
    sol = sdp._solve_ipm(sdp._program(_worst_unitary_deltas(), 2), TOL)
    assert sol.iterations == 7
    assert (sol.primal, sol.dual, sol.weights) == (-1.0, np.inf, None)


def test_iteration_cap_ends_the_solve(monkeypatch) -> None:
    monkeypatch.setattr(sdp, "_MAX_ITER", 2)
    sol = sdp._solve_ipm(sdp._program(_worst_unitary_deltas(), 2), TOL)
    assert sol.iterations == 2
    assert sol.gap > TOL


def test_dual_projection_rejects_a_zero_or_nan_reference_block() -> None:
    gen = helpers.rng(39)
    delta = choi(helpers.random_channel(2, 2, gen)) - choi(helpers.random_channel(2, 2, gen))
    prog = sdp._DualProgram(delta, 2)
    eye = np.eye(4, dtype=complex)
    for ref_block in (np.zeros((2, 2), dtype=complex), np.full((2, 2), np.nan, dtype=complex)):
        assert prog.project_dual(_grouped(prog, [eye, eye, ref_block]), np.zeros(0)) == np.inf


def test_dual_projection_takes_the_best_witness_at_the_iterates_state() -> None:
    gen = helpers.rng(40)
    delta = choi(helpers.random_channel(2, 2, gen)) - choi(helpers.random_channel(2, 3, gen))
    prog = sdp._DualProgram(delta, 2)
    ref_block = 3.0 * helpers.random_density(2, gen)  # any positive trace
    eye = np.eye(4, dtype=complex)
    mats = _grouped(prog, [eye, eye, ref_block])
    bound = -prog.project_dual(mats, np.zeros(0))
    w, rho, _ = prog.certificate(None, mats, None)
    npt.assert_allclose(rho, ref_block / 3.0, atol=1e-15)
    evals, evecs = np.linalg.eigh(rho)
    root = np.kron(np.eye(2), (evecs * np.sqrt(evals)) @ evecs.conj().T)
    assert abs(bound - trace_norm(root @ delta @ root)) <= 1e-13
    assert np.einsum("ab,ba->", delta, w).real == bound
    lift = np.kron(np.eye(2), rho)
    assert np.linalg.eigvalsh(lift - w)[0] >= -1e-15
    assert np.linalg.eigvalsh(lift + w)[0] >= -1e-15


def test_four_dimensional_pairs_certify_at_the_floor() -> None:
    # Pairs 6 and 9 of this draw stall above 1e-9 in the first solve. Both
    # certify through the dual program's best witness at its state; its
    # own W, scaled to feasibility, left their brackets 1.2e-9 and 1.6e-9 wide.
    gen = helpers.rng(1002)
    drawn = [(helpers.random_channel(4, 2, gen), helpers.random_channel(4, 3, gen)) for _ in range(10)]
    for a, b in (drawn[6], drawn[9]):
        delta = choi(a) - choi(b)
        sol = sdp.solve_fixed(delta, 4, 1e-9)
        assert sol.gap <= 1e-9
        _recheck_on_full_space(sol, [delta], 4)


# --- closed form at the maximally mixed reference ------------------------------


def _closing_cases() -> list:
    """(Delta, reference dimension) pairs whose closed-form bracket at the
    maximally mixed reference closes: qubit unitary pairs, a qubit unitary
    against the covariant family, two Pauli channels, and an equal I/Z
    dephasing against the two-copy phase-gate target at d = 4."""
    gen = helpers.rng(44)
    qubits = [unitary_qubit(*gen.uniform(0.0, np.pi / 2, size=3)) for _ in range(4)]
    pauli = [pauli_channel(helpers.random_simplex(4, gen)) for _ in range(2)]
    target, _ = _two_copy_pair()
    dephased = tensor(identity(2), mix([identity(2), pauli_unitaries()[3]], [0.5, 0.5]))
    pairs = [(qubits[0], qubits[1]), (qubits[2], qubits[3]), (qubits[0], covariant(0.4)), tuple(pauli)]
    return [(choi(a) - choi(b), 2) for a, b in pairs] + [(choi(target) - choi(dephased), 4)]


def test_closed_form_results_recheck_from_delta_and_their_matrices() -> None:
    """Both sides of a closed-form result re-check from Delta, W and rho
    alone, within an explicit roundoff allowance of n eps ||.||."""
    eps = np.finfo(float).eps
    for delta, ref_dim in _closing_cases():
        sol = sdp.solve_fixed(delta, ref_dim, 1e-9)
        assert (sol.iterations, sol.weights.tolist()) == (0, [1.0])
        assert sol.gap <= 1e-9
        w, rho = sol.witness_w, sol.witness_rho
        n, out = w.shape[0], w.shape[0] // ref_dim
        slack = n * eps * np.linalg.norm(w, 2)
        assert abs(np.trace(rho) - 1.0) <= ref_dim * eps
        assert np.linalg.eigvalsh(rho)[0] >= 0.0
        lift = np.kron(np.eye(out), rho)
        assert np.linalg.eigvalsh(lift - w)[0] >= -slack
        assert np.linalg.eigvalsh(lift + w)[0] >= -slack
        assert np.einsum("ab,ba->", delta, w).real >= sol.primal - slack * trace_norm(delta)
        # X1 = Delta_+ and X2 = Delta_- are dual feasible; the reported
        # upper side is no lower than their bound
        evals, evecs = np.linalg.eigh(delta)
        absolute = (evecs * np.abs(evals)) @ evecs.conj().T
        reduced = np.trace(absolute.reshape(out, ref_dim, out, ref_dim), axis1=0, axis2=2)
        assert sol.dual >= np.linalg.eigvalsh(reduced)[-1] - n * eps * trace_norm(delta)


def test_an_open_closed_form_leaves_the_solve_bit_for_bit(monkeypatch) -> None:
    """On a Delta that the closed form leaves open, the solve gives the bits
    it gives with that bracket forced to infinite width: a one-member solve,
    a solve that falls back to the dual program, a d = 4 unitary product, and
    a near miss whose closed-form lower side beats the solve's. The reference
    iteration, which closes the last three, is off."""
    monkeypatch.setattr(sdp, "_reference_iteration", lambda *args: None)
    u1, u2 = (unitary_qubit(*angles) for angles in ((0.4, 1.1, 2.0), (0.9, 0.3, 4.0)))
    r1, r2 = unitary_qubit(0.3, 0.0, 0.0), unitary_qubit(0.0, 0.5, 0.0)
    product = choi(tensor(u1, u2)) - choi(tensor(compose(u1, r1), compose(u2, r2)))
    fallback = choi(damping(0.7, 0.5)) - choi(pauli_channel([0.6, 0.2, 0.1, 0.1]))
    # closes at X/Y weights 0.15/0.1; 1e-6 away the bracket is 2e-6 wide
    near = choi(damping(1.0, 0.5)) - choi(pauli_channel([0.75 - 1e-6, 0.15 + 1e-6, 0.1, 0.0]))
    cases = [(_open_delta(), 2, TOL), (fallback, 2, 1e-9), (product, 4, 1e-7), (near, 2, 1e-7)]
    solve = sdp._solve_batch
    counts = []

    def counted(progs, tols):
        counts.append(type(progs[0]).__name__)
        return solve(progs, tols)

    monkeypatch.setattr(sdp, "_solve_batch", counted)
    before = [_solution_bits(sdp.solve_fixed(*case)) for case in cases]
    assert counts == ["_Program", "_Program", "_DualProgram", "_Program", "_Program"]
    closed = sdp._mixed_reference_solution
    # a bracket merged into the solve's would move the near miss's lower side
    assert closed([[near]], [[1.0]], 2)[0].primal > sdp.solve_fixed(near, 2, 1e-7).primal
    opened = []

    def open_bracket(deltas, weights, ref_dim):
        opened.append(len(deltas))
        return [dataclasses.replace(sol, dual=np.inf) for sol in closed(deltas, weights, ref_dim)]

    monkeypatch.setattr(sdp, "_mixed_reference_solution", open_bracket)
    assert [_solution_bits(sdp.solve_fixed(*case)) for case in cases] == before
    # each case asked for its bracket, as a stack of one
    assert opened == [1] * len(cases)


def test_mixed_reference_bracket_is_a_true_bracket() -> None:
    properties.check_mixed_reference_bracket_is_a_true_bracket(pairs=2)


# --- reference iteration -------------------------------------------------------


def _nearly_pure_iterated_cases() -> list:
    """(Delta, reference dimension) pairs that the reference iteration closes
    at 1e-7 and at 1e-9 at a nearly pure state (least eigenvalue below 1e-5):
    damping against a skew Pauli channel, and a d = 4 unitary product."""
    u1, u2 = (unitary_qubit(*angles) for angles in ((0.4, 1.1, 2.0), (0.9, 0.3, 4.0)))
    r1, r2 = unitary_qubit(0.3, 0.0, 0.0), unitary_qubit(0.0, 0.5, 0.0)
    pairs = [
        (damping(1.0, 0.5), pauli_channel(_SKEW_PAULI)),
        (tensor(u1, u2), tensor(compose(u1, r1), compose(u2, r2))),
    ]
    return [(choi(a) - choi(b), a.dim) for a, b in pairs]


def _well_conditioned_iterated_cases() -> list:
    """(Delta, reference dimension) pairs that the reference iteration closes
    at 1e-7 and at 1e-9 at a state whose least eigenvalue is above 0.2:
    damping against Pauli channels, and two d = 4 noisy products."""
    pairs = [
        (damping(0.6, 0.9), pauli_channel(_SKEW_PAULI)),
        (damping(0.7, 0.5), pauli_channel([0.6, 0.2, 0.1, 0.1])),
    ]
    for (q, gamma, p), w1, w2 in (
        ((0.4, 0.6, 0.3), [0.3, 0.3, 0.2, 0.2], [0.25, 0.35, 0.25, 0.15]),
        ((0.6, 0.2, 0.3), [0.2, 0.3, 0.3, 0.2], [0.3, 0.3, 0.3, 0.1]),
    ):
        pairs.append((tensor(damping(q, gamma), covariant(p)), tensor(pauli_channel(w1), pauli_channel(w2))))
    return [(choi(a) - choi(b), a.dim) for a, b in pairs]


def _rebuilt_upper(delta: np.ndarray, rho: np.ndarray, ref_dim: int) -> tuple[float, float]:
    """The upper side at rho rebuilt with NumPy alone, and its roundoff
    allowance.

    With R = I (x) sqrt(rho): X- = R^-1 (R Delta R)_- R^-1 and X+ = X- + Delta,
    both raised by one multiple of I until PSD (Weyl), give the bound
    lambda_max(Tr_1[X+ + X-]). R^-1 scales the roundoff of the rebuild by up
    to 1 / lambda_min(rho), so the allowance is n eps ||Delta|| / lambda_min(rho).
    """
    n = delta.shape[0]
    out = n // ref_dim
    evals, evecs = np.linalg.eigh(rho)
    root = np.kron(np.eye(out), (evecs * np.sqrt(evals)) @ evecs.conj().T)
    root_inv = np.kron(np.eye(out), (evecs / np.sqrt(evals)) @ evecs.conj().T)
    lam, u = np.linalg.eigh(root @ delta @ root)
    x_minus = root_inv @ (u * np.maximum(-lam, 0.0)) @ u.conj().T @ root_inv
    x_plus = x_minus + delta
    lift = max(0.0, -np.linalg.eigvalsh(x_plus)[0], -np.linalg.eigvalsh(x_minus)[0])
    reduced = np.trace((x_plus + x_minus).reshape(out, ref_dim, out, ref_dim), axis1=0, axis2=2)
    bound = np.linalg.eigvalsh(reduced)[-1] + 2 * out * lift
    return bound, n * np.finfo(float).eps * np.linalg.norm(delta, 2) / evals[0]


def _count_solves(monkeypatch) -> list:
    """Log the size of every stack that reaches the engine."""
    solve = sdp._solve_batch
    stacks = []

    def counted(progs, tols):
        stacks.append(len(progs))
        return solve(progs, tols)

    monkeypatch.setattr(sdp, "_solve_batch", counted)
    return stacks


def test_reference_iteration_results_recheck_from_delta_and_their_matrices(monkeypatch) -> None:
    """A Delta that the closed form at I/d leaves open and the reference
    iteration closes takes no solve. Both sides re-check from Delta, W and rho
    alone: the lower side within n eps ||.||, the upper side rebuilt from rho
    within ``_rebuilt_upper``'s allowance. The bracket meets the engine's."""
    eps = np.finfo(float).eps
    stacks = _count_solves(monkeypatch)
    for delta, ref_dim in _nearly_pure_iterated_cases() + _well_conditioned_iterated_cases():
        for tol in (1e-7, 1e-9):
            assert sdp._mixed_reference_solution([[delta]], [[1.0]], ref_dim)[0].gap > tol
            sol = sdp.solve_fixed(delta, ref_dim, tol)
            assert stacks == []
            assert (sol.iterations, sol.weights.tolist()) == (0, [1.0])
            assert sol.primal <= sol.dual <= sol.primal + tol
            w, rho = sol.witness_w, sol.witness_rho
            n, out = w.shape[0], w.shape[0] // ref_dim
            slack = n * eps * np.linalg.norm(w, 2)
            assert abs(np.trace(rho) - 1.0) <= ref_dim * eps
            assert np.linalg.eigvalsh(rho)[0] > 0.0
            lift = np.kron(np.eye(out), rho)
            assert np.linalg.eigvalsh(lift - w)[0] >= -slack
            assert np.linalg.eigvalsh(lift + w)[0] >= -slack
            assert np.einsum("ab,ba->", delta, w).real >= sol.primal - slack * trace_norm(delta)
            bound, allowance = _rebuilt_upper(delta, rho, ref_dim)
            assert sol.dual >= bound - allowance
            ipm = sdp._solve_ipm(sdp._program([delta], ref_dim), tol)
            stacks.clear()
            roundoff = n * eps * trace_norm(delta)
            assert sol.primal <= ipm.dual + roundoff and ipm.primal <= sol.dual + roundoff


def test_reference_iteration_witness_is_strictly_feasible_at_a_well_conditioned_state() -> None:
    """At a closing state whose least eigenvalue is above 0.2, the 1 - 1e-14
    factor on W leaves I (x) rho -+ W at least 2e-15 above singular, beyond
    the roundoff of W, so neither has a negative eigenvalue."""
    for delta, ref_dim in _well_conditioned_iterated_cases():
        for tol in (1e-7, 1e-9):
            sol = sdp.solve_fixed(delta, ref_dim, tol)
            assert np.linalg.eigvalsh(sol.witness_rho)[0] > 0.2
            lift = np.kron(np.eye(delta.shape[0] // ref_dim), sol.witness_rho)
            assert np.linalg.eigvalsh(lift - sol.witness_w)[0] >= 0.0
            assert np.linalg.eigvalsh(lift + sol.witness_w)[0] >= 0.0


def _count_iterates(monkeypatch) -> list:
    """Log every iterate of the reference iteration: the calls of
    ``_best_at_state`` on one block (the dual program's are stacked)."""
    best = sdp._best_at_state
    iterates = []

    def counted(delta, block, out):
        if block.ndim == 2:
            iterates.append(1)
        return best(delta, block, out)

    monkeypatch.setattr(sdp, "_best_at_state", counted)
    return iterates


def test_an_input_the_reference_iteration_leaves_open_gets_the_engines_bits(monkeypatch) -> None:
    """Pairs whose optimal reference state is rank deficient, and a noisy
    product whose gap contracts too slowly: the iteration gives up well
    before its cap of 100 iterations, and the solve then gives the bits it
    gives with the iteration off."""
    skew = pauli_channel(_SKEW_PAULI)
    noisy = choi(tensor(damping(0.8, 0.4), covariant(0.3))) - choi(
        tensor(pauli_channel([0.5, 0.2, 0.2, 0.1]), pauli_channel([0.4, 0.3, 0.2, 0.1]))
    )
    steep = choi(tensor(damping(1.0, 0.9), identity(2))) - choi(tensor(skew, identity(2)))
    cases = [(_open_delta(), 2, 1e-7), (_open_delta(), 2, 1e-9), (steep, 4, 1e-7), (noisy, 4, 1e-7)]
    iterates = _count_iterates(monkeypatch)
    before = []
    for case in cases:
        iterates.clear()
        sol = sdp.solve_fixed(*case)
        assert sol.iterations > 0 and 5 <= len(iterates) < 50
        before.append(_solution_bits(sol))
    monkeypatch.setattr(sdp, "_reference_iteration", lambda *args: None)
    assert [_solution_bits(sdp.solve_fixed(*case)) for case in cases] == before


def test_a_singular_state_ends_the_reference_iteration(monkeypatch) -> None:
    """Delta = D (x) |0><0| (not DUC: D is not diagonal) puts the first
    iterate at the pure state |0><0|, where the iteration stops at once; the
    engine certifies ||D||_1 at that state."""
    d_out = np.array([[0.5, 0.3], [0.3, -0.25]], dtype=complex)
    delta = np.kron(d_out, np.diag([1.0, 0.0]))
    assert not sdp._sectored(delta[None], 2)
    iterates = _count_iterates(monkeypatch)
    sol = sdp.solve_fixed(delta, 2, 1e-7)
    assert len(iterates) == 1 and sol.iterations > 0
    assert abs(0.5 * (sol.primal + sol.dual) - trace_norm(d_out)) <= 1e-7


def test_a_duc_delta_never_enters_the_reference_iteration(monkeypatch, capsys) -> None:
    """A DUC Delta keeps its sector program: damping against the identity,
    which the closed form at I/d leaves open, and every distance of the
    ``twocopy`` study. A non-DUC Delta does enter."""
    iterate = sdp._reference_iteration
    entered = []

    def logged(*args):
        entered.append(args[1])
        return iterate(*args)

    monkeypatch.setattr(sdp, "_reference_iteration", logged)
    duc = choi(damping(1.0, 1.0)) - choi(identity(2))
    assert sdp._mixed_reference_solution([[duc]], [[1.0]], 2)[0].gap > 1e-7
    assert sdp.solve_fixed(duc, 2, 1e-7).iterations > 0
    assert cli.main(["twocopy", "--format", "json"]) == cli.EXIT_OK
    capsys.readouterr()
    assert entered == []
    sdp.solve_fixed(_open_delta(), 2, 1e-7)
    assert entered == [2]


# --- sector program ------------------------------------------------------------


def test_sector_program_keeps_only_pairs_with_data() -> None:
    assert sdp._SectorProgram(_damping_deltas(0.7, 0.5), 2).pairs.tolist() == [1, 2]
    two_copy = sdp._SectorProgram(_two_copy_deltas(), 4)
    assert two_copy.pairs.size == 0
    assert (two_copy.n, two_copy.ref, two_copy.m) == (4, 4, 20)
    # at reference dimension 1 the program has no p coordinates
    choi_bound = sdp._SectorProgram(_two_copy_deltas(), 1)
    assert (choi_bound.n, choi_bound.ref, choi_bound.m) == (4, 1, 17)


def test_sector_programs_of_one_shape_share_read_only_shape_data() -> None:
    """A sector program's shape data (index maps, the pair's C and
    generators, h and the scalar rows of G after the members') is built once
    per (d, reference dimension, member count, kept pairs) and read-only;
    its members, b and the members' rows of G are its own."""
    a, b = (sdp._SectorProgram(_damping_deltas(*row), 2) for row in ((0.7, 0.5), (0.3, 0.9)))
    assert a.shape_key() == b.shape_key()
    for name in ("sector", "pairs", "pair_ref", "sector_ref", "per_ref", "h", "signs"):
        assert getattr(a, name) is getattr(b, name)
        assert not getattr(a, name).flags.writeable
    for (_, gens_a, rows_a), (_, gens_b, rows_b) in zip(a.spans, b.spans):
        assert gens_a is gens_b and rows_a is rows_b and not gens_a.flags.writeable
    assert all(ca is cb and not ca.flags.writeable for ca, cb in zip(a.c, b.c))
    assert np.array_equal(a.g_rows[a.k :], b.g_rows[b.k :])
    assert not np.array_equal(a.g_rows[: a.k], b.g_rows[: b.k])
    assert a.g_rows.flags.writeable and a.deltas is not b.deltas
    # another member count is another shape
    c = sdp._SectorProgram(_damping_deltas(0.7, 0.5)[:1], 2)
    assert c.h is not a.h and len(c.h) == len(a.h) - 1


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
    # (deltas, ref_dim, tol) as the two-copy study and fig3 solve them
    cases = [
        (_two_copy_deltas(), 4, 1e-8),  # correlated
        ([pair_choi - choi(tensor(ch, base)) for ch in single], 4, 1e-8),  # half-step
        ([pair_choi - choi(tensor(base, base))], 4, 1e-7),  # tensored
        (_damping_deltas(0.25, 0.5), 2, 1e-8),  # fig3 row
        (_two_copy_deltas(), 1, 1e-8),  # the correlated Choi bound
        (_damping_deltas(0.25, 0.5), 1, 1e-8),  # a damping Choi bound
    ]
    for deltas, ref_dim, tol in cases:
        assert isinstance(sdp._program(deltas, ref_dim), sdp._SectorProgram)
        if len(deltas) > 1:
            sol = sdp._solve_ipm(sdp._program(deltas, ref_dim), tol)
        else:
            sol = sdp.solve_fixed(deltas[0], ref_dim, tol)
        assert sol.gap <= tol
        _recheck_on_full_space(sol, deltas, ref_dim)
        full = sdp._solve_ipm(sdp._Program(deltas, ref_dim), tol)
        assert max(sol.primal, full.primal) <= min(sol.dual, full.dual), (sol, full)


def test_duc_sector_bracket_overlap_property() -> None:
    properties.check_duc_sector_bracket_overlap(families=1)



def test_sector_dual_bound_is_the_full_bound_of_the_lifted_duals() -> None:
    # Sector blocks that already differ by Delta_0, and every pair dual at 0:
    # the projection must raise each pair to x-_ab - x+_ab = Delta_ab at
    # least cost, and its bound is then lambda_max(Tr_1[X1 + X2]) of the
    # lifted duals, which satisfy X1 - X2 = Delta on the full space.
    delta = _damping_deltas(0.25, 0.5)[0]
    prog = sdp._SectorProgram([delta], 2)
    sec, pairs = prog.sector, prog.pairs
    x2 = (1.0 + np.abs(delta).sum()) * np.eye(2, dtype=complex)
    x1 = x2 + delta[np.ix_(sec, sec)]
    # the member's weight, then every pair dual and the p_b duals
    scal = np.r_[1.0, np.zeros(2 * len(pairs)), 1.0, 1.0]
    duals = _grouped(prog, [x1, x2])
    bound = prog.project_dual(duals, scal)
    # the one member takes all the weight
    assert prog.certificate(np.zeros(prog.m), duals, scal)[2].tolist() == [1.0]
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
    prog = sdp._program(deltas, 1)
    assert isinstance(prog, sdp._SectorProgram) and prog.ref == 1
    sec, pairs = prog.sector, prog.pairs
    weights = np.array([3.0, 1.0])
    delta = (weights[0] * deltas[0] + weights[1] * deltas[1]) / weights.sum()
    x2 = (1.0 + np.abs(delta).sum()) * np.eye(2, dtype=complex)
    x1 = x2 + delta[np.ix_(sec, sec)]
    # the member weights, then every pair dual and the p_b dual
    scal = np.r_[weights, np.zeros(2 * len(pairs)), 1.0]
    bound = prog.project_dual(_grouped(prog, [x1, x2]), scal)
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
    sol = sdp._solve_ipm(sdp._program(deltas, 1), 1e-8)
    _recheck_on_full_space(sol, deltas, 1)
    full_sol = sdp._solve_ipm(sdp._Program(deltas, 1), 1e-8)
    assert max(sol.primal, full_sol.primal) <= min(sol.dual, full_sol.dual)
    assert abs(sol.primal - full_sol.primal) <= 4e-8



# --- real programs -------------------------------------------------------------


def test_program_takes_the_real_form_exactly_when_no_member_has_an_imaginary_entry() -> None:
    delta = _real_product_delta()
    prog = sdp._program([delta], 4)
    assert type(prog) is sdp._Program and prog.real
    assert (prog.nh, prog.m) == (136, 146)
    # one imaginary entry of 1e-300 (and its Hermitian mirror) keeps the full form
    tiny = delta.astype(complex)
    tiny[0, 1] += 1e-300j
    tiny[1, 0] -= 1e-300j
    for family in ([tiny], [delta, tiny]):
        full = sdp._program(family, 4)
        assert type(full) is sdp._Program and not full.real
        assert (full.nh, full.m) == (256, 272)
    # a qubit damping pair: m = 13 instead of 20, at reference dimension 1
    # m = 11 instead of 17
    qubit = choi(damping(1.0, 0.9)) - choi(pauli_channel(_SKEW_PAULI))
    assert [sdp._program([qubit], ref).m for ref in (2, 1)] == [13, 11]
    assert [sdp._program([_twisted(qubit, [0.0, 0.4])], ref).m for ref in (2, 1)] == [20, 17]
    # a real DUC family still solves on its sectors
    assert not _damping_deltas(0.7, 0.5)[0].imag.any()
    for ref in (2, 1):
        assert type(sdp._program(_damping_deltas(0.7, 0.5), ref)) is sdp._SectorProgram


def test_real_and_complex_programs_of_one_shape_never_share_a_stack(monkeypatch) -> None:
    """Equal n, reference dimension and member count, but one real and one
    complex form: the runner stacks each form alone, and every problem keeps
    the bits it has alone."""
    delta = choi(damping(1.0, 0.9)) - choi(pauli_channel(_SKEW_PAULI))
    twisted = _twisted(delta, [0.3, 1.1])
    progs = [sdp._program([d], 2) for d in (delta, twisted, twisted, delta)]
    assert [p.real for p in progs] == [True, False, False, True]
    assert len({(type(p), p.n, p.ref, p.k) for p in progs}) == 1
    alone = [_solution_bits(sdp._solve_ipm(p, 1e-8)) for p in progs]
    stacks = []
    solve_batch = sdp._solve_batch

    def recording(items, tols):
        stacks.append([p.real for p in items])
        return solve_batch(items, tols)

    monkeypatch.setattr(sdp, "_solve_batch", recording)

    def steps(prog):
        return (yield prog, 1e-8)

    sols = sdp._run_all([steps(p) for p in progs])
    assert sorted(stacks) == [[False, False], [True, True]]
    assert [_solution_bits(sol) for sol in sols] == alone


def _recheck_real_result(
    sol, delta: np.ndarray, d: int, tol: float, twisted_sol, asym: float = 0.0
) -> None:
    """A real Delta's result re-checked on the complex space: a real (W, rho)
    symmetric up to ``asym``, I (x) rho -+ W >= -n eps,
    Tr[Delta W] >= primal - n eps, and a distance within tol of
    ``twisted_sol``, the result on a complex Delta of equal norm."""
    eps = d * d * np.finfo(float).eps
    w, rho = sol.witness_w, sol.witness_rho
    for mat in (w, rho):
        assert mat.dtype == np.complex128
        assert not mat.imag.any() and np.abs(mat - mat.T).max() <= asym
    lift = np.kron(np.eye(d), rho)
    assert np.linalg.eigvalsh(lift - w)[0] >= -eps
    assert np.linalg.eigvalsh(lift + w)[0] >= -eps
    assert np.einsum("ab,ba->", delta, w).real >= sol.primal - eps
    assert sol.gap <= tol and twisted_sol.gap <= tol, (sol, twisted_sol)
    assert max(sol.primal, twisted_sol.primal) <= min(sol.dual, twisted_sol.dual)
    assert abs(sol.primal - twisted_sol.primal) <= tol


def test_real_program_results_recheck_on_the_complex_space(monkeypatch) -> None:
    """20 random real pairs at d = 2 and at d = 4 through the real program,
    and the real pairs that the reference iteration closes in float64 at
    d = 2 and d = 4: each result is a real symmetric (W, rho) feasible for
    the complex program, exactly symmetric from the engine, and its distance
    agrees with the complex route on a complex Delta of equal norm."""
    tol = 1e-7
    gen = helpers.rng(46)
    for d in (2, 4):
        for _ in range(20):
            a, b = helpers.random_real_channel(d, 2, gen), helpers.random_real_channel(d, 3, gen)
            delta = choi(a) - choi(b)
            prog = sdp._program([delta], d)
            assert prog.real
            twisted = _twisted(delta, 2 * np.pi * gen.uniform(size=d))
            full = sdp._program([twisted], d)
            assert twisted.imag.any() and not full.real
            _recheck_real_result(sdp._solve_ipm(prog, tol), delta, d, tol, sdp._solve_ipm(full, tol))
    stacks = _count_solves(monkeypatch)
    cases = _nearly_pure_iterated_cases() + _well_conditioned_iterated_cases()
    real = [(delta, d) for delta, d in cases if not delta.imag.any()]
    assert sorted(d for _, d in real) == [2, 2, 2, 4, 4]
    for delta, d in real:
        sol = sdp.solve_fixed(delta, d, tol)
        twisted = sdp.solve_fixed(_twisted(delta, 2 * np.pi * gen.uniform(size=d)), d, tol)
        assert stacks == [] and sol.iterations == twisted.iterations == 0
        # W is symmetrized; rho = V diag(p) V^T is symmetric up to n eps
        _recheck_real_result(sol, delta, d, tol, twisted, asym=d * d * np.finfo(float).eps)


def test_real_coordinates_are_the_leading_complex_ones_bit_for_bit() -> None:
    """extract_coords of a real symmetric t gives the leading n(n+1)/2 of the
    coordinates of t as a complex array, and expand_coords of them gives t's
    real array; the full coordinates still give a complex array."""
    gen = helpers.rng(47)
    for n in (2, 4, 16):
        t = _random_pd(n, gen, real=True)
        full = sdp.extract_coords(t.astype(complex))
        lead = sdp.extract_coords(t)
        count = n * (n + 1) // 2
        assert lead.shape == (count,) and lead.tobytes() == full[:count].tobytes()
        assert not full[count:].any()
        back = sdp.expand_coords(lead, n)
        assert back.dtype == np.float64
        assert back.tobytes() == sdp.expand_coords(full, n).real.copy().tobytes()
        npt.assert_allclose(back, t, rtol=0, atol=1e-14 * n)
        assert sdp.expand_coords(full, n).dtype == np.complex128


def _dtypes(arrays) -> set:
    return {np.dtype(a.dtype) for a in arrays}


def test_the_program_dtype_follows_the_family(monkeypatch) -> None:
    """An exactly real family's program holds float64 data (members, C
    blocks, generators, start point and Schur buffers) and its iterates stay
    float64 through a solve; a complex family, and a Delta with one 1e-300j
    entry, stay complex128. Program 3 stays complex on a real family."""
    real, cplx = np.dtype(np.float64), np.dtype(np.complex128)
    delta = _real_product_delta()
    tiny = delta.astype(complex)
    tiny[0, 1] += 1e-300j
    tiny[1, 0] -= 1e-300j
    qubit = choi(damping(1.0, 0.9)) - choi(pauli_channel(_SKEW_PAULI))
    cases = [
        ([delta], 4, real),
        ([qubit], 2, real),
        ([qubit], 1, real),
        ([tiny], 4, cplx),
        ([delta, tiny], 4, cplx),
        ([_twisted(qubit, [0.0, 0.4])], 2, cplx),
        (_damping_deltas(0.7, 0.5), 2, cplx),
    ]
    seen = []
    schur = sdp._BlockProgram.schur

    def recording(self, x_mats, z_mats, xz_scal):
        seen.append(_dtypes(x_mats + z_mats) | _dtypes(self._schur_buffers(x_mats[0].shape[:-3])[:4]))
        return schur(self, x_mats, z_mats, xz_scal)

    monkeypatch.setattr(sdp._BlockProgram, "schur", recording)
    for family, ref, dtype in cases:
        prog = sdp._program(family, ref)
        assert prog.real == (dtype == real)
        assert _dtypes([prog.deltas, *prog.c]) == {dtype}
        assert _dtypes(gens for _, gens, _ in prog.spans) == {dtype}
        y, mats, _ = prog.start()
        assert y.dtype == real and _dtypes(mats) == {dtype}
        assert _dtypes(prog._schur_buffers((1,))[:4]) == {dtype}
        seen.clear()
        sol = sdp._solve_ipm(prog, 1e-7)
        assert sol.iterations > 0 and seen and all(s == {dtype} for s in seen)
        assert _dtypes([sol.witness_w, sol.witness_rho]) == {cplx}


def test_the_reference_iteration_runs_in_float64_on_a_real_delta(monkeypatch) -> None:
    """Every iterate of a real Delta's reference iteration is a float64
    eigensolve; a complex Delta's stay complex128. Both hand back complex
    witnesses."""
    best = sdp._best_at_state
    seen = []

    def recording(delta, block, out):
        seen.append(_dtypes([delta, block]))
        return best(delta, block, out)

    monkeypatch.setattr(sdp, "_best_at_state", recording)
    for delta, d in _nearly_pure_iterated_cases() + _well_conditioned_iterated_cases():
        seen.clear()
        sol = sdp.solve_fixed(delta, d, 1e-7)
        dtype = np.dtype(np.complex128 if delta.imag.any() else np.float64)
        assert sol.iterations == 0 and seen and all(s == {dtype} for s in seen)
        assert _dtypes([sol.witness_w, sol.witness_rho]) == {np.dtype(np.complex128)}


def test_diamond_sdp_witnesses_are_complex128_on_every_route(monkeypatch) -> None:
    """Real and complex pairs alike, closed at I/d, by the reference iteration
    or by the engine: the witness state and operator are complex128."""
    stacks = _count_solves(monkeypatch)
    gen = helpers.rng(48)
    skew = pauli_channel(_SKEW_PAULI)
    u1, u2 = (unitary_qubit(*angles) for angles in ((0.4, 1.1, 2.0), (0.9, 0.3, 4.0)))
    cases = [
        # (pair, Delta real, engine runs)
        ((damping(0.5, 0.5), skew), True, False),
        ((u1, u2), False, False),
        ((damping(0.6, 0.9), skew), True, False),
        ((damping(1.0, 0.9), pauli_channel([0.7, 0.2, 0.1, 0.0])), True, True),
        ((tensor(damping(0.8, 0.7), covariant(0.2)),
          tensor(pauli_channel([0.7, 0.2, 0.1, 0.0]), pauli_channel([0.5, 0.3, 0.1, 0.1]))), True, True),
        ((helpers.random_channel(2, 2, gen), helpers.random_channel(2, 3, gen)), False, True),
    ]
    for (a, b), is_real, engine in cases:
        assert (not (choi(a) - choi(b)).imag.any()) == is_real
        stacks.clear()
        res = diamond_sdp(a, b, 1e-7)
        assert bool(stacks) == engine, (a, b)
        assert res.gap <= 1e-7
        assert _dtypes([res.witness_state, res.witness_operator]) == {np.dtype(np.complex128)}
