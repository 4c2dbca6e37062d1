"""Tests for diamond-distance computations, bounds, and certificates."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from chanapprox import (
    Channel,
    alternating_lower_bound,
    choi,
    choi_trace_distance,
    compose,
    covariant,
    d_i_unitary,
    damping,
    diamond_sdp,
    diamond_unitary,
    discrimination_probability,
    fixed_input_bound,
    identity,
    kron,
    pauli_channel,
    pauli_unitaries,
    polygon_radius,
    tensor,
    trace_norm,
    unitary_channel,
    unitary_qubit,
)
from chanapprox import approx, cli, diamond, sdp
from chanapprox.approx import approx_bounds, covariant_objective, optimal_convex_approx
from chanapprox.channels import PAULI
from chanapprox.errors import (
    DimMismatchError,
    DimTooLargeError,
    InvalidStateError,
    NotUnitaryError,
    RangeError,
)

import helpers
import properties


# --- diamond_unitary ---------------------------------------------------


def test_diamond_unitary_equal_inputs() -> None:
    gen = helpers.rng(40)
    u = helpers.random_unitary(2, gen)
    assert diamond_unitary(u, u) == 0.0


def test_diamond_unitary_orthogonal_pair() -> None:
    npt.assert_allclose(diamond_unitary(PAULI[1], np.eye(2)), 2.0)


def test_diamond_unitary_qubit_closed_form() -> None:
    gen = helpers.rng(41)
    for _ in range(10):
        a = gen.uniform(0, np.pi / 2)
        b, d = gen.uniform(0, 2 * np.pi, size=2)
        from chanapprox import qubit_unitary_matrix

        val = diamond_unitary(qubit_unitary_matrix(a, b, d), np.eye(2))
        expected = 2.0 * np.sqrt(1.0 - np.cos(a) ** 2 * np.cos(b) ** 2)
        npt.assert_allclose(val, expected, atol=1e-12)


def test_diamond_unitary_qutrit_chord() -> None:
    theta = 1.1
    val = diamond_unitary(np.diag([1.0, 1.0, np.exp(1j * theta)]), np.eye(3))
    npt.assert_allclose(val, 2.0 * np.sin(theta / 2), atol=1e-12)


def test_diamond_unitary_qutrit_origin_enclosed() -> None:
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    npt.assert_allclose(diamond_unitary(np.diag(roots), np.eye(3)), 2.0, atol=1e-12)


def test_diamond_unitary_rejects_non_unitary() -> None:
    with pytest.raises(NotUnitaryError):
        diamond_unitary(np.diag([1.0, 0.5]), np.eye(2))
    for bad in (np.full((2, 2), np.nan), np.diag([1.0, np.inf])):
        with pytest.raises(NotUnitaryError):
            diamond_unitary(bad, np.eye(2))
        with pytest.raises(NotUnitaryError):
            diamond_unitary(np.eye(2), bad)
    with pytest.raises(DimMismatchError):
        diamond_unitary(np.eye(2), np.eye(3))
    with pytest.raises(NotUnitaryError):
        diamond_unitary(np.eye(2, 3), np.eye(2, 3))


# --- polygon_radius ----------------------------------------------------


def test_polygon_radius_singleton() -> None:
    npt.assert_allclose(polygon_radius([np.exp(0.3j)]).r, 1.0, atol=1e-12)


def test_polygon_radius_antipodal() -> None:
    npt.assert_allclose(polygon_radius([1.0, -1.0]).r, 0.0, atol=1e-12)


def test_polygon_radius_chord() -> None:
    theta = 0.8
    npt.assert_allclose(
        polygon_radius([1.0, np.exp(1j * theta)]).r, np.cos(theta / 2), atol=1e-12
    )


def test_polygon_radius_sampling_oracle() -> None:
    gen = helpers.rng(42)
    grid = np.linspace(0.0, 1.0, 60)
    for _ in range(5):
        verts = np.exp(1j * gen.uniform(0, 2 * np.pi, size=3))
        r = polygon_radius(list(verts)).r
        sampled = min(
            abs(a * verts[0] + b * (1 - a) * verts[1] + (1 - b) * (1 - a) * verts[2])
            for a in grid
            for b in grid
        )
        # the sampled hull point is feasible, so it upper-bounds the true
        # minimum, and the grid is fine enough to get within 0.05
        assert r <= sampled + 1e-9
        assert sampled <= r + 0.05


def test_polygon_radius_reads_only_phases_and_rejects_non_finite_vertices() -> None:
    assert polygon_radius([3.0, -0.5]).r == polygon_radius([1.0, -1.0]).r
    for verts in ([np.nan], [1.0, 1j, np.inf], [1.0, complex(0.0, -np.inf)], [1.0, np.nan * 1j]):
        with pytest.raises(RangeError, match="finite"):
            polygon_radius(verts)
    with pytest.raises(RangeError, match="at least one vertex"):
        polygon_radius([])


# --- d_i_unitary -------------------------------------------------------


def test_d_i_unitary_examples() -> None:
    assert d_i_unitary(0.0, 0.0) == 0.0
    npt.assert_allclose(d_i_unitary(0.0, np.pi / 6), 1.0, atol=1e-12)
    npt.assert_allclose(d_i_unitary(np.pi / 4, np.pi / 4), np.sqrt(3.0), atol=1e-12)


def test_d_i_unitary_matches_diamond_to_identity() -> None:
    gen = helpers.rng(43)
    for _ in range(5):
        a = gen.uniform(0, np.pi / 2)
        b = gen.uniform(0, 2 * np.pi)
        val = diamond_sdp(unitary_qubit(a, b, 0.0), identity(2), tol=1e-8).value
        npt.assert_allclose(val, d_i_unitary(a, b), atol=1e-7)


def test_d_i_unitary_range_checks() -> None:
    with pytest.raises(RangeError):
        d_i_unitary(-0.1, 0.0)
    with pytest.raises(RangeError):
        d_i_unitary(0.0, 7.0)


# --- choi_trace_distance ----------------------------------------------


def test_choi_trace_distance_equal_channels() -> None:
    ch = damping(0.4, 0.6)
    assert choi_trace_distance(ch, ch) == 0.0
    with pytest.raises(DimMismatchError):
        choi_trace_distance(ch, identity(3))


def test_choi_trace_distance_definition() -> None:
    gen = helpers.rng(44)
    a = helpers.random_channel(2, 2, gen)
    b = helpers.random_channel(2, 2, gen)
    npt.assert_allclose(
        choi_trace_distance(a, b), trace_norm(choi(a) - choi(b)) / 2, atol=1e-12
    )


def test_choi_trace_distance_covariant_closed_form() -> None:
    gen = helpers.rng(45)
    for _ in range(10):
        a = gen.uniform(0, np.pi / 2)
        b, dl = gen.uniform(0, 2 * np.pi, size=2)
        p = gen.uniform(0, 1)
        val = choi_trace_distance(unitary_qubit(a, b, dl), covariant(p))
        x = d_i_unitary(a, b)
        npt.assert_allclose(val, covariant_objective(x, p), atol=1e-10)


def test_choi_trace_distance_lower_bounds_diamond() -> None:
    gen = helpers.rng(46)
    for _ in range(5):
        a = helpers.random_channel(2, 2, gen)
        b = helpers.random_channel(2, 3, gen)
        res = diamond_sdp(a, b, tol=1e-7)
        assert choi_trace_distance(a, b) <= res.value + 1e-7


# --- fixed_input_bound -------------------------------------------------


def test_fixed_input_bound_damping_vs_pauli_closed_forms() -> None:
    gen = helpers.rng(47)
    ground = np.diag([1.0, 0.0])
    excited = np.diag([0.0, 1.0])
    for _ in range(10):
        q, gamma = gen.uniform(0, 1, size=2)
        p = helpers.random_simplex(4, gen)
        g = damping(q, gamma)
        pc = pauli_channel(p)
        npt.assert_allclose(
            fixed_input_bound(g, pc, ground),
            2 * abs(gamma * (1 - q) - (p[1] + p[2])),
            atol=1e-12,
        )
        npt.assert_allclose(
            fixed_input_bound(g, pc, excited),
            2 * abs(gamma * q - (p[1] + p[2])),
            atol=1e-12,
        )


def test_fixed_input_bound_equal_channels() -> None:
    ch = covariant(0.3)
    state = helpers.random_density(2, helpers.rng(48))
    assert fixed_input_bound(ch, ch, state) <= 1e-14


def test_fixed_input_bound_below_diamond() -> None:
    gen = helpers.rng(49)
    ground = np.diag([1.0, 0.0])
    excited = np.diag([0.0, 1.0])
    for _ in range(5):
        a = helpers.random_channel(2, 2, gen)
        b = helpers.random_channel(2, 2, gen)
        res = diamond_sdp(a, b, tol=1e-7)
        best = max(
            fixed_input_bound(a, b, ground), fixed_input_bound(a, b, excited)
        )
        assert best <= res.value + 1e-7


def test_fixed_input_bound_rejects_invalid_state() -> None:
    ch = identity(2)
    with pytest.raises(InvalidStateError):
        fixed_input_bound(ch, ch, np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidStateError):
        fixed_input_bound(ch, ch, np.diag([0.7, 0.7]))
    with pytest.raises(InvalidStateError):
        fixed_input_bound(ch, ch, np.diag([1.5, -0.5]))
    with pytest.raises(InvalidStateError, match="shape"):
        fixed_input_bound(ch, ch, np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(DimMismatchError):
        fixed_input_bound(ch, identity(3), np.diag([1.0, 0.0]))


def test_fixed_input_bound_rejects_non_finite_states() -> None:
    # NaN passes the Hermiticity, trace and eigenvalue checks' comparisons,
    # and inf entries would reach them through inf - inf
    ch = identity(2)
    for bad in (np.nan, np.inf, -np.inf):
        for where in ((0, 0), (0, 1)):
            state = np.diag([1.0, 0.0]).astype(complex)
            state[where] = bad
            with pytest.raises(InvalidStateError, match="NaN or infinite"):
                fixed_input_bound(ch, ch, state)


# --- diamond_sdp -------------------------------------------------------


def test_diamond_sdp_identical_channels() -> None:
    ch = damping(0.3, 0.8)
    res = diamond_sdp(ch, ch, tol=1e-7)
    assert res.value <= 1e-7
    assert res.gap <= 1e-7


def test_a_near_identical_pair_gets_its_true_bracket() -> None:
    """A pair 2e-13 apart lies within approx's exact-member floor, but a
    single distance has no zero shortcut: the bracket at I/d holds it."""
    res = diamond_sdp(unitary_qubit(1e-13, 0.0, 0.0), identity(2))
    assert 0.0 < res.primal <= 2e-13 <= res.dual <= res.primal + 1e-7
    assert res.primal <= res.value <= res.dual


def test_zero_test_prefilter_keeps_the_trace_norm_floor(monkeypatch) -> None:
    """The exact-member test skips ``trace_norm`` only where the Frobenius
    norm proves the trace norm above approx's floor (||.||_F <= ||.||_1). A
    Delta whose Frobenius norm is below the floor and whose trace norm is
    above it is not zero, alone (a single distance has no floor) or as the
    one member of an approximating set; an exact member still gives the
    zero result, and NaN or inf still reaches the finite-input guard."""
    delta = np.diag([0.6e-12, 0.6e-12, 0.0, 0.0]).astype(complex)
    assert np.linalg.norm(delta) < approx._ZERO_TRACE_NORM < trace_norm(delta)
    res = diamond._diamond_of_delta(delta, 2, 1e-7)
    assert res.primal >= 0.5e-12 and res.value > 0.0
    for bad in (np.nan, np.inf):
        with pytest.raises(RangeError, match="NaN or infinite"):
            diamond._diamond_of_delta(np.full((4, 4), bad, dtype=complex), 2, 1e-7)
    exact = optimal_convex_approx(identity(2), [unitary_channel(PAULI[1]), identity(2)], 1e-6)
    assert exact.distance == 0.0 and exact.weights.tolist() == [0.0, 1.0]
    assert not exact.witness.witness_operator.any()
    monkeypatch.setattr(approx, "_simplex_deltas", lambda target, members: delta[None])
    res = optimal_convex_approx(identity(2), [identity(2)], 1e-6)
    assert res.distance >= 0.5e-12 and res.witness.witness_operator.any()


def test_diamond_sdp_matches_unitary_closed_form() -> None:
    gen = helpers.rng(50)
    for _ in range(20):
        a = gen.uniform(0, np.pi / 2)
        b, d = gen.uniform(0, 2 * np.pi, size=2)
        res = diamond_sdp(unitary_qubit(a, b, d), identity(2), tol=1e-8)
        npt.assert_allclose(res.value, d_i_unitary(a, b), atol=1e-7)


def test_diamond_sdp_matches_covariant_closed_form() -> None:
    gen = helpers.rng(51)
    for _ in range(5):
        a = gen.uniform(0, np.pi / 2)
        b, dl = gen.uniform(0, 2 * np.pi, size=2)
        p = gen.uniform(0, 1)
        res = diamond_sdp(unitary_qubit(a, b, dl), covariant(p), tol=1e-8)
        npt.assert_allclose(
            res.value, covariant_objective(d_i_unitary(a, b), p), atol=1e-7
        )


def _log_solves(monkeypatch) -> list:
    """Log the program class of every stack that reaches the engine."""
    solve = sdp._solve_batch
    log = []

    def logged(progs, tols):
        log.append(type(progs[0]).__name__)
        return solve(progs, tols)

    monkeypatch.setattr(sdp, "_solve_batch", logged)
    return log


def _log_calls(monkeypatch, name: str, log: list) -> list:
    """Append ``name`` to ``log`` at every call of ``sdp``'s function ``name``."""
    fn = getattr(sdp, name)

    def logged(*args):
        log.append(name)
        return fn(*args)

    monkeypatch.setattr(sdp, name, logged)
    return log


def test_closed_form_census_of_solves(monkeypatch, capsys) -> None:
    """Qubit unitary pairs, unitary-vs-covariant pairs and fig1 rows close at
    the maximally mixed reference and reach the engine 0 times. A damping vs
    Pauli pair closes in the reference iteration, both as ``solve_fixed`` of
    its Choi difference and through ``diamond_sdp``. A d = 4 unitary product
    closes in the reference iteration as ``solve_fixed`` of its Choi
    difference, which carries no Kraus operators, and in the unitary-pair
    bracket through ``diamond_sdp``, which runs no reference iteration. None
    of these reaches the engine, nor does the default fig1 sweep, which asks
    for one stacked bracket per window of rows, fig2 or the Pauli-set
    bounds. Pairs whose optimal reference state is rank deficient keep their
    one solve each."""
    gen = helpers.rng(57)
    unitaries = [unitary_qubit(*gen.uniform(0.0, np.pi / 2, size=3)) for _ in range(8)]
    closing = list(zip(unitaries[:4], unitaries[4:]))
    closing += [(u, covariant(p)) for u, p in zip(unitaries, gen.uniform(0.0, 1.0, size=4))]
    log = _log_solves(monkeypatch)
    for a, b in closing:
        assert sdp.solve_fixed(choi(a) - choi(b), 2, 1e-9).iterations == 0
        assert diamond_sdp(a, b, 1e-9).gap <= 1e-9
    rows = sdp._run_all([cli._fig1_row((x, 1e-9)) for x in np.linspace(0.0, 2.0, 9)])
    assert log == []
    for x, analytic, _, distance, gap in rows:
        assert gap <= 1e-9 and abs(distance - analytic) <= 1e-9, x
    # the default fig1 grid asks for one stacked bracket per window of rows,
    # and fig2 and the Pauli-set bounds take no solve either
    brackets = _log_calls(monkeypatch, "_mixed_reference_solution", [])
    assert cli.main(["fig1"]) == cli.EXIT_OK
    assert len(brackets) == math.ceil(201 / sdp._MAX_BATCH) == 4
    assert cli.main(["fig2", "--grid", "5x5"]) == cli.EXIT_OK
    # the fig2 rows' Pauli-set brackets, and the bracket of the near member
    # at alpha = 0, beta = pi/2 (Z up to a roundoff phase), whose upper side
    # is its dual
    assert len(brackets) == 6
    target = unitary_qubit(0.43, 0.91, 0.27)
    res = optimal_convex_approx(target, pauli_unitaries(), 1e-6)
    approx_bounds(target, pauli_unitaries(), res.distance)
    capsys.readouterr()
    assert log == []
    u1, u2, r1, r2 = (unitary_qubit(*angles) for angles in gen.uniform(0.0, 1.5, size=(4, 3)))
    skew = pauli_channel([0.7, 0.2, 0.1, 0.0])
    iterated = [
        (damping(1.0, 0.5), skew, 2),
        (tensor(u1, u2), tensor(compose(u1, r1), compose(u2, r2)), 4),
    ]
    iterations = _log_calls(monkeypatch, "_reference_iteration", [])
    for a, b, d in iterated:
        log.clear()
        assert sdp.solve_fixed(choi(a) - choi(b), d, 1e-7).iterations == 0
        assert diamond_sdp(a, b, 1e-7).gap <= 1e-7
        assert log == []
    # one iteration for each solve_fixed, one for the damping pair's diamond_sdp
    assert len(iterations) == 3
    iterations.clear()
    assert diamond_sdp(*iterated[1][:2], 1e-7).gap <= 1e-12
    assert log == [] and iterations == []
    opened = [
        (damping(1.0, 0.9), skew, 2),
        (tensor(damping(1.0, 0.9), identity(2)), tensor(skew, identity(2)), 4),
    ]
    for a, b, d in opened:
        log.clear()
        assert sdp.solve_fixed(choi(a) - choi(b), d, 1e-7).iterations > 0
        assert diamond_sdp(a, b, 1e-7).gap <= 1e-7
        assert log == ["_Program", "_Program"]


# --- the unitary-pair bracket ------------------------------------------


def _pair_upper(u: np.ndarray, v: np.ndarray, theta: float) -> float:
    """The upper side of the unitary pair (U, V) at the phase theta, from U,
    V and theta alone: 2 sqrt(1 - m^2), m = lambda_min of H = (e^-i theta W
    + e^i theta W^H) / 2 with W = V^H U, since |Tr[sigma W]| >= Tr[sigma H]
    >= m for every state sigma; 2 where m <= 0."""
    h = np.exp(-1j * theta) * (v.conj().T @ u)
    m = np.linalg.eigvalsh(0.5 * (h + h.conj().T))[0]
    return 2.0 * float(np.sqrt(1.0 - m * m)) if m > 0.0 else 2.0


def _check_pair_result(a, b, u, v, res, slack: float = 0.0) -> None:
    """Re-check a result of the unitary-pair bracket for the channels a, b
    whose Kraus operators have the polar factors u, v. Upper side: from u, v
    and the phase theta of Tr[rho^T V^H U] at the returned state, with one
    eigvalsh, to n eps, plus the defect allowance ``slack``. Lower side: the
    returned W attains the primal and is feasible at the returned rho."""
    n, eps = u.shape[0], np.finfo(float).eps
    rho, w = res.witness_state, res.witness_operator
    theta = float(np.angle(np.trace(rho.T @ v.conj().T @ u)))
    assert res.dual >= _pair_upper(u, v, theta) + slack - n * eps
    delta = choi(a) - choi(b)
    assert abs(np.trace(delta @ w).real - res.primal) <= n * n * eps
    for sign in (1.0, -1.0):
        assert np.linalg.eigvalsh(np.kron(np.eye(n), rho) - sign * w)[0] >= -n * n * eps
    assert res.primal <= res.dual


def _pair_routes(monkeypatch) -> list:
    """Log the unitary-pair brackets, the reference iterations and the
    engine stacks of the calls that follow."""
    log = _log_solves(monkeypatch)
    for name in ("_unitary_pair_solution", "_reference_iteration"):
        _log_calls(monkeypatch, name, log)
    return log


def _assert_pair_bracket(log: list, u, v, distance: float) -> None:
    """diamond_sdp of the unitary channels u, v at tol 1e-9 closes in the
    unitary-pair bracket (``log`` from ``_pair_routes``) at ``distance``,
    within 1e-12, and re-checks."""
    a, b = unitary_channel(u), unitary_channel(v)
    log.clear()
    res = diamond_sdp(a, b, 1e-9)
    assert log == ["_unitary_pair_solution"]
    assert res.gap <= 1e-12 and abs(res.value - distance) <= 1e-12
    _check_pair_result(a, b, u, v, res)


def test_unitary_pair_with_the_origin_inside_the_hull_is_at_distance_two(monkeypatch) -> None:
    # the phases 0, 2, 4, 5 leave no gap of pi: the bracket mixes a triangle
    # of eigenvectors around 0, and the upper side is 2
    gen = helpers.rng(58)
    basis = helpers.random_unitary(4, gen)
    w = basis @ np.diag(np.exp(1j * np.array([0.0, 2.0, 4.0, 5.0]))) @ basis.conj().T
    v = helpers.random_unitary(4, gen)
    _assert_pair_bracket(_pair_routes(monkeypatch), v @ w, v, 2.0)


def test_unitary_pair_with_a_degenerate_w(monkeypatch) -> None:
    # W = diag(1, 1, 1, e^{i phi}) in a random basis: the nearest hull point
    # is the midpoint of 1 and e^{i phi}, on one eigenvector of the threefold
    # eigenvalue. (diag(1, 1, e^{i phi}, e^{i phi}) puts that midpoint at
    # Tr W / 4, so it closes at the maximally mixed reference instead.)
    gen = helpers.rng(59)
    phi = 1.0
    basis = helpers.random_unitary(4, gen)
    w = basis @ np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]) @ basis.conj().T
    v = helpers.random_unitary(4, gen)
    _assert_pair_bracket(_pair_routes(monkeypatch), v @ w, v, 2.0 * np.sin(phi / 2.0))
    assert abs(diamond_unitary(v @ w, v) - 2.0 * np.sin(phi / 2.0)) <= 1e-12


def test_qutrit_unitary_pair_closes_in_the_pair_bracket(monkeypatch) -> None:
    gen = helpers.rng(60)
    log = _pair_routes(monkeypatch)
    for _ in range(4):
        u, v = helpers.random_unitary(3, gen), helpers.random_unitary(3, gen)
        _assert_pair_bracket(log, u, v, diamond_unitary(u, v))


def test_scaled_kraus_operator_adds_its_defect_to_the_upper_side(monkeypatch) -> None:
    # K = (1 + delta) U is inside Channel's completeness tolerance of 1e-9 d
    # (||K^H K - I||_F = 4 delta (1 + delta / 2) at d = 4), yet its distance
    # from V exceeds the unitary pair's by about delta times it: a bracket
    # without the allowance delta (2 + delta) would put its upper side below
    # its lower one
    gen = helpers.rng(61)
    scale = 9e-10
    u, v = helpers.random_unitary(4, gen), helpers.random_unitary(4, gen)
    a, b = Channel(((1.0 + scale) * u,)), unitary_channel(v)
    log = _pair_routes(monkeypatch)
    res = diamond_sdp(a, b, 1e-7)
    assert log == ["_unitary_pair_solution"]
    assert res.gap <= 1e-7
    assert res.primal >= diamond_unitary(u, v) * (1.0 + 0.5 * scale)
    _check_pair_result(a, b, u, v, res, slack=scale * (2.0 + scale))


def test_diamond_sdp_symmetry() -> None:
    gen = helpers.rng(52)
    a = helpers.random_channel(2, 2, gen)
    b = helpers.random_channel(2, 2, gen)
    ab = diamond_sdp(a, b, tol=1e-8).value
    ba = diamond_sdp(b, a, tol=1e-8).value
    npt.assert_allclose(ab, ba, atol=2e-8)


def test_diamond_sdp_triangle_inequality() -> None:
    gen = helpers.rng(53)
    tol = 1e-7
    for _ in range(3):
        a = helpers.random_channel(2, 2, gen)
        b = helpers.random_channel(2, 2, gen)
        c = helpers.random_channel(2, 2, gen)
        d_ab = diamond_sdp(a, b, tol=tol).value
        d_bc = diamond_sdp(b, c, tol=tol).value
        d_ac = diamond_sdp(a, c, tol=tol).value
        assert d_ac <= d_ab + d_bc + 3 * tol


def test_diamond_sdp_pauli_pair_equality() -> None:
    # for Bell-diagonal Choi differences the Choi lower bound is tight
    gen = helpers.rng(54)
    for _ in range(5):
        p = helpers.random_simplex(4, gen)
        q = helpers.random_simplex(4, gen)
        a, b = pauli_channel(p), pauli_channel(q)
        res = diamond_sdp(a, b, tol=1e-8)
        npt.assert_allclose(res.value, np.sum(np.abs(p - q)), atol=1e-7)
        npt.assert_allclose(res.value, choi_trace_distance(a, b), atol=1e-7)


def test_diamond_sdp_witness_invariants() -> None:
    gen = helpers.rng(55)
    a = helpers.random_channel(2, 3, gen)
    b = helpers.random_channel(2, 2, gen)
    res = diamond_sdp(a, b, tol=1e-8)
    rho = res.witness_state
    # valid density operator
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-8
    npt.assert_allclose(np.trace(rho).real, 1.0, atol=1e-8)
    assert float(np.linalg.eigvalsh(rho)[0]) >= -1e-8
    # the witness operator attains the primal objective
    delta = choi(a) - choi(b)
    npt.assert_allclose(
        float(np.trace(delta @ res.witness_operator).real), res.primal, atol=1e-8
    )
    # bounds bracket the value with a certified gap
    assert res.primal <= res.value <= res.dual
    assert res.gap <= 1e-8
    # sandwiching the Choi difference by the witness state recovers the
    # primal as a trace norm
    vals, vecs = np.linalg.eigh(rho)
    sqrt_rho = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    xi = kron(np.eye(2), sqrt_rho)
    npt.assert_allclose(trace_norm(xi @ delta @ xi), res.primal, atol=1e-7)


def test_diamond_sdp_rejects_large_dims() -> None:
    with pytest.raises(DimTooLargeError):
        diamond_sdp(identity(5), identity(5), tol=1e-7)
    # approximations take the same cap, checked before any Choi matrix
    target, members = covariant(0.3, 5), [identity(5), covariant(0.6, 5)]
    with pytest.raises(DimTooLargeError, match="dimension 5"):
        optimal_convex_approx(target, members, 1e-6)
    with pytest.raises(DimTooLargeError, match="dimension 5"):
        approx_bounds(target, members, 0.5)


def test_diamond_sdp_rejects_tiny_tolerance() -> None:
    for bad_tol in (1e-10, float("nan"), float("inf")):
        with pytest.raises(RangeError):
            diamond_sdp(identity(2), identity(2), tol=bad_tol)


def test_diamond_sdp_unitary_invariance() -> None:
    properties.check_distance_unitary_invariance(pairs=3)


# --- alternating lower bound -------------------------------------------


def test_alternating_lower_bound_stays_below_primal() -> None:
    gen = helpers.rng(56)
    for _ in range(4):
        a = helpers.random_channel(2, 2, gen)
        b = helpers.random_channel(2, 2, gen)
        res = diamond_sdp(a, b, tol=1e-7)
        lb = alternating_lower_bound(a, b)
        assert lb <= res.primal + 1e-7
        # it should also be a decent bound, not vacuous
        assert lb >= choi_trace_distance(a, b) - 1e-6
    with pytest.raises(DimMismatchError):
        alternating_lower_bound(identity(2), identity(3))
    # restarts and sweeps are integers >= 1 and seed an integer >= 0: a NaN,
    # a float, a bool or a count below 1 raises RangeError instead of
    # running once or failing inside NumPy
    nan = float("nan")
    bad = {"restarts": (nan, -5, 0, 2.0), "sweeps": (nan, 0, True), "seed": (nan, -1, 1.5)}
    for name, values in bad.items():
        for value in values:
            with pytest.raises(RangeError, match=f"^{name}="):
                alternating_lower_bound(a, b, **{name: value})
    lb = alternating_lower_bound(a, b, restarts=np.int64(2), sweeps=1, seed=3)
    assert 0.0 <= lb <= res.primal + 1e-7


# --- discrimination_probability -----------------------------------------


def test_discrimination_probability_examples() -> None:
    assert discrimination_probability(0.0) == 0.5
    npt.assert_allclose(discrimination_probability(2.0), 1.0)
    npt.assert_allclose(
        discrimination_probability(np.sqrt(3.0) / 2), 0.5 + np.sqrt(3.0) / 8
    )


def test_discrimination_probability_range() -> None:
    with pytest.raises(RangeError):
        discrimination_probability(-0.1)
    with pytest.raises(RangeError):
        discrimination_probability(2.1)
