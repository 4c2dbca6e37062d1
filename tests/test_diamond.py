"""Tests for diamond-distance computations, bounds, and certificates."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from chanapprox import (
    alternating_lower_bound,
    choi,
    choi_trace_distance,
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
    polygon_radius,
    trace_norm,
    unitary_channel,
    unitary_qubit,
)
from chanapprox.approx import covariant_objective
from chanapprox.channels import PAULI
from chanapprox.errors import (
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


# --- diamond_sdp -------------------------------------------------------


def test_diamond_sdp_identical_channels() -> None:
    ch = damping(0.3, 0.8)
    res = diamond_sdp(ch, ch, tol=1e-7)
    assert res.value <= 1e-7
    assert res.gap <= 1e-7


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
