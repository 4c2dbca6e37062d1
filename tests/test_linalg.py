"""Tests for the dense matrix utilities."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from chanapprox import (
    HermEigen,
    dagger,
    herm_eig,
    is_hermitian,
    kron,
    partial_trace,
    spectral_norm,
    trace_norm,
)
from chanapprox.errors import (
    DimMismatchError,
    NonSquareError,
    NotHermitianError,
    RangeError,
)

import helpers


# --- kron -------------------------------------------------------------


def test_kron_identity_block_structure() -> None:
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = kron(np.eye(2), b)
    npt.assert_allclose(out[:2, :2], b)
    npt.assert_allclose(out[2:, 2:], b)
    npt.assert_allclose(out[:2, 2:], np.zeros((2, 2)))
    npt.assert_allclose(out[2:, :2], np.zeros((2, 2)))


def test_kron_sign_pattern() -> None:
    sz = np.diag([1.0, -1.0])
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = kron(sz, b)
    npt.assert_allclose(out[:2, :2], b)
    npt.assert_allclose(out[2:, 2:], -b)


def test_kron_index_formula() -> None:
    gen = helpers.rng(0)
    a = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    b = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    out = kron(a, b)
    # entry (2, 3) picks row block 1 of a, row 0 of b, column block 1, column 1
    npt.assert_allclose(out[2, 3], a[1, 1] * b[0, 1])
    npt.assert_allclose(out, np.kron(a, b))


def test_kron_mixed_product_rule() -> None:
    gen = helpers.rng(1)
    a, b, c, d = (
        gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)) for _ in range(4)
    )
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


# --- dagger -----------------------------------------------------------


def test_dagger_identity() -> None:
    npt.assert_array_equal(dagger(np.eye(2)), np.eye(2))


def test_dagger_raising_operator() -> None:
    # the gamma = 1 jump operator |0><1| maps to |1><0|
    c = np.array([[0.0, 1.0], [0.0, 0.0]])
    npt.assert_array_equal(dagger(c), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_dagger_involution() -> None:
    gen = helpers.rng(2)
    a = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    npt.assert_array_equal(dagger(dagger(a)), a)


def test_dagger_conjugates_entries() -> None:
    a = np.array([[1.0 + 2.0j, 3.0], [4.0j, 5.0 - 1.0j]])
    npt.assert_array_equal(dagger(a), a.conj().T)


# --- herm_eig ---------------------------------------------------------


def test_herm_eig_diagonal() -> None:
    res = herm_eig(np.diag([3.0, 1.0]))
    assert isinstance(res, HermEigen)
    npt.assert_allclose(res.values, [3.0, 1.0])


def test_herm_eig_pauli_x() -> None:
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = herm_eig(sx)
    npt.assert_allclose(res.values, [1.0, -1.0], atol=1e-12)


def test_herm_eig_reconstruction_and_orthonormality() -> None:
    gen = helpers.rng(3)
    g = gen.normal(size=(8, 8)) + 1j * gen.normal(size=(8, 8))
    h = g + dagger(g)
    res = herm_eig(h)
    # descending order
    assert np.all(np.diff(res.values) <= 1e-12)
    # eigenvalues sum to the trace
    npt.assert_allclose(np.sum(res.values), np.trace(h).real, atol=1e-10)
    # reconstruction
    rebuilt = res.vectors @ np.diag(res.values) @ dagger(res.vectors)
    scale = max(1.0, float(np.linalg.norm(h)))
    assert np.max(np.abs(rebuilt - h)) <= 1e-10 * scale
    # orthonormal eigenvectors
    assert np.max(np.abs(dagger(res.vectors) @ res.vectors - np.eye(8))) <= 1e-10


def test_herm_eig_rejects_non_hermitian() -> None:
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_rejects_non_finite_entries() -> None:
    for bad in (np.nan, np.inf):
        with pytest.raises(RangeError, match="NaN or infinite"):
            herm_eig(np.diag([1.0, bad]))


def test_is_hermitian_rejects_non_finite_entries_and_a_nan_or_negative_tol() -> None:
    with pytest.raises(RangeError, match="NaN or infinite"):
        is_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    for tol in (np.nan, -1e-12):
        with pytest.raises(RangeError, match="tol"):
            is_hermitian(np.eye(2), tol=tol)
    assert is_hermitian(np.eye(2), tol=0.0)


# --- trace_norm -------------------------------------------------------


def test_trace_norm_diagonal() -> None:
    npt.assert_allclose(trace_norm(np.diag([1.0, -1.0])), 2.0)


def test_trace_norm_zero() -> None:
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_singular_value_oracle() -> None:
    gen = helpers.rng(4)
    for d in (2, 3, 5):
        a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        gram = herm_eig(dagger(a) @ a)
        oracle = float(np.sum(np.sqrt(np.clip(gram.values, 0.0, None))))
        npt.assert_allclose(trace_norm(a), oracle, atol=1e-10)


def test_trace_norm_dominates_trace() -> None:
    gen = helpers.rng(5)
    for _ in range(10):
        a = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        assert trace_norm(a) >= abs(np.trace(a)) - 1e-12


def test_trace_norm_unitary_invariance() -> None:
    gen = helpers.rng(6)
    a = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    u = helpers.random_unitary(4, gen)
    v = helpers.random_unitary(4, gen)
    npt.assert_allclose(trace_norm(u @ a @ v), trace_norm(a), atol=1e-9)


def test_trace_norm_rejects_non_square() -> None:
    with pytest.raises(NonSquareError):
        trace_norm(np.zeros((2, 3)))


def test_trace_norm_rejects_non_finite_entries() -> None:
    # Hermitian and non-Hermitian inputs alike, before any eigen or SVD call
    for a in (np.diag([np.nan, 1.0]), np.array([[0.0, np.inf], [0.0, 0.0]])):
        with pytest.raises(RangeError, match="NaN or infinite"):
            trace_norm(a)


# --- partial_trace ----------------------------------------------------


def test_partial_trace_product_states() -> None:
    gen = helpers.rng(7)
    rho = helpers.random_density(2, gen)
    sigma = helpers.random_density(3, gen)
    prod = kron(rho, sigma)
    npt.assert_allclose(partial_trace(prod, (2, 3), 2), rho, atol=1e-12)
    npt.assert_allclose(partial_trace(prod, (2, 3), 1), sigma, atol=1e-12)


def test_partial_trace_entangled_vector() -> None:
    # tracing either side of the unnormalized maximally entangled projector
    # gives the identity
    eta = np.zeros(4)
    eta[0] = eta[3] = 1.0
    proj = np.outer(eta, eta)
    npt.assert_allclose(partial_trace(proj, (2, 2), 1), np.eye(2), atol=1e-12)
    npt.assert_allclose(partial_trace(proj, (2, 2), 2), np.eye(2), atol=1e-12)


def test_partial_trace_preserves_trace() -> None:
    gen = helpers.rng(8)
    m = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
    npt.assert_allclose(np.trace(partial_trace(m, (2, 3), 1)), np.trace(m))
    npt.assert_allclose(np.trace(partial_trace(m, (2, 3), 2)), np.trace(m))


def test_partial_trace_rejects_bad_dims() -> None:
    with pytest.raises(DimMismatchError):
        partial_trace(np.eye(6), (2, 2), 1)
    with pytest.raises(DimMismatchError, match="traced_factor"):
        partial_trace(np.eye(6), (2, 3), 3)


def test_partial_trace_rejects_non_finite_entries() -> None:
    m = np.eye(4, dtype=complex)
    m[1, 2] = complex(np.nan, 0.0)
    with pytest.raises(RangeError, match="NaN or infinite"):
        partial_trace(m, (2, 2), 1)


# --- spectral_norm ----------------------------------------------------


def test_spectral_norm_identity() -> None:
    npt.assert_allclose(spectral_norm(np.eye(4)), 1.0)


def test_spectral_norm_diagonal() -> None:
    npt.assert_allclose(spectral_norm(np.diag([2.0, -3.0])), 3.0)


def test_spectral_norm_gram_oracle() -> None:
    gen = helpers.rng(9)
    a = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    top = float(herm_eig(dagger(a) @ a).values[0])
    npt.assert_allclose(spectral_norm(a) ** 2, top, rtol=1e-10)


def test_spectral_norm_rejects_non_finite_entries() -> None:
    for bad in (np.nan, -np.inf):
        with pytest.raises(RangeError, match="NaN or infinite"):
            spectral_norm(np.array([[1.0, 0.0], [bad, 1.0]]))
