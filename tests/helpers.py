"""Shared deterministic random generators for the test suite."""

from __future__ import annotations

import numpy as np

from chanapprox.approx import ApproxResult, MultiCopyResult
from chanapprox.channels import Channel
from chanapprox.diamond import DiamondResult


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_density(d: int, gen: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Wishart)."""
    g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_channel(d: int, kraus_count: int, gen: np.random.Generator) -> Channel:
    """Random channel with the given Kraus rank, via a random isometry."""
    g = gen.normal(size=(d * kraus_count, d)) + 1j * gen.normal(
        size=(d * kraus_count, d)
    )
    q, _ = np.linalg.qr(g)
    return Channel(tuple(q[i * d : (i + 1) * d, :] for i in range(kraus_count)))


def random_real_channel(d: int, kraus_count: int, gen: np.random.Generator) -> Channel:
    """Random channel with real Kraus operators, via a random real isometry:
    its Choi matrix is exactly real."""
    q, _ = np.linalg.qr(gen.normal(size=(d * kraus_count, d)))
    return Channel(tuple(q[i * d : (i + 1) * d, :] for i in range(kraus_count)))


def random_simplex(k: int, gen: np.random.Generator) -> np.ndarray:
    """Uniform (Dirichlet) random point on the probability simplex."""
    return gen.dirichlet(np.ones(k))


def _fixed_witness(value: float, gap: float) -> DiamondResult:
    return DiamondResult(
        value=value,
        witness_state=np.eye(2) / 2,
        witness_operator=np.zeros((4, 4)),
        primal=value - gap / 2,
        dual=value + gap / 2,
    )


def canned_multi_copy() -> MultiCopyResult:
    """A fixed two-copy study with distances 1.25 <= 1.3 <= 1.375."""
    single = ApproxResult(
        weights=np.array([0.75, 0.25]),
        distance=1.0,
        witness=_fixed_witness(1.0, 1e-9),
        iterations=7,
    )
    correlated = ApproxResult(
        weights=np.array([0.6, 0.2, 0.2, 0.0]),
        distance=1.25,
        witness=_fixed_witness(1.25, 1e-9),
        iterations=9,
    )
    return MultiCopyResult(
        correlated=correlated,
        product_witness=_fixed_witness(1.3, 2e-9),
        product_weights=(np.array([0.7, 0.3]), np.array([0.625, 0.375])),
        tensored_witness=_fixed_witness(1.375, 3e-9),
        single=single,
    )


def random_diagonal_unitary(d: int, gen: np.random.Generator) -> Channel:
    """Conjugation by a diagonal unitary with uniform random phases."""
    return Channel((np.diag(np.exp(2j * np.pi * gen.uniform(size=d))),))


def random_damping_dephasing(d: int, gen: np.random.Generator) -> Channel:
    """Random diagonal-unitary-covariant channel: damping Kraus operators
    sqrt(B_ab) |a><b| (a != b, total rate below 0.9 out of each level)
    plus dephasing Kraus operators that are diagonal with random phases."""
    rates = gen.uniform(size=(d, d)) * (1.0 - np.eye(d))
    rates *= gen.uniform(0.0, 0.9, size=d) / rates.sum(axis=0)
    g = gen.normal(size=(d, 2)) + 1j * gen.normal(size=(d, 2))
    # row b of g has squared norm 1 - (rate out of b), so the Kraus set is trace preserving
    g *= (np.sqrt(1.0 - rates.sum(axis=0)) / np.linalg.norm(g, axis=1))[:, None]
    kraus = [np.diag(col) for col in g.T]
    for a, b in zip(*np.nonzero(rates)):
        op = np.zeros((d, d), dtype=complex)
        op[a, b] = np.sqrt(rates[a, b])
        kraus.append(op)
    return Channel(tuple(kraus))
