"""Dense complex linear algebra primitives used throughout the package.

All matrices are numpy arrays of complex dtype. Tolerances are relative to
the Frobenius norm with a floor of 1, since every operator handled here has
entries of order one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimMismatchError, NonSquareError, NotHermitianError, RangeError

__all__ = [
    "HermEigen",
    "kron",
    "dagger",
    "herm_eig",
    "trace_norm",
    "spectral_norm",
    "partial_trace",
]

_HERM_TOL = 1e-10


class HermEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    values: real eigenvalues sorted in descending order.
    vectors: unitary matrix whose column j is the eigenvector of values[j].
    """

    values: np.ndarray
    vectors: np.ndarray


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(a, b)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def _require_finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise RangeError("matrix has NaN or infinite entries")
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return _require_finite(a)


def is_hermitian(a: np.ndarray, tol: float = _HERM_TOL) -> bool:
    """True if a is Hermitian within tol, relative to max(1, ||a||_F).

    A non-square a raises NonSquareError; a NaN or infinite entry of a, or
    a NaN or negative tol, raises RangeError.
    """
    if not tol >= 0.0:
        raise RangeError(f"tol must be nonnegative, got {tol!r}")
    a = _require_square(a)
    scale = max(1.0, np.linalg.norm(a))
    return np.linalg.norm(a - a.conj().T) <= tol * scale


def herm_eig(h: np.ndarray) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized internally; asymmetry beyond 1e-10 (relative
    Frobenius, floored at 1) raises NotHermitianError, and a non-square or
    non-finite input is rejected as by ``is_hermitian``.
    """
    h = np.asarray(h)
    if not is_hermitian(h):
        raise NotHermitianError("matrix is not Hermitian within 1e-10")
    sym = 0.5 * (h + h.conj().T)
    values, vectors = np.linalg.eigh(sym)
    return HermEigen(values[::-1].copy(), vectors[:, ::-1].copy())


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values ||a||_1.

    For Hermitian input this reduces to the sum of absolute eigenvalues,
    which is the cheaper and more accurate path.  A non-square or
    non-finite a is rejected as by ``is_hermitian``.
    """
    a = np.asarray(a)
    if is_hermitian(a):
        return float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (a + a.conj().T)))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a; a NaN or infinite entry raises RangeError."""
    return float(np.linalg.norm(_require_finite(np.asarray(a)), 2))


def _nearest_hull_point(phases: np.ndarray):
    """The point of the convex hull of the unit-circle points e^{i phases}
    nearest the origin, as (point, idx, weights): point is the convex
    combination of the points ``idx`` (indices into ``phases``) with the
    weights ``weights``.

    Outside the hull the point lies on the chord between two neighbouring
    phases, at weights (1 - t, t). When no gap between neighbouring phases
    reaches pi, the origin lies inside and the point is 0j, the mixture of
    the triangle around it at barycentric weights: a point's weight is the
    sine of the arc between the other two.
    """
    order = np.argsort(phases)
    phases = phases[order]
    gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
    if gaps.max() < np.pi:
        # the last phase within pi of the first and the next one bound a
        # triangle with the first, none of whose arcs exceeds pi
        j = int(np.searchsorted(phases - phases[0], np.pi)) - 1
        tri = phases[[0, j, j + 1]]
        weights = np.sin(np.roll(tri, -2) - np.roll(tri, -1))
        return 0j, order[[0, j, j + 1]], weights / weights.sum()
    pts = np.exp(1j * phases)
    point, best = np.inf, None
    for i, (a, b) in enumerate(zip(pts, np.roll(pts, -1))):
        seg = b - a
        den = abs(seg) ** 2
        t = 0.0 if den == 0.0 else min(1.0, max(0.0, -(a.conjugate() * seg).real / den))
        if abs(a + t * seg) < abs(point):
            point, best = a + t * seg, (i, t)
    i, t = best
    return point, order[[i, (i + 1) % len(order)]], np.array([1.0 - t, t])


def partial_trace(
    m: np.ndarray, factor_dims: tuple[int, int], traced_factor: int
) -> np.ndarray:
    """Partial trace of a matrix on a two-factor tensor-product space.

    factor_dims gives the dimensions (d1, d2) of the factors; traced_factor
    selects the factor to trace out, counted from 1.  A non-square m raises
    NonSquareError, and a NaN or infinite entry of m RangeError.
    """
    m = _require_square(m)
    d1, d2 = factor_dims
    if d1 * d2 != m.shape[0]:
        raise DimMismatchError(
            f"factor dims {factor_dims} do not multiply to matrix dim {m.shape[0]}"
        )
    t = m.reshape(d1, d2, d1, d2)
    if traced_factor == 1:
        return np.trace(t, axis1=0, axis2=2)
    if traced_factor == 2:
        return np.trace(t, axis1=1, axis2=3)
    raise DimMismatchError(f"traced_factor must be 1 or 2, got {traced_factor}")
