"""Diamond-norm distances between channels.

Closed forms where they exist (unitary pairs via the eigenvalue polygon),
a certified dense semidefinite program for the general case, and cheap
lower bounds (Choi trace distance, fixed-input trace distance). Every SDP
result carries a primal witness (input state and measurement operator) and
a dual certificate sandwiching the value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .channels import Channel, _check_dim, _check_range, apply_channel, choi
from .errors import (
    DimMismatchError,
    InvalidStateError,
    NotUnitaryError,
    RangeError,
)
from .linalg import _nearest_hull_point, dagger, trace_norm

#: Shared with approx's exact-member test, so a member's distance is its witness's.
_ZERO_TRACE_NORM = 1e-12


@dataclass(frozen=True)
class DiamondResult:
    """Certified diamond distance with witness and two-sided bounds.

    ``witness_state`` is the input's reduced state rho on the reference
    factor; ``witness_operator`` is a Hermitian W with -I(x)rho <= W <=
    I(x)rho and Tr[Delta W] >= ``primal`` for the measured Choi difference
    Delta (for a mixture, at its returned weights).
    """

    value: float
    witness_state: np.ndarray
    witness_operator: np.ndarray
    primal: float
    dual: float

    @property
    def gap(self) -> float:
        return self.dual - self.primal

    @classmethod
    def _of_solution(cls, sol: sdp.SdpSolution) -> DiamondResult:
        """The certificate of a minimax bracket (a distance is the family of
        one), valued at its midpoint capped at 2; t < 0 gives way to 0 at W = 0."""
        primal, w = sol.primal, sol.witness_w
        if primal < 0.0:
            primal, w = 0.0, np.zeros_like(w)
        return cls(
            value=min(0.5 * (primal + sol.dual), 2.0),
            witness_state=sol.witness_rho,
            witness_operator=w,
            primal=primal,
            dual=sol.dual,
        )


@dataclass(frozen=True)
class PolygonRadius:
    """Distance from the origin to the convex hull of unimodular points."""

    vertices: np.ndarray
    r: float


def polygon_radius(vertices) -> PolygonRadius:
    """Euclidean distance from 0 to the convex hull of unit-circle points.

    Only the phases of the vertices are read: each stands for the point of
    the unit circle at its angle. Raises RangeError without a vertex, or
    for a NaN or infinite one.
    """
    verts = np.asarray(vertices, dtype=complex).ravel()
    if verts.size == 0:
        raise RangeError("polygon needs at least one vertex")
    if not np.all(np.isfinite(verts)):
        raise RangeError("polygon vertices must be finite")
    point, _, _ = _nearest_hull_point(np.angle(verts))
    return PolygonRadius(vertices=verts, r=float(abs(point)))


def diamond_unitary(v: np.ndarray, z: np.ndarray) -> float:
    """Diamond distance between two unitary channels, in closed form.

    The distance is 2*sqrt(1 - r^2) where r is the distance from the origin
    to the convex hull of the eigenvalues of z^dagger v; for qubits r is
    |Tr(z^dagger v)| / 2.
    """
    v = np.asarray(v, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if v.shape != z.shape:
        raise DimMismatchError(f"unitary shapes differ: {v.shape} vs {z.shape}")
    for name, u in (("first", v), ("second", z)):
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise NotUnitaryError(f"{name} argument is not square")
        if not np.all(np.isfinite(u)):
            raise NotUnitaryError(f"{name} argument has NaN or infinite entries")
        if np.abs(dagger(u) @ u - np.eye(u.shape[0])).max() > 1e-9:
            raise NotUnitaryError(f"{name} argument is not unitary within 1e-9")
    u = dagger(z) @ v
    d = u.shape[0]
    if d == 2:
        r = abs(np.trace(u)) / 2.0
    else:
        r = polygon_radius(np.linalg.eigvals(u)).r
    return 2.0 * float(np.sqrt(max(0.0, 1.0 - r * r)))


def d_i_unitary(alpha: float, beta: float) -> float:
    """Diamond distance of the qubit unitary U(alpha, beta, delta) from the
    identity: 2*sqrt(1 - cos^2(alpha) cos^2(beta)), independent of delta."""
    alpha = _check_range("alpha", alpha, 0.0, np.pi / 2)
    beta = _check_range("beta", beta, 0.0, 2 * np.pi)
    c = np.cos(alpha) * np.cos(beta)
    return 2.0 * float(np.sqrt(max(0.0, 1.0 - c * c)))


def choi_trace_distance(a: Channel, b: Channel) -> float:
    """Normalized trace distance of Choi operators: a lower bound on the
    diamond distance."""
    if a.dim != b.dim:
        raise DimMismatchError(f"channel dims differ: {a.dim} vs {b.dim}")
    return trace_norm(choi(a) - choi(b)) / a.dim


def fixed_input_bound(a: Channel, b: Channel, state: np.ndarray) -> float:
    """Trace norm of the output difference on one input state: a lower bound
    on the diamond distance (no reference system)."""
    if a.dim != b.dim:
        raise DimMismatchError(f"channel dims differ: {a.dim} vs {b.dim}")
    state = np.asarray(state, dtype=complex)
    if state.shape != (a.dim, a.dim):
        raise InvalidStateError(f"state shape {state.shape} does not match dim {a.dim}")
    if not np.all(np.isfinite(state)):
        raise InvalidStateError("state has NaN or infinite entries")
    if np.abs(state - dagger(state)).max() > 1e-8:
        raise InvalidStateError("state is not Hermitian within 1e-8")
    if abs(np.trace(state).real - 1.0) > 1e-8:
        raise InvalidStateError("state trace differs from 1 by more than 1e-8")
    if np.linalg.eigvalsh(0.5 * (state + dagger(state)))[0] < -1e-10:
        raise InvalidStateError("state has an eigenvalue below -1e-10")
    return trace_norm(apply_channel(a, state) - apply_channel(b, state))


def _zero_result(delta: np.ndarray, ref_dim: int) -> DiamondResult:
    """The result for a delta of trace norm at most _ZERO_TRACE_NORM.

    The diamond norm is bounded by the Choi trace norm, so it is exactly
    zero to working precision; W = 0 with the maximally mixed reference
    state is an exact witness pair.
    """
    n = delta.shape[0]
    return DiamondResult(
        value=0.0,
        witness_state=np.eye(ref_dim, dtype=complex) / ref_dim,
        witness_operator=np.zeros((n, n), dtype=complex),
        primal=0.0,
        dual=0.0,
    )


def _diamond_of_delta(delta: np.ndarray, ref_dim: int, tol: float, kraus=None) -> DiamondResult:
    """Certified diamond norm of the Hermitian map with Choi matrix delta;
    ``kraus`` as for ``sdp._fixed_steps``."""
    return sdp._run(_delta_steps(delta, ref_dim, tol, kraus))


def _delta_steps(delta: np.ndarray, ref_dim: int, tol: float, kraus=None):
    """``_diamond_of_delta`` as steps (see ``sdp._run_all``): zero below
    the trace-norm floor, otherwise the steps of ``sdp.solve_fixed``."""
    if trace_norm(delta) <= _ZERO_TRACE_NORM:
        return _zero_result(delta, ref_dim)
    return DiamondResult._of_solution((yield from sdp._fixed_steps(delta, ref_dim, tol, kraus)))


def _single_kraus(a: Channel, b: Channel):
    """(K, L) when each channel has exactly one Kraus operator, else None."""
    return (a.kraus[0], b.kraus[0]) if len(a.kraus) == len(b.kraus) == 1 else None


def _checked_delta(a: Channel, b: Channel, tol: float) -> np.ndarray:
    """choi(a) - choi(b), once ``diamond_sdp`` accepts its arguments."""
    if a.dim != b.dim:
        raise DimMismatchError(f"channel dims differ: {a.dim} vs {b.dim}")
    _check_dim(a.dim)
    if not 1e-9 <= tol < np.inf:
        raise RangeError(f"tolerance {tol:g} must be finite and at least 1e-9")
    return choi(a) - choi(b)


def diamond_sdp(a: Channel, b: Channel, tol: float = 1e-7) -> DiamondResult:
    """Certified diamond distance between two channels.

    Solves  maximize Tr[(R_a - R_b) W]  subject to
    -I(x)rho <= W <= I(x)rho, rho >= 0, Tr rho = 1, returning the midpoint
    of the certified two-sided bounds (gap <= tol). The interior-point
    iterations may be 0: a pair whose closed-form bracket at the maximally
    mixed input closes within tol (every qubit unitary pair, for one) is
    certified by W = sign(Delta)/d and rho = I/d without a solve. A pair
    of channels with one Kraus operator each (unitary pairs at d = 3 and
    d = 4, such as products of qubit unitaries) is then bracketed in
    closed form from the convex hull of the eigenvalues of V^H U, U and V
    the polar factors of the Kraus operators (``sdp._unitary_pair_solution``),
    again without a solve. A pair still open whose Choi difference is not
    diagonal-unitary-covariant then iterates
    rho <- Tr_out|R Delta R| / ||R Delta R||_1, R = I (x) sqrt(rho), and is
    certified without a solve by the first full-rank rho whose bracket
    closes (most damping-vs-Pauli pairs and about half the d = 4 noisy
    product pairs). The interior-point engine runs only on the pairs all
    of these leave open, such as those whose optimal input state is rank
    deficient.
    """
    return _diamond_of_delta(_checked_delta(a, b, tol), a.dim, tol, _single_kraus(a, b))


def _diamond_sdp_steps(a: Channel, b: Channel, tol: float):
    """``diamond_sdp`` as steps (see ``sdp._run_all``); the arguments are
    checked when it is called."""
    return _delta_steps(_checked_delta(a, b, tol), a.dim, tol, _single_kraus(a, b))


def discrimination_probability(diamond_value: float) -> float:
    """Optimal single-shot discrimination probability 1/2 + value/4."""
    diamond_value = float(diamond_value)
    if not (-1e-9 <= diamond_value <= 2.0 + 1e-9):
        raise RangeError(f"diamond_value={diamond_value} outside [0, 2]")
    return 0.5 + min(max(diamond_value, 0.0), 2.0) / 4.0


def alternating_lower_bound(
    a: Channel,
    b: Channel,
    restarts: int = 10,
    sweeps: int = 60,
    seed: int = 0,
) -> float:
    """Heuristic primal lower bound by alternating maximization.

    Alternates between the optimal measurement for a fixed input purification
    (matrix sign function) and the optimal purification for a fixed
    measurement (top eigenvector of the induced quadratic form). Every
    iterate is primal-feasible, so the best value found is a true lower
    bound on the diamond distance. Verification helper, not the production
    path.
    """
    if a.dim != b.dim:
        raise DimMismatchError(f"channel dims differ: {a.dim} vs {b.dim}")
    d = a.dim
    delta = choi(a) - choi(b)
    dr = delta.reshape(d, d, d, d)
    rng = np.random.default_rng(seed)
    best = 0.0
    for trial in range(max(1, restarts)):
        if trial == 0:
            xi = np.eye(d, dtype=complex) / np.sqrt(d)
        else:
            xi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            xi = xi / np.linalg.norm(xi)
        value = 0.0
        for _ in range(sweeps):
            t = np.kron(np.eye(d), xi) @ delta @ np.kron(np.eye(d), dagger(xi))
            evals, evecs = np.linalg.eigh(0.5 * (t + dagger(t)))
            m = (evecs * np.sign(evals)) @ dagger(evecs)
            mr = m.reshape(d, d, d, d)
            h = np.einsum("akbl,bjai->jlik", dr, mr).reshape(d * d, d * d)
            hvals, hvecs = np.linalg.eigh(0.5 * (h + dagger(h)))
            new_value = float(hvals[-1])
            xi = hvecs[:, -1].reshape(d, d)
            if new_value <= value + 1e-12:
                value = max(value, new_value)
                break
            value = new_value
        best = max(best, value)
    return best
