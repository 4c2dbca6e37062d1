"""Optimal convex approximation of channels over the probability simplex.

Minimizes the diamond distance between a target channel and convex
mixtures of an approximating set, and provides the closed-form distances
and two-sided bounds known for structured families (covariant targets,
Pauli sets, damping channels, two parallel copies).

Every simplex problem takes one certified route: one interior-point solve
of  max t  s.t.  t <= Tr[Delta_i W]  over the diamond-norm feasible set,
whose optimum is min_p ||sum_i p_i Delta_i||_diamond by duality.  Its scalar
duals are the weights p, its primal point (W, rho) has Tr[Delta(p) W] >= t,
and its projected dual bound caps ||Delta(p)||_diamond, so [t, dual]
brackets both the distance at p and the simplex optimum; a single distance
is the family of one.  If the joint bracket stalls above 1e-7, the dual
program of Delta(p) closes it, as it closes a stalled single distance: the
joint witness and upper side hold for Delta(p), so Delta(p) needs no primal
solve of its own.  The distance must lie within tol of t.
Diagonal-unitary-covariant problems (every damping row and the phase-gate
two-copy study) are solved on their invariant sectors, with the same
certificate on the full space.

A qubit target with one Kraus operator against members of distinct Pauli
directions is first tried in closed form.  A member's direction is the
Bell vector of its largest Bell-diagonal Choi entry, so any subset of the
four Pauli unitaries qualifies however they are written (every fig2 row,
the README quick start, vertex Pauli specs, unitary specs of iX, iY and
iZ).  The Pauli Choi vectors are the Bell basis |beta_i>, so with
u = vec(U)/sqrt2 and q_i = |<beta_i|u>|^2, Delta(p)/2 = |u><u| -
sum_i p_i |beta_i><beta_i| has one positive eigenvalue mu, the largest root
of sum_i q_i/(mu + p_i) = 1, and the distance at p is 2 mu.  Its minimum
over the simplex is a water-filling (``_water_fill``), and
``sdp._mixed_reference_solution`` certifies those weights at rho = I/2, as
a bracket request that a sweep window answers for all its rows in one
stacked evaluation.  The bracket certifies the distance at its weights
whatever the members are, so it alone decides: within 1e-7 it is the
answer, with 0 iterations, and otherwise the joint solve runs.  Every row
of the default fig2 grid closes, at delta = pi/8, 0, 1 and pi/4, with gaps
of at most 2.9e-13 against about 1e-8 from the solve, and distances within
5.3e-9 of the solve's; the default sweep runs 4.7x faster in-process on 2
cores than through the solve, 3.9x with --parallel 2.

``approx_bounds`` adds cheap two-sided bounds: each member's certified
``diamond_sdp`` distance (a closed-form bracket for a unitary pair, near-
unitary ones included, else at most a single-member solve), and the Choi
trace bound, which is the same minimax program at reference dimension 1
(there -I <= W <= I, and the optimum is min_p ||sum_i p_i Delta_i||_1).  At
rho = I/d, d W is feasible there with value d t, so a closed Pauli-set
problem reads t as its Choi bound and takes no solve.  Every simplex
problem here is a step generator that ``sdp._run`` or ``sdp._run_all``
drives.  ``approx_bounds`` and ``multi_copy_approx`` are not: they put
several results together, each driven by its own ``sdp._run``
(``diamond.diamond_sdp``, ``optimal_convex_approx``, ``_diamond_of_delta``
or the Choi bound's steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import diamond, sdp
# damping is not called here; the name stays because perfbench/tracing.py
# wraps approx.damping
from .channels import (  # noqa: F401
    _FAMILIES,
    PAULI,
    Channel,
    _check_dim,
    _check_range,
    _checked,
    _ChoiDifferences,
    choi,
    damping,
    mix,
    pauli_unitaries,
    prob_vector,
    tensor,
)
from .diamond import DiamondResult, _diamond_of_delta, d_i_unitary
from .errors import DimMismatchError, NoConvergenceError, RangeError
from .linalg import trace_norm

_MAX_SET = 8
#: The trace norm within which a member's Choi difference is an exact member.
_ZERO_TRACE_NORM = 1e-12


@dataclass(frozen=True)
class ApproxResult:
    """Optimal convex mixture of an approximating set for a target channel.

    ``weights`` lie on the probability simplex; ``distance`` is the
    diamond distance between the target and the weighted mixture, the
    midpoint of ``witness``, whose state and operator attain its primal
    bound at these weights; ``iterations`` counts the joint minimax
    solve's interior-point iterations (0 when the target is a member of
    the set or the Pauli-set closed form answers).  ``approx_bounds``
    gives the best single-member distance and the Choi trace lower bound
    around ``distance``.
    """

    weights: np.ndarray
    distance: float
    witness: DiamondResult
    iterations: int


#: The smallest accepted mixture tol (``sdp._check_tol``); the CLI clamps up to it.
_APPROX_TOL_FLOOR = 1e-6
_INNER_TOL = 1e-7  # every certified solve behind a mixture, whatever the accepted tol


def _simplex_deltas(target: Channel, set) -> np.ndarray:
    """Validate; return the stacked choi(target) - choi(set[i])."""
    members = list(set)
    if not 1 <= len(members) <= _MAX_SET:
        raise RangeError(
            f"approximating set must have 1..{_MAX_SET} members, got {len(members)}"
        )
    if any(ch.dim != target.dim for ch in members):
        raise DimMismatchError("approximating set dimension differs from target")
    _check_dim(target.dim)
    target_choi = choi(target)
    return np.stack([target_choi - choi(ch) for ch in members])


def optimal_convex_approx(target: Channel, set, tol: float) -> ApproxResult:
    """Closest convex mixture of ``set`` to ``target`` in diamond norm.

    Requires matching dimensions of at most 4, 1..8 set members, and a
    finite tol >= 1e-6.  The joint minimax bracket [primal, dual] holds the
    distance at the returned weights, and primal bounds the simplex
    optimum, so the weights are within the gap (<= 1e-7) of optimal.  If it
    stalls, the dual program of the mixture at the weights closes the
    bracket (``sdp._closing_steps``), which must end within tol of primal.
    A qubit target with one Kraus operator against members of distinct
    Pauli directions (the Pauli unitaries, however written) takes no solve
    when the closed form of the module docstring closes. A target whose
    Choi matrix is within trace norm 1e-12 of a member's gets all weight on
    that member at distance 0, certified by [0, dual] with W = 0: dual 0
    for an exact member, else the upper side of that member's bracket at
    rho = I/d.
    """
    return sdp._run(_convex_approx_steps(target, set, tol))


def _convex_approx_steps(target: Channel, set, tol: float):
    """``optimal_convex_approx`` as steps (see ``sdp._run_all``)."""
    sdp._check_tol(tol, _APPROX_TOL_FLOOR)
    members = list(set)
    delta_stack = _simplex_deltas(target, members)
    pauli = _pauli_mixture(target, members, delta_stack)
    return (yield from _simplex_steps(delta_stack, tol, pauli))


def _simplex_steps(delta_stack, tol: float, pauli: sdp._Bracket | None):
    """The steps of ``optimal_convex_approx`` on the checked Choi differences
    ``delta_stack`` of a target and its set, ``pauli`` the request of the
    Pauli-set closed form or None."""
    d = math.isqrt(delta_stack.shape[-1])

    # Exact membership: all weight on the matching member, at distance 0,
    # with the exact lower bound 0 at W = 0 and rho = I/d (the diamond norm
    # is at most the Choi trace norm). An exactly zero Delta is its own
    # certificate, with gap 0; any other Delta within the floor takes as its
    # dual the upper side of its own bracket at rho = I/d, a true bound on
    # its roundoff-size distance. ||.||_F <= ||.||_1, so only a Frobenius
    # norm within twice the floor (the factor absorbs roundoff), NaN or inf
    # needs trace_norm's eigensolve. A single distance has no such floor.
    frobenius = np.linalg.norm(delta_stack, axis=(-2, -1))
    for i, delta in enumerate(delta_stack):
        small = not 2 * _ZERO_TRACE_NORM < frobenius[i] < np.inf
        if small and trace_norm(delta) <= _ZERO_TRACE_NORM:
            dual = 0.0
            if delta.any():
                dual = (yield sdp._Bracket(delta[None], np.ones(1), d), None).dual
            rho = np.eye(d, dtype=complex) / d
            return ApproxResult(
                weights=prob_vector(np.eye(len(delta_stack))[i]),
                distance=0.0,
                witness=DiamondResult(0.0, rho, np.zeros_like(delta), 0.0, dual),
                iterations=0,
            )

    if pauli is not None:
        closed = yield pauli, None
        if closed.gap <= _INNER_TOL:
            witness = DiamondResult._of_solution(closed)
            return ApproxResult(
                weights=prob_vector(closed.weights),
                distance=witness.value,
                witness=witness,
                iterations=0,
            )

    joint = yield sdp._program(delta_stack, d), 1e-8
    if joint.weights is None:
        raise NoConvergenceError("the joint minimax solve returned no mixture weights")
    witness = DiamondResult._of_solution(joint)
    if not witness.gap <= _INNER_TOL:
        # The joint bracket can stall above 1e-7. Its witness and upper side
        # hold for the mixture at the weights, so the dual program closes it
        # there, and t certifies the weights' optimality.
        mixed = np.tensordot(joint.weights, delta_stack, axes=1)
        closed = yield from sdp._closing_steps(joint, mixed, d, _INNER_TOL)
        witness = DiamondResult._of_solution(closed)
        if not witness.dual <= joint.primal + tol:
            raise NoConvergenceError(
                f"mixture distance {witness.dual:.9f} is more than {tol:.0e} above "
                f"the certified optimum {joint.primal:.9f}"
            )
    return ApproxResult(
        weights=prob_vector(joint.weights),
        distance=witness.value,
        witness=witness,
        iterations=joint.iterations,
    )


def approx_bounds(target: Channel, set, distance: float) -> tuple[float, float]:
    """Bounds around ``distance = optimal_convex_approx(target, set, tol).distance``.

    Returns ``(upper_bound_single, lower_bound_choi)``: the best single-member
    distance (a mixture can only do better) and the simplex-minimized Choi
    trace distance over the dimension, capped at ``distance``. A member's
    distance is its ``diamond_sdp`` value at tol 1e-7, within that of the
    exact distance: a pair of single-Kraus channels (unitary ones, and
    near-unitary ones within ``Channel``'s completeness check) closes in a
    closed-form bracket without a solve, and any other member costs at
    most one single-member solve. The Choi bound costs one minimax solve
    at reference dimension 1, on the invariant sectors for a
    diagonal-unitary-covariant family, and none when the Pauli-set closed
    form closes (module docstring). A NaN, infinite or negative
    ``distance`` raises ``RangeError`` before any solve. ``diamond_sdp`` is
    looked up in ``diamond`` at each call, so a substitute bound there
    serves the members too.
    """
    if not 0.0 <= distance < np.inf:
        raise RangeError(f"distance {distance!r} must be finite and nonnegative")
    members = list(set)
    delta_stack = _simplex_deltas(target, members)
    upper = min(diamond.diamond_sdp(target, ch, _INNER_TOL).value for ch in members)
    lower = sdp._run(_choi_bound_steps(target, members, delta_stack))
    return upper, min(max(0.0, lower), distance)


def _choi_bound_steps(target: Channel, members, delta_stack):
    """The Choi trace bound of ``approx_bounds``, uncapped, as steps (see
    ``sdp._run_all``): the lower side of a closed Pauli-set bracket, else
    the minimax solve at reference dimension 1 over the dimension."""
    request = _pauli_mixture(target, members, delta_stack)
    if request is not None:
        closed = yield request, None
        if closed.gap <= _INNER_TOL:
            # d W is feasible at reference dimension 1, with value d t
            return closed.primal
    return (yield sdp._program(delta_stack, 1), 1e-8).primal / target.dim


# The Bell vectors vec(sigma_i) / sqrt2 of the Pauli matrices, as rows.
_BELL = np.stack([s.reshape(-1) for s in PAULI]) / np.sqrt(2.0)


def _pauli_mixture(target: Channel, members, delta_stack) -> sdp._Bracket | None:
    """The request for the closed-form bracket at rho = I/2 of a qubit
    target with one Kraus operator against members of distinct Pauli
    directions (``_pauli_bracket``), or None for any other problem.

    A member's direction is the Bell vector of its largest Bell-diagonal
    Choi entry, so a Pauli unitary has its own however it is written. The
    bracket certifies the distance at its weights whatever the members are:
    it is the answer only when it closes."""
    if target.dim != 2 or len(target.kraus) != 1:
        return None
    chois = np.stack([ch.choi for ch in members])
    directions = ((_BELL.conj() @ chois) * _BELL).sum(axis=-1).real.argmax(axis=1)
    if len(set(directions)) != len(members):
        return None
    return _pauli_bracket(target.kraus[0], directions, delta_stack)


def _pauli_bracket(kraus: np.ndarray, directions, delta_stack) -> sdp._Bracket:
    """The request for the closed-form bracket at rho = I/2 of the qubit
    target with Kraus operator ``kraus`` against members of the Pauli
    directions ``directions``, at the water-filling weights (module
    docstring). The bracket is the certificate when it is within 1e-7."""
    q = np.abs(_BELL.conj() @ kraus.reshape(-1)) ** 2 / 2.0
    return sdp._Bracket(delta_stack, _water_fill(q, directions), 2)


def _pauli_set_steps(angles, tol: float):
    """``optimal_convex_approx(unitary_qubit(*angles), pauli_unitaries(),
    tol)`` as steps (see ``sdp._run_all``), as a fig2 row needs it. The
    target's Choi differences from the four Pauli unitaries are a request
    (``channels._ChoiDifferences``) that a sweep window answers for all its
    rows in one stacked build, which checks the angles; no ``Channel`` is
    made per row, and the members are the Pauli unitaries by construction."""
    deltas, kraus = yield _ChoiDifferences(("unitary", angles), pauli_unitaries()), None
    sdp._check_tol(tol, _APPROX_TOL_FLOOR)
    return (yield from _simplex_steps(deltas, tol, _pauli_bracket(kraus[0], np.arange(4), deltas)))


def _water_fill(q: np.ndarray, directions) -> np.ndarray:
    """The members' weights p that minimise the diamond distance 2 mu(p) of
    a unitary target from the Pauli mixture, q the target's overlaps with
    the four Bell vectors and ``directions`` the members' Pauli indices.

    The active members, those of largest q, have mu + p_i = c sqrt(q_i) with
    c = (1 + |A| mu) / s_A and s_A the sum of their sqrt(q_i); mu is the
    positive root of |A| mu^2 + (1 - s_A^2 - r |A|) mu - r = 0, r = 1 minus
    their q_i (non-members' and inactive members' q are part of r). The
    active set grows until the next member has c sqrt(q) <= mu.
    """
    overlaps = q[np.asarray(directions)]
    order = np.argsort(-overlaps, kind="stable")
    root = np.sqrt(overlaps[order])
    for k in range(1, len(order) + 1):
        s = root[:k].sum()
        # a Kraus operator unitary only within Channel's 1e-9 can sum q past 1
        r = max(0.0, 1.0 - overlaps[order[:k]].sum())
        b = 1.0 - s * s - r * k
        disc = np.sqrt(b * b + 4.0 * k * r)
        mu = (disc - b) / (2.0 * k) if b < 0.0 else 2.0 * r / (disc + b)
        if k == len(order) or (1.0 + k * mu) * root[k] <= mu * s:
            break
    # at s = 0 no member overlaps the target: every mixture is as far
    share = root[:k] / s if s > 0.0 else np.full(k, 1.0 / k)
    weights = np.zeros(len(order))
    weights[order[:k]] = np.maximum((1.0 + k * mu) * share - mu, 0.0)
    return weights / weights.sum()


# ---------------------------------------------------------------------------
# Closed forms for the covariant-channel family.

_COVARIANT_BREAK = float(np.sqrt((15.0 + np.sqrt(33.0)) / 6.0))


def covariant_objective(x: float, p: float) -> float:
    """Diamond distance between a unitary and the covariant channel C_p.

    ``x`` is the unitary's distance from the identity channel; the value
    is (2/3) p + sqrt((16/9) p^2 + (1 - (4/3) p) x^2).
    """
    x = _check_range("x", x, 0.0, 2.0)
    (p,) = _checked("covariant", (p,))
    radicand = (16.0 / 9.0) * p * p + (1.0 - (4.0 / 3.0) * p) * x * x
    return (2.0 / 3.0) * p + float(np.sqrt(max(0.0, radicand)))


def covariance_distance_x(x: float) -> tuple[float, float]:
    """Minimum of ``covariant_objective`` over p in [0,1] with its minimizer.

    Piecewise in x with breakpoints 1 and sqrt((15+sqrt(33))/6) ~= 1.859:
    the optimal mixing parameter moves from 0 through the interior value
    (3x^2 - sqrt(3x^2(4-x^2)))/8 up to 1.
    """
    x = _check_range("x", x, 0.0, 2.0)
    if x <= 1.0:
        return x, 0.0
    if x <= _COVARIANT_BREAK:
        root = float(np.sqrt(3.0 * x * x * (4.0 - x * x)))
        return 0.25 * (x * x + root), (3.0 * x * x - root) / 8.0
    return (2.0 + float(np.sqrt(16.0 - 3.0 * x * x))) / 3.0, 1.0


def covariance_distance(alpha: float, beta: float) -> tuple[float, float]:
    """Distance from a qubit unitary to the closest covariant channel.

    Returns (value, optimal mixing parameter); both depend on the unitary
    only through x = d_i_unitary(alpha, beta).
    """
    return covariance_distance_x(d_i_unitary(alpha, beta))


# ---------------------------------------------------------------------------
# Closed forms for Pauli-set approximation of one-parameter unitary families.


#: Per ``pauli_distance_special`` kind: the index of its swept angle among the
#: unitary family's parameters, then the Pauli slots of its cos^2 and sin^2
#: weights.
_SPECIAL_KINDS = {"beta-delta-zero": (0, 0, 2), "alpha-zero": (1, 0, 3), "alpha-half-pi": (2, 2, 1)}


def pauli_distance_special(kind: str, angle: float) -> tuple[float, np.ndarray]:
    """Pauli distance of single-angle qubit unitary families, in closed form.

    ``kind`` selects which angles of the (alpha, beta, delta)
    parametrization are pinned: ``beta-delta-zero`` sweeps alpha in
    [0, pi/2] (a real rotation mixing identity and Y), ``alpha-zero``
    sweeps beta in [0, 2 pi] (a phase rotation mixing identity and Z),
    and ``alpha-half-pi`` sweeps delta in [0, 2 pi] (an off-diagonal
    rotation mixing Y and X).  The distance is |sin 2*angle| in each
    case, achieved by the squared-cosine/sine mixture of the two Pauli
    conjugations the family interpolates between.  The angle's range is
    its parameter's in ``channels._FAMILIES["unitary"]``.
    """
    if not isinstance(kind, str) or kind not in _SPECIAL_KINDS:
        kinds = ", ".join(map(repr, _SPECIAL_KINDS))
        raise RangeError(f"kind must be one of {kinds}; got {kind!r}")
    index, cos_slot, sin_slot = _SPECIAL_KINDS[kind]
    name, lo, hi = _FAMILIES["unitary"][1][index]
    angle = _check_range(name, angle, lo, hi)
    c2 = float(np.cos(angle)) ** 2
    weights = np.zeros(4)
    weights[cos_slot], weights[sin_slot] = c2, 1.0 - c2
    value = abs(float(np.sin(2.0 * angle)))
    return value, prob_vector(weights)


# ---------------------------------------------------------------------------
# Damping channel: closed-form bounds and the Pauli-set optimum.


def _damping_radicand(q: float, gamma: float) -> float:
    # The middle coefficient (2-gamma) cancels 8(1-gamma) as gamma -> 0,
    # where the damping channel and its closest Pauli channel both collapse
    # to the identity.
    root = float(np.sqrt(1.0 - gamma))
    return (
        8.0 * (1.0 - gamma)
        - 4.0 * (2.0 - gamma) * root
        + gamma * gamma * (2.0 - 4.0 * q * (1.0 - q))
    )


def damping_bounds(q: float, gamma: float) -> tuple[float, float]:
    """Two-sided bounds on the Pauli distance of the damping channel.

    lower = gamma |1-2q|, the best discrimination by a fixed basis state;
    upper = (lower + f(q, gamma)) / 2, the exact distance to the Pauli
    channel with weights (1 - gamma/2, gamma/4, gamma/4, 0).
    """
    q, gamma = _checked("damping", (q, gamma))
    lower = gamma * abs(1.0 - 2.0 * q)
    f = float(np.sqrt(max(0.0, _damping_radicand(q, gamma))))
    return lower, 0.5 * (lower + f)


def pauli_distance_damping(q: float, gamma: float, tol: float = 1e-6) -> ApproxResult:
    """Closest Pauli channel with weights (1-2p, p, p, 0) to the damping channel.

    The returned weights always take the form (1-2p, p, p, 0): the X and
    Y conjugations are weighted equally (preserving the damping channel's
    covariance under z-axis rotations) and the Z conjugation is unused.
    That family is the convex hull of the identity and the equal X/Y
    mixture with weights (0, 1/2, 1/2, 0), so the optimum is the
    two-member ``optimal_convex_approx`` over those endpoints, and its
    weights (w0, w1) map back to (w0, w1/2, w1/2, 0).  The structure
    therefore holds exactly and the distance stays between
    ``damping_bounds``.  ``approx_bounds`` over the same two endpoints
    gives its single-member and Choi bounds.

    Note the restriction is not always free: the unrestricted four-weight
    optimum (``optimal_convex_approx`` with the four Pauli conjugations)
    leaves this family on a central region of the (q, gamma) square,
    because a nonzero Z weight decouples the mixture's coherence decay
    from its diagonal contraction. There the unrestricted optimum attains
    the basis-state lower bound gamma |1-2q| -- at q = 1/2 the damping
    channel is itself a Pauli channel with weights
    ((1 - gamma/2 + s)/2, gamma/4, gamma/4, (1 - gamma/2 - s)/2),
    s = sqrt(1-gamma), and the unrestricted distance is zero -- while
    this family keeps a strictly positive distance.
    """
    return sdp._run(_damping_steps(q, gamma, tol))


@lru_cache(maxsize=None)
def _damping_endpoints() -> tuple[Channel, Channel]:
    """The identity and the equal X/Y mixture, built once."""
    paulis = pauli_unitaries()
    return paulis[0], mix(paulis[1:3], [0.5, 0.5])


def _damping_steps(q: float, gamma: float, tol: float):
    """``pauli_distance_damping`` as steps (see ``sdp._run_all``). The
    damping channel's Choi differences from the two endpoints are a request
    (``channels._ChoiDifferences``) that a sweep window answers for all its
    rows in one stacked build, which checks q and gamma; no ``Channel`` is
    made per row. The endpoints are not Pauli unitaries, so the Pauli-set
    closed form never applies."""
    request = _ChoiDifferences(("damping", (q, gamma)), _damping_endpoints())
    deltas, _ = yield request, None
    sdp._check_tol(tol, _APPROX_TOL_FLOOR)
    res = yield from _simplex_steps(deltas, tol, None)
    w0, w1 = res.weights
    return replace(res, weights=prob_vector([w0, 0.5 * w1, 0.5 * w1, 0.0]))


# ---------------------------------------------------------------------------
# Two parallel copies: correlated vs product vs tensored-single mixtures.


@dataclass(frozen=True)
class MultiCopyResult:
    """Two-copy approximation distances at three correlation levels.

    ``correlated`` is the full simplex optimum over the tensor-product
    set (first-factor-major order); ``product_weights`` are the best
    independent per-copy mixtures and ``product_witness`` certifies their
    distance; ``tensored_witness`` certifies the single-copy optimal
    mixture used on both copies; ``single`` is that single-copy result.
    The three distances satisfy correlated <= product <= tensored (within
    certification slack).
    """

    correlated: ApproxResult
    product_witness: DiamondResult
    product_weights: tuple[np.ndarray, np.ndarray]
    tensored_witness: DiamondResult
    single: ApproxResult

    @property
    def product_value(self) -> float:
        return self.product_witness.value

    @property
    def tensored_value(self) -> float:
        return self.tensored_witness.value

    @property
    def values(self) -> tuple[float, float, float]:
        return (self.correlated.distance, self.product_value, self.tensored_value)


def two_copy_problem(target: Channel, members) -> tuple[Channel, list[Channel]]:
    """``target`` on two copies, and every ordered pair of ``members``
    tensored, first factor major: (II IZ ZI ZZ) for members (I, Z)."""
    members = list(members)
    return tensor(target, target), [tensor(ci, cj) for ci in members for cj in members]


def _secant(prev, cur) -> np.ndarray:
    """Depth-1 Anderson (type II) step toward the fixed point q = G(q) from
    the pairs (q, G(q)) of the last two rounds, clipped and renormalised onto
    the simplex. On the segment of a two-member simplex it is the secant step
    on the residual G(q) - q; with no change in the residual it is G(q)."""
    (q0, g0), (q1, g1) = prev, cur
    f1 = g1 - q1
    df = f1 - (g0 - q0)
    den = df @ df
    if not den > 0.0:
        return g1
    q = np.clip(g1 - (df @ f1 / den) * (g1 - g0), 0.0, None)
    return q / q.sum()


def multi_copy_approx(target: Channel, single_set, copies: int, tol: float) -> MultiCopyResult:
    """Approximate two independent uses of a qubit channel three ways.

    Computes (a) the optimal correlated mixture over all tensor products
    of set members, (b) the best independent product of per-copy mixtures,
    and (c) the single-copy optimal mixture applied to both copies.  Only
    ``copies=2`` is supported, with 1 or 2 set members (their k**2 tensor
    products must fit the 8-member limit).

    The product search runs rounds of two ``optimal_convex_approx``
    half-steps, one copy's weights each, from the single-copy optimum: a
    round maps the right-copy weights q to G(q).  From the third round on it
    starts at the depth-1 Anderson (type II) point of the last two rounds,
    projected onto the simplex, which on the two-member segment is the secant
    step on G(q) - q (Walker & Ni, SIAM J. Numer. Anal. 2011).  A round's
    value is the certified dual bound of its second half-step.  A round from
    an extrapolated point is kept only if its value does not rise above the
    best kept value; otherwise plain alternation restarts from the best
    round with no history.  The search stops when a kept round improves the
    best value by at most 1e-9, when a plain round rises, or after 25
    rounds, and the product weights are those of the best round.

    The product optimum is flat in the weights, so the 1e-8 half-step solves
    and the 1e-9 stop rule fix them only to a few parts in 1e7, while the
    certified product distance holds to the tolerance.  The single-copy
    optimum is flat as well, so its weights, and with them the tensored
    distance, hold only to within tol.
    """
    if copies != 2:
        raise RangeError(f"copies={copies} unsupported; only copies=2 is implemented")
    sdp._check_tol(tol, _APPROX_TOL_FLOOR)
    members = list(single_set)
    if not 1 <= len(members) <= 2:
        raise RangeError(f"two-copy set must have 1..2 members, got {len(members)}")
    if target.dim != 2 or any(ch.dim != 2 for ch in members):
        raise DimMismatchError("two-copy approximation requires qubit channels")

    single = optimal_convex_approx(target, members, tol)
    pair_target, pair_set = two_copy_problem(target, members)
    pair_choi = choi(pair_target)

    # (c) the single-copy optimum tensored with itself.
    base = mix(members, single.weights)
    tensored_res = _diamond_of_delta(pair_choi - choi(tensor(base, base)), 4, _INNER_TOL)

    # (a) correlated mixture over the two-copy set.
    correlated = optimal_convex_approx(pair_target, pair_set, tol)

    # (b) independent per-copy mixtures: rounds of two half-steps, one copy's
    # simplex problem each, from the single-copy optimum.
    def product_round(q_right):
        right = mix(members, q_right)
        half = optimal_convex_approx(pair_target, [tensor(ch, right) for ch in members], tol)
        left = mix(members, half.weights)
        other = optimal_convex_approx(pair_target, [tensor(left, ch) for ch in members], tol)
        return half.weights, other.weights, other.witness.dual

    best_value, best = np.inf, None
    q, prev, extrapolated = single.weights, None, False
    for _ in range(25):
        q_left, q_right, value = product_round(q)
        if value > best_value:
            if not extrapolated:
                break
            # a rising extrapolation: plain alternation from the best iterate
            q, prev, extrapolated = best[1], None, False
            continue
        improved = best_value - value
        best_value, best = value, (q_left, q_right)
        if improved <= 1e-9:
            break
        step = (q, q_right)
        q, extrapolated = (q_right, False) if prev is None else (_secant(prev, step), True)
        prev = step
    q_left, q_right = best
    product_delta = pair_choi - choi(tensor(mix(members, q_left), mix(members, q_right)))
    product_res = _diamond_of_delta(product_delta, 4, _INNER_TOL)

    if not (
        correlated.distance <= product_res.value + tol
        and product_res.value <= tensored_res.value + tol
    ):
        raise NoConvergenceError(
            "two-copy distances violate the correlated <= product <= tensored "
            f"ordering: {correlated.distance:.9f}, {product_res.value:.9f}, "
            f"{tensored_res.value:.9f}"
        )
    return MultiCopyResult(
        correlated=correlated,
        product_witness=product_res,
        product_weights=(q_left, q_right),
        tensored_witness=tensored_res,
        single=single,
    )
