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
brackets both the distance at p and the simplex optimum.  If that bracket
stalls above 1e-7, a fixed solve at p certifies the distance instead, and
it must lie within tol of t.  Diagonal-unitary-covariant problems (every
damping row and the phase-gate two-copy study) are solved on their
invariant sectors, with the same certificate on the full space.
``approx_bounds`` adds cheap two-sided bounds: each member's distance
(closed form for a unitary pair, else a fixed solve), and the Choi trace
bound, which is the same minimax program at reference dimension 1 (there
-I <= W <= I, and the optimum is min_p ||sum_i p_i Delta_i||_1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import sdp
from .channels import (
    Channel,
    _check_range,
    choi,
    damping,
    mix,
    pauli_unitaries,
    prob_vector,
    tensor,
)
from .diamond import (
    _ZERO_TRACE_NORM,
    DiamondResult,
    _delta_steps,
    _diamond_of_delta,
    _zero_result,
    d_i_unitary,
    diamond_unitary,
)
from .errors import DimMismatchError, NoConvergenceError, NotUnitaryError, RangeError
from .linalg import trace_norm

_MAX_SET = 8


@dataclass(frozen=True)
class ApproxResult:
    """Optimal convex mixture of an approximating set for a target channel.

    ``weights`` lie on the probability simplex; ``distance`` is the
    diamond distance between the target and the weighted mixture, the
    midpoint of ``witness``, whose state and operator attain its primal
    bound at these weights; ``iterations`` counts the joint minimax
    solve's interior-point iterations (0 when the target is a member of
    the set).  ``approx_bounds`` gives the best single-member distance and
    the Choi trace lower bound around ``distance``.
    """

    weights: np.ndarray
    distance: float
    witness: DiamondResult
    iterations: int


_APPROX_TOL_FLOOR = 1e-6  # smallest accepted mixture tol; the CLI clamps up to it
_INNER_TOL = 1e-7  # every certified solve behind a mixture, whatever the accepted tol


def _check_tol(tol: float) -> None:
    """Reject a mixture-optimization tolerance below the floor, NaN or inf."""
    if not _APPROX_TOL_FLOOR <= tol < np.inf:
        raise RangeError(f"tolerance {tol:g} must be finite and at least 1e-6")


def _simplex_deltas(target: Channel, set) -> np.ndarray:
    """Validate; return the stacked choi(target) - choi(set[i])."""
    members = list(set)
    if not 1 <= len(members) <= _MAX_SET:
        raise RangeError(
            f"approximating set must have 1..{_MAX_SET} members, got {len(members)}"
        )
    if any(ch.dim != target.dim for ch in members):
        raise DimMismatchError("approximating set dimension differs from target")
    target_choi = choi(target)
    return np.stack([target_choi - choi(ch) for ch in members])


def optimal_convex_approx(target: Channel, set, tol: float) -> ApproxResult:
    """Closest convex mixture of ``set`` to ``target`` in diamond norm.

    Requires matching dimensions, 1..8 set members, and a finite
    tol >= 1e-6.  The joint minimax bracket [primal, dual] holds the
    distance at the returned weights, and primal bounds the simplex
    optimum, so the weights are within the gap (<= 1e-7) of optimal.  If it
    stalls, a fixed solve at the weights is the witness, within tol of primal.
    """
    return sdp._run(_convex_approx_steps(target, set, tol))


def _convex_approx_steps(target: Channel, set, tol: float):
    """``optimal_convex_approx`` as steps (see ``sdp._run_all``)."""
    _check_tol(tol)
    delta_stack = _simplex_deltas(target, set)
    d = target.dim

    # Exact membership: all weight on the matching member, distance zero.
    for i, delta in enumerate(delta_stack):
        if trace_norm(delta) <= _ZERO_TRACE_NORM:
            return ApproxResult(
                weights=prob_vector(np.eye(len(delta_stack))[i]),
                distance=0.0,
                witness=_zero_result(delta, d),
                iterations=0,
            )

    joint = yield sdp._program(delta_stack, d, minimax=True), 1e-8
    if joint.weights is None:
        raise NoConvergenceError("the joint minimax solve returned no mixture weights")
    witness = DiamondResult._of_solution(joint)
    if not witness.gap <= _INNER_TOL:
        # The joint bracket can stall above 1e-7: a fixed solve certifies the
        # distance at the weights, and t their optimality to within tol.
        mixed = np.tensordot(joint.weights, delta_stack, axes=1)
        witness = yield from _delta_steps(mixed, d, _INNER_TOL)
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
    trace distance over the dimension, capped at ``distance``. A member
    distance is exact when the target and the member each have a single
    Kraus operator (``diamond_unitary``); any other member costs a fixed
    solve certified to 1e-7. The Choi bound costs one minimax solve at
    reference dimension 1, on the invariant sectors for a
    diagonal-unitary-covariant family.
    """
    members = list(set)
    delta_stack = _simplex_deltas(target, members)
    upper = min(_member_distance(target, ch, delta) for ch, delta in zip(members, delta_stack))
    trace = sdp.solve_minimax(delta_stack, 1, 1e-8)
    return upper, min(max(0.0, trace.primal / target.dim), distance)


def _member_distance(target: Channel, member: Channel, delta: np.ndarray) -> float:
    """The diamond distance of one member: closed form for a unitary pair,
    else the value of a fixed solve certified to 1e-7."""
    if len(target.kraus) == 1 and len(member.kraus) == 1:
        try:
            return diamond_unitary(target.kraus[0], member.kraus[0])
        except NotUnitaryError:
            # Channel accepts a Frobenius defect of 1e-9 d in sum K^dag K;
            # diamond_unitary allows at most 1e-9 per entry.
            pass
    return _diamond_of_delta(delta, target.dim, _INNER_TOL).value


# ---------------------------------------------------------------------------
# Closed forms for the covariant-channel family.

_COVARIANT_BREAK = float(np.sqrt((15.0 + np.sqrt(33.0)) / 6.0))


def covariant_objective(x: float, p: float) -> float:
    """Diamond distance between a unitary and the covariant channel C_p.

    ``x`` is the unitary's distance from the identity channel; the value
    is (2/3) p + sqrt((16/9) p^2 + (1 - (4/3) p) x^2).
    """
    x = _check_range("x", x, 0.0, 2.0)
    p = _check_range("p", p, 0.0, 1.0)
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


def pauli_distance_special(kind: str, angle: float) -> tuple[float, np.ndarray]:
    """Pauli distance of single-angle qubit unitary families, in closed form.

    ``kind`` selects which angles of the (alpha, beta, delta)
    parametrization are pinned: ``beta-delta-zero`` sweeps alpha in
    [0, pi/2] (a real rotation mixing identity and Y), ``alpha-zero``
    sweeps beta in [0, 2 pi] (a phase rotation mixing identity and Z),
    and ``alpha-half-pi`` sweeps delta in [0, 2 pi] (an off-diagonal
    rotation mixing Y and X).  The distance is |sin 2*angle| in each
    case, achieved by the squared-cosine/sine mixture of the two Pauli
    conjugations the family interpolates between.
    """
    if kind == "beta-delta-zero":
        angle = _check_range("alpha", angle, 0.0, np.pi / 2)
        c2 = float(np.cos(angle)) ** 2
        weights = np.array([c2, 0.0, 1.0 - c2, 0.0])
    elif kind == "alpha-zero":
        angle = _check_range("beta", angle, 0.0, 2.0 * np.pi)
        c2 = float(np.cos(angle)) ** 2
        weights = np.array([c2, 0.0, 0.0, 1.0 - c2])
    elif kind == "alpha-half-pi":
        angle = _check_range("delta", angle, 0.0, 2.0 * np.pi)
        c2 = float(np.cos(angle)) ** 2
        weights = np.array([0.0, 1.0 - c2, c2, 0.0])
    else:
        raise RangeError(
            "kind must be one of 'beta-delta-zero', 'alpha-zero', "
            f"'alpha-half-pi'; got {kind!r}"
        )
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
    q = _check_range("q", q, 0.0, 1.0)
    gamma = _check_range("gamma", gamma, 0.0, 1.0)
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


def _damping_steps(q: float, gamma: float, tol: float):
    """``pauli_distance_damping`` as steps (see ``sdp._run_all``)."""
    paulis = pauli_unitaries()
    endpoints = (paulis[0], mix(paulis[1:3], [0.5, 0.5]))
    res = yield from _convex_approx_steps(damping(q, gamma), endpoints, tol)
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
    certified product distance holds to the tolerance: the accelerated search
    moved the phase-gate study's weights from 0.771677 / 0.771617 (plain
    alternation) to 0.771644 / 0.771644 and its distance by 5e-10.  The
    single-copy optimum is flat as well: solving the phase-gate study on its
    invariant sectors instead of the full space moved the single-copy weights
    by 4e-6, and with them the tensored distance by 8.2e-7, within tol.
    """
    if copies != 2:
        raise RangeError(f"copies={copies} unsupported; only copies=2 is implemented")
    _check_tol(tol)
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
