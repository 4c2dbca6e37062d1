"""Optimal convex approximation of channels over the probability simplex.

Minimizes the diamond distance between a target channel and convex
mixtures of an approximating set, and provides the closed-form distances
and two-sided bounds known for structured families (covariant targets,
Pauli sets, damping channels, two parallel copies).

Every simplex problem takes one certified route.  A joint interior-point
solve of  max t  s.t.  t <= Tr[Delta_i W]  over the diamond-norm feasible
set returns the optimal mixture weights with a certified lower bound on
the optimum (by duality its optimum equals
min_p ||sum_i p_i Delta_i||_diamond).  The joint weights are re-certified
by a fixed-objective solve and compared with the certified simplex
vertices; the best measured candidate is returned, and ties within 1e-9
keep the joint weights, so results are deterministic.  A candidate more
than 1e-4 above the joint lower bound raises ``NoConvergenceError``.
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
from .diamond import DiamondResult, _diamond_of_delta, d_i_unitary
from .errors import DimMismatchError, NoConvergenceError, RangeError
from .linalg import trace_norm

_MAX_SET = 8
_OPT_SLACK = 1e-4


@dataclass(frozen=True)
class ApproxResult:
    """Optimal convex mixture of an approximating set for a target channel.

    ``weights`` lie on the probability simplex; ``distance`` is the
    certified diamond distance between the target and the weighted
    mixture; ``upper_bound_single`` is the best single-member distance
    (a mixture can only do better); ``lower_bound_choi`` is the
    simplex-minimized Choi trace-distance lower bound; ``witness`` holds
    the input state and measurement operator certifying ``distance``;
    ``iterations`` counts the interior-point iterations of the joint
    minimax solve that produced the weights (0 when the target is a
    member of the set).
    """

    weights: np.ndarray
    distance: float
    upper_bound_single: float
    lower_bound_choi: float
    witness: DiamondResult
    iterations: int


def _inner_tol(tol: float) -> float:
    """Check a mixture-optimization tolerance; return its inner-solve tolerance."""
    if not 1e-6 <= tol < np.inf:
        raise RangeError(f"tolerance {tol:g} must be finite and at least 1e-6")
    return max(1e-9, min(1e-7, 0.1 * tol))


def optimal_convex_approx(target: Channel, set, tol: float) -> ApproxResult:
    """Closest convex mixture of ``set`` to ``target`` in diamond norm.

    Requires matching dimensions, 1..8 set members, and a finite
    tol >= 1e-6.  The returned weights are certified within 1e-4 of the
    simplex optimum by the joint interior-point lower bound; the embedded
    witness certifies the reported distance at those weights.
    """
    members = list(set)
    if not 1 <= len(members) <= _MAX_SET:
        raise RangeError(
            f"approximating set must have 1..{_MAX_SET} members, got {len(members)}"
        )
    inner_tol = _inner_tol(tol)
    d = target.dim
    if any(ch.dim != d for ch in members):
        raise DimMismatchError("approximating set dimension differs from target")
    k = len(members)
    target_choi = choi(target)
    delta_stack = np.stack([target_choi - choi(ch) for ch in members])

    # Exact membership: all weight on the matching member, distance zero.
    for i in range(k):
        if trace_norm(delta_stack[i]) <= 1e-12 * d:
            weights = np.zeros(k)
            weights[i] = 1.0
            witness = _diamond_of_delta(delta_stack[i], d, inner_tol)
            return ApproxResult(
                weights=prob_vector(weights),
                distance=0.0,
                upper_bound_single=witness.value,
                lower_bound_choi=0.0,
                witness=witness,
                iterations=0,
            )

    def certify(p: np.ndarray) -> DiamondResult:
        return _diamond_of_delta(np.tensordot(p, delta_stack, axes=(0, 0)), d, inner_tol)

    vertices = [(p, certify(p)) for p in np.eye(k)]
    upper_bound_single = min(res.value for _, res in vertices)

    joint = sdp.solve_minimax(delta_stack, d, 1e-8)
    trace_joint = sdp.solve_minimax_trace(delta_stack, 1e-8)
    lower_bound_choi = max(0.0, trace_joint.primal / d)

    candidates = []
    if joint.weights is not None:
        candidates.append((joint.weights, certify(joint.weights)))
    candidates += vertices

    best_w, best_res = candidates[0]
    for w, res in candidates[1:]:
        if res.value < best_res.value - 1e-9:
            best_w, best_res = w, res

    if not best_res.value <= joint.primal + _OPT_SLACK:
        raise NoConvergenceError(
            f"optimizer reached {best_res.value:.9f} but the certified optimum "
            f"is at least {joint.primal:.9f}"
        )
    return ApproxResult(
        weights=prob_vector(best_w),
        distance=best_res.value,
        upper_bound_single=upper_bound_single,
        lower_bound_choi=min(lower_bound_choi, best_res.value),
        witness=best_res,
        iterations=joint.iterations,
    )


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
    ``damping_bounds``.  ``upper_bound_single`` and ``lower_bound_choi``
    refer to the two endpoints, not to the four Pauli conjugations.

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
    paulis = pauli_unitaries()
    endpoints = (paulis[0], mix(paulis[1:3], [0.5, 0.5]))
    res = optimal_convex_approx(damping(q, gamma), endpoints, tol)
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


def multi_copy_approx(target: Channel, single_set, copies: int, tol: float) -> MultiCopyResult:
    """Approximate two independent uses of a qubit channel three ways.

    Computes (a) the optimal correlated mixture over all tensor products
    of set members, (b) the best independent product of per-copy mixtures
    (alternating certified per-copy solves, initialized at the single-copy
    optimum), and (c) the single-copy optimal mixture applied to both
    copies.  Only ``copies=2`` is supported.
    """
    if copies != 2:
        raise RangeError(f"copies={copies} unsupported; only copies=2 is implemented")
    inner_tol = _inner_tol(tol)
    members = list(single_set)
    if target.dim != 2 or any(ch.dim != 2 for ch in members):
        raise DimMismatchError("two-copy approximation requires qubit channels")

    single = optimal_convex_approx(target, members, tol)
    pair_target = tensor(target, target)
    pair_choi = choi(pair_target)

    # (c) the single-copy optimum tensored with itself.
    base = mix(members, single.weights)
    tensored_res = _diamond_of_delta(pair_choi - choi(tensor(base, base)), 4, inner_tol)

    # (a) correlated mixture over the product set, first factor major.
    pair_set = [tensor(ci, cj) for ci in members for cj in members]
    correlated = optimal_convex_approx(pair_target, pair_set, tol)

    # (b) independent per-copy mixtures by alternating certified solves;
    # each half-step is a convex simplex problem for one copy's weights.
    def copy_solve(fixed_other: Channel, left_side: bool):
        if left_side:
            deltas = [pair_choi - choi(tensor(ch, fixed_other)) for ch in members]
        else:
            deltas = [pair_choi - choi(tensor(fixed_other, ch)) for ch in members]
        sol = sdp.solve_minimax(deltas, 4, 1e-8)
        if sol.weights is None:
            return None, np.inf
        return sol.weights, sol.dual

    q_left = single.weights.copy()
    q_right = single.weights.copy()
    prev_value = np.inf
    for _ in range(25):
        w, _ = copy_solve(mix(members, q_right), left_side=True)
        if w is not None:
            q_left = w
        w, value = copy_solve(mix(members, q_left), left_side=False)
        if w is not None:
            q_right = w
        if prev_value - value <= 1e-9:
            break
        prev_value = value
    product_delta = pair_choi - choi(tensor(mix(members, q_left), mix(members, q_right)))
    product_res = _diamond_of_delta(product_delta, 4, inner_tol)

    if (
        correlated.distance > product_res.value + tol
        or product_res.value > tensored_res.value + tol
    ):
        raise NoConvergenceError(
            "two-copy distances violate the correlated <= product <= tensored "
            f"ordering: {correlated.distance:.9f}, {product_res.value:.9f}, "
            f"{tensored_res.value:.9f}"
        )
    return MultiCopyResult(
        correlated=correlated,
        product_witness=product_res,
        product_weights=(prob_vector(q_left), prob_vector(q_right)),
        tensored_witness=tensored_res,
        single=single,
    )
