"""Property checks shared by the module tests and the acceptance suite.

Each ``check_*`` function is self-contained and deterministic: it draws its
own seeded random instances, verifies one structural property of the public
API, and raises ``AssertionError`` with a diagnostic message on failure.
"""

from __future__ import annotations

import numpy as np

from chanapprox import (
    approx_bounds,
    choi,
    choi_trace_distance,
    compose,
    covariant,
    damping,
    diamond_sdp,
    mix,
    optimal_convex_approx,
    pauli_channel,
    pauli_unitaries,
    trace_norm,
    unitary_channel,
    unitary_qubit,
)
from chanapprox import sdp
from chanapprox.channels import PAULI

import helpers


def check_distance_unitary_invariance(seed: int = 11, pairs: int = 5) -> float:
    """Diamond distance is unchanged by unitary pre- and post-processing."""
    gen = helpers.rng(seed)
    tol = 1e-7
    worst = 0.0
    for _ in range(pairs):
        a = helpers.random_channel(2, 2, gen)
        b = helpers.random_channel(2, 2, gen)
        u = unitary_channel(helpers.random_unitary(2, gen))
        v = unitary_channel(helpers.random_unitary(2, gen))
        base = diamond_sdp(a, b, tol=tol).value
        conj = diamond_sdp(compose(u, compose(a, v)), compose(u, compose(b, v)), tol=tol).value
        worst = max(worst, abs(base - conj))
        assert abs(base - conj) <= 2 * tol, (
            f"unitary conjugation moved the distance by {abs(base - conj):.3e}"
        )
    return worst


def check_bound_ordering(seed: int = 12, instances: int = 30) -> float:
    """``approx_bounds`` sandwiches the optimal mixing distance.

    For every instance: the Choi-based lower bound is below the distance,
    the best single-member distance is above it, and the Choi trace
    distance to the returned mixture never exceeds the certified value.
    """
    gen = helpers.rng(seed)
    tol = 1e-6
    worst = 0.0
    for _ in range(instances):
        target = helpers.random_channel(2, 2, gen)
        members = [
            helpers.random_channel(2, 2, gen) for _ in range(int(gen.integers(2, 9)))
        ]
        res = optimal_convex_approx(target, members, tol=tol)
        upper, lower = approx_bounds(target, members, res.distance)
        assert lower <= res.distance + tol, (
            f"lower bound {lower} exceeds distance {res.distance}"
        )
        assert res.distance <= upper + tol, (
            f"distance {res.distance} exceeds single-member bound {upper}"
        )
        ctd = choi_trace_distance(target, mix(members, res.weights))
        assert ctd <= res.distance + tol, (
            f"Choi trace distance {ctd} exceeds diamond distance {res.distance}"
        )
        worst = max(worst, lower - res.distance, ctd - res.distance)
    return worst


def check_simplex_convexity(seed: int = 13, instances: int = 3) -> float:
    """Distance to a mixture is convex in the mixing weights."""
    gen = helpers.rng(seed)
    tol = 1e-7
    worst = 0.0
    for _ in range(instances):
        target = helpers.random_channel(2, 2, gen)
        members = [helpers.random_channel(2, 2, gen) for _ in range(3)]

        def dist(w: np.ndarray) -> float:
            return diamond_sdp(target, mix(members, w), tol=tol).value

        p = helpers.random_simplex(3, gen)
        q = helpers.random_simplex(3, gen)
        dp, dq = dist(p), dist(q)
        for lam in (0.25, 0.5, 0.75):
            mid = dist(lam * p + (1 - lam) * q)
            bound = lam * dp + (1 - lam) * dq
            worst = max(worst, mid - bound)
            assert mid <= bound + 2 * tol, (
                f"convexity violated: D(mix)={mid} > {bound} at lambda={lam}"
            )
    return worst


def check_angle_symmetries(seed: int = 14, points: int = 10) -> float:
    """The Pauli-approximation distance of a qubit unitary has the expected
    reflection and shift symmetries in its three angles."""
    gen = helpers.rng(seed)
    members = pauli_unitaries()
    worst = 0.0
    for _ in range(points):
        alpha, beta, delta = gen.uniform(0.0, np.pi / 2, size=3)

        def dist(a: float, b: float, d: float) -> float:
            res = optimal_convex_approx(unitary_qubit(a, b, d), members, tol=1e-6)
            return res.distance

        base = dist(alpha, beta, delta)
        variants = [
            dist(alpha, np.pi / 2 - beta, delta),
            dist(alpha, np.pi / 2 + beta, delta),
            dist(alpha, beta, np.pi / 2 - delta),
            dist(alpha, beta, np.pi / 2 + delta),
            dist(np.pi / 2 - alpha, delta, beta),
        ]
        for val in variants:
            worst = max(worst, abs(val - base))
            assert abs(val - base) <= 2e-6, (
                f"symmetry broken at ({alpha}, {beta}, {delta}): "
                f"{val} vs {base}"
            )
    return worst


def check_pauli_choi_bell_diagonal(seed: int = 15, instances: int = 10) -> float:
    """Choi matrices of Pauli channels are diagonal in the Bell basis, with
    the mixing weights (times the input dimension) on the diagonal."""
    gen = helpers.rng(seed)
    eta = np.zeros(4, dtype=complex)
    eta[0] = eta[3] = 1.0  # unnormalized maximally entangled vector
    bell = np.column_stack(
        [(np.kron(s, np.eye(2)) @ eta) / np.sqrt(2.0) for s in PAULI]
    )
    worst = 0.0
    for _ in range(instances):
        p = helpers.random_simplex(4, gen)
        r = bell.conj().T @ pauli_channel(p).choi @ bell
        off = r - np.diag(np.diag(r))
        dev = max(
            float(np.max(np.abs(off))),
            float(np.max(np.abs(np.diag(r).real - 2 * p))),
        )
        worst = max(worst, dev)
        assert dev <= 1e-10, f"Choi not Bell-diagonal: deviation {dev:.3e}"
    return worst


def check_covariant_commutes_with_unitaries(seed: int = 16, count: int = 20) -> float:
    """The covariant channel commutes with every unitary conjugation."""
    gen = helpers.rng(seed)
    worst = 0.0
    for p in (0.0, 0.3, 0.75, 1.0):
        ch = covariant(p)
        for _ in range(count):
            u = helpers.random_unitary(2, gen)
            rho = helpers.random_density(2, gen)
            lhs = ch(u @ rho @ u.conj().T)
            rhs = u @ ch(rho) @ u.conj().T
            dev = float(np.max(np.abs(lhs - rhs)))
            worst = max(worst, dev)
            assert dev <= 1e-9, f"covariance broken at p={p}: deviation {dev:.3e}"
    return worst


def check_damping_phase_covariance(seed: int = 17, instances: int = 20) -> float:
    """The damping channel commutes with phase rotations diag(1, e^{i phi})."""
    gen = helpers.rng(seed)
    worst = 0.0
    for _ in range(instances):
        q = float(gen.uniform(0.0, 1.0))
        gamma = float(gen.uniform(0.0, 1.0))
        phi = float(gen.uniform(0.0, 2 * np.pi))
        phase = unitary_channel(np.diag([1.0, np.exp(1j * phi)]))
        ch = damping(q, gamma)
        lhs = compose(ch, phase).choi
        rhs = compose(phase, ch).choi
        dev = float(np.max(np.abs(lhs - rhs)))
        worst = max(worst, dev)
        assert dev <= 1e-9, (
            f"phase covariance broken at q={q}, gamma={gamma}, phi={phi}: "
            f"deviation {dev:.3e}"
        )
    return worst


def check_duc_sector_bracket_overlap(seed: int = 19, families: int = 2) -> float:
    """Diagonal-unitary-covariant families solve on their invariant sectors,
    and the sector bracket overlaps the full program's.

    Families of four random diagonal unitaries, and of four random
    damping/dephasing channels, at d=2 and d=4: the differences from the
    first build the sector program, for the minimax over all three and for
    the fixed objective of the first, and each sector bracket meets the
    full program's bracket on the same differences. Returns the largest
    distance between the two midpoints.
    """
    gen = helpers.rng(seed)
    worst = 0.0
    for d in (2, 4):
        for make in (helpers.random_diagonal_unitary, helpers.random_damping_dephasing):
            for _ in range(families):
                target, *members = (make(d, gen) for _ in range(4))
                deltas = [choi(target) - choi(ch) for ch in members]
                for family in (deltas, deltas[:1]):
                    prog = sdp._program(family, d)
                    assert isinstance(prog, sdp._SectorProgram), (
                        f"{make.__name__} family at d={d} built the full program"
                    )
                    sector = sdp._solve_ipm(prog, 1e-8)
                    full = sdp._solve_ipm(sdp._Program(family, d), 1e-8)
                    assert max(sector.primal, full.primal) <= min(sector.dual, full.dual), (
                        f"{make.__name__} at d={d} ({len(family)} members): sector "
                        f"[{sector.primal}, {sector.dual}] misses full "
                        f"[{full.primal}, {full.dual}]"
                    )
                    mid = 0.5 * (sector.primal + sector.dual - full.primal - full.dual)
                    worst = max(worst, abs(mid))
    return worst


def check_mixed_reference_bracket_is_a_true_bracket(seed: int = 20, pairs: int = 4) -> float:
    """The closed-form bracket at the maximally mixed reference meets the
    interior-point bracket of the same Delta.

    Seeded random channel pairs at d=2 and d=4, of Kraus ranks 1 to 3, so
    that some close (qubit unitary pairs) and most do not: the closed-form
    lower side stays below the interior-point upper side, and the
    interior-point lower side below the closed-form upper side, each up to a
    roundoff of n eps ||Delta||_1. Returns the largest excess.
    """
    gen = helpers.rng(seed)
    eps = np.finfo(float).eps
    ranks = ((1, 1), (2, 3), (1, 2), (3, 3))
    worst = 0.0
    for d in (2, 4):
        for i in range(pairs):
            a, b = (helpers.random_channel(d, k, gen) for k in ranks[i % len(ranks)])
            delta = choi(a) - choi(b)
            (closed,) = sdp._mixed_reference_solution([[delta]], [[1.0]], d)
            ipm = sdp._solve_ipm(sdp._program([delta], d), 1e-8)
            roundoff = d * d * eps * trace_norm(delta)
            excess = max(closed.primal - ipm.dual, ipm.primal - closed.dual)
            worst = max(worst, excess)
            assert excess <= roundoff, (
                f"d={d} pair {i}: closed form [{closed.primal}, {closed.dual}] "
                f"misses the solve's [{ipm.primal}, {ipm.dual}]"
            )
    return worst


ALL_CHECKS = (
    check_distance_unitary_invariance,
    check_bound_ordering,
    check_simplex_convexity,
    check_angle_symmetries,
    check_pauli_choi_bell_diagonal,
    check_covariant_commutes_with_unitaries,
    check_damping_phase_covariance,
    check_duc_sector_bracket_overlap,
    check_mixed_reference_bracket_is_a_true_bracket,
)


if __name__ == "__main__":
    for check in ALL_CHECKS:
        print(f"{check.__name__}: max deviation {check():.3e}")
