"""Dense primal-dual interior-point solver for the package's block SDPs.

Every program has one shape: maximize b.y over a real vector y subject to
a signed pair of n x n blocks, a list of further blocks r and k >= 0
scalar rows,

    S_j(y) = C_j - sign_j H(y) - sum_l y[off + l] F_l >= 0     (j = 1, 2),
    S_r(y) = C_r - sum_l y[off_r + l] F_r,l >= 0,
    s(y) = h - G y >= 0,

where H(y) is the Hermitian n x n matrix whose coordinates in an
orthonormal basis are y[:n^2] and sign_j is +1 or -1. The pair's
generators F act on the other coordinates; a further block's F_r may act
on any. Any generator stack may be empty. ``_BlockProgram`` implements
the slacks, A^T(y), its adjoint A(X) and the Schur matrix once from the
data (C, sign, F, C_r, F_r, h, G); each program adds only its starting
point, its shape key, its dual projection and the certificate (witness and
weights) of its best bracket.

1. Minimax over a family {Delta_i} of Hermitian matrices on a doubled
   space, reference dimension d: maximize t subject to Tr[Delta_i W] >= t,
   I (x) rho -+ W >= 0 and rho >= 0 with Tr rho = 1. y = (W, traceless
   part of rho, t); the pair has C = (I/d, I/d), signs +1, -1 and
   generators -I (x) F_l over an orthonormal traceless basis F_l, and one
   further block, the reference block rho, with C = I/d and generators
   -F_l; h = 0 and G has one row (-coords(Delta_i), 0, 1) per member. The
   members' scalar duals, normalized, are the optimal mixture weights of
   min over the simplex of the diamond norm of the mixed Delta. A fixed
   objective (the diamond norm of one Delta) is the family of one. At
   d = 1 the reference block is the constant [1] with no generators, the
   constraint reads -I <= W <= I, and the optimum is min over the simplex
   of the trace norm of the mixed Delta. When every Delta_i is exactly
   real (the Choi differences of channels with real Kraus operators, such
   as damping and Pauli channels and their products), complex conjugation
   maps a feasible (W, rho) to a feasible (conj W, conj rho) of the same
   value, so the average (Re W, Re rho) is optimal: the optimum is real
   symmetric (Gatermann & Parrilo, J. Pure Appl. Algebra 2004). The
   program is then solved on real symmetric W and rho: y = (the n(n+1)/2
   diagonal and real upper coordinates of W, the d(d+1)/2 - 1 real
   traceless coordinates of rho, t), the leading coordinates of both bases,
   so m = 146 instead of 272 at n = 16. Nothing is lost, and both sides
   hold on the complex space: the real witness is feasible there, and the
   projected dual bound needs only X1 - X2 = Delta with X1, X2 >= 0
   (Watrous, arXiv:1207.5726). One exact test of the stacked imaginary
   parts selects this form. Its members, blocks C, generators, starting
   point and Schur buffers are then float64 arrays, so every iterate stays
   real and each eigh, inv and matmul of the solve runs in real arithmetic;
   the witness becomes complex128 once, in ``certificate``. Program 3 and
   program 2 stay complex on real data.
2. The dual of the one-member program (Watrous, arXiv:1207.5726): minimize
   t subject to V >= 0, Delta + V >= 0 and t I - Tr_1[Delta + 2 V] >= 0.
   y = (V, -t); the pair has C = (0, Delta), signs -1, -1 and no
   generators; the one further block, t I - Tr_1[Delta + 2 V], has
   C = -Tr_1[Delta] and generators 2 Tr_1[E_j] over the basis matrices
   E_j, then I. There are no scalar rows.
3. Program 1 on the invariant sectors of a diagonal-unitary-covariant
   family at n = d^2, whose every Delta_i is exactly zero outside the
   |aa><bb| entries and the diagonal, at reference dimension d or 1.
   Conjugation by U (x) conj(U), U diagonal unitary, fixes each Delta_i
   and maps the feasible set onto itself, so the group average of an
   optimal (W, rho) is optimal, with rho = diag(p) and W one d x d block
   W_0 on the |aa> sector plus one real w_ab on each |ab>, a != b
   (Gatermann & Parrilo, J. Pure Appl. Algebra 2004; Singh & Nechita,
   Quantum 2021). A pair is kept only if some Delta_i has a nonzero
   |ab><ab| entry: otherwise w_ab = 0 loses nothing. y = (W_0, the kept
   w_ab, traceless part of p, t) with n = d; the pair diag(p) -+ W_0 with
   signs +1, -1 and no further block. Every other constraint is a
   nonnegative scalar, so a scalar row: after the members' rows of 1 (on
   these coordinates, h = 0), p_b - w_ab and p_b + w_ab for each kept pair,
   b the reference index of |ab>, then p_b for each b, all with h one over
   the reference dimension. The p_b rows are implied by the pair but keep
   the path short: without them fig3 takes 10087 iterations, not 9554. At
   reference dimension 1, p is the constant [1]: the pair is I -+ W_0 and
   the rows 1 -+ w_ab and 1, with no p coordinates. Both sides answer for
   the full program: the witness is W lifted with zeros off the sectors
   and rho = diag(p), and the bound is lambda_max(Tr_1[X1 + X2]) of the
   lifted duals, max_b [(X1 + X2)_bb + sum_{a != b} (x-_ab + x+_ab)] over
   the reference index b of each entry, so a sum over b at reference
   dimension 1; it is valid because Delta is exactly zero where the lift
   puts zeros. ``_program`` builds this form whenever one exact-zero test
   on the stacked Delta_i allows it.

A fixed objective is first bracketed in closed form at the maximally mixed
reference, before program 1 is built (``_mixed_reference_solution``), and
so is a family at given weights p. The bracket is a request, as a program
is (see Batches below), so a sweep evaluates the brackets of a window in
one stack. rho = I/d and
W0 = (1 - 1e-14) (2 P+ - I) / d, P+ the projector onto the positive
eigenspace of Delta(p) = sum_i p_i Delta_i, are feasible, the factor
absorbing the roundoff of the eigenvectors, and give the lower bound
min_i Tr[Delta_i W0]. The kernel of Delta(p) goes to -1, where a member of
zero weight gains; for one Delta, W0 = (1 - 1e-14) sign(Delta) / d. The
dual pair X1 = Delta(p)_+, X2 = Delta(p)_- gives the upper bound
lambda_max(Tr_1|Delta(p)|), computed by ``_fixed_upper`` as the projected
bound of a dual iterate is. Neither side needs p to be optimal: the width
of the bracket is the proof (weak duality; Watrous, arXiv:1207.5726). For
one Delta the two sides meet, up to the factor, exactly when Tr_1|Delta| is
a multiple of I. That holds for every qubit unitary pair (Tr_1 of the
projector onto span{vec U, vec V} is a multiple of I at d = 2); for a qubit
unitary against the covariant family, as measured on every fig1 row; and,
by Schur's lemma, for every Delta invariant under a unitary group that acts
irreducibly on the input, such as the difference of two Pauli channels.
For a qubit unitary against Pauli unitaries they meet at the water-filling
weights of ``approx`` (every fig2 row, within 3e-13). A bracket within tol
is the answer, with 0 iterations.

A Delta of two channels with one Kraus operator each, K and L, whose
closed form stays open, is bracketed next from the eigenvalues of
W = V^H U, U and V the polar factors of K and L
(``_unitary_pair_solution``; Acin, PRL 87, 177901, 2001). The lower side
is ``_best_at_state`` at the reference state that puts the weights of the
point z of the eigenvalues' convex hull nearest 0 on W's eigenvectors; the
upper side is 2 sqrt(1 - m^2), m the least eigenvalue of the Hermitian
part of e^-i theta W, theta the angle of z, with allowances for roundoff
and for the distance of K and L from U and V. It needs no inverse of rho,
so a singular state is fine. A bracket within tol is the answer, with 0
iterations; a wider one goes on as below. ``solve_fixed`` takes no Kraus
operators, so it never tries this bracket.

A single Delta whose closed form stays open, and which program 3 does not
take (it is not DUC), goes on to a short iteration over the reference
state (``_reference_iteration``) whose iteration 0 is that closed form. At
a full-rank rho, with R = I (x) sqrt(rho), W = (1 - 1e-14) R sign(R Delta R)
R gives the lower side ||R Delta R||_1 (``_best_at_state``, which the dual
program's projection shares), and the dual pair X+- = R^-1 (R Delta R)_+-
R^-1 gives the upper side lambda_max(Tr_1[X+ + X-]) through
``_fixed_upper``. The two meet where Tr_1|R Delta R| = ||R Delta R||_1 rho,
the fixed point of rho <- Tr_1|R Delta R| / ||R Delta R||_1 (Blahut 1972;
Arimoto 1972). The first iterate whose own bracket is within tol is the
answer, again with 0 iterations: ``SdpSolution.iterations`` counts
interior-point iterations only. The iteration gives up on a singular or
non-finite rho (a rank-deficient optimum cannot close this way) and, from
iteration 5, when the gap's contraction over the last 5 iterations
predicts more than 100 in all. Any Delta left open is solved as if neither
had been tried: no bracket of theirs enters the solve's best bracket.
An exactly real Delta (the test of program 1) enters the iteration, and
then program 1, as a float64 array, so each iterate's eigensolves are
real; the closed forms at I/d and of unitary pairs and the dual program
keep complex arithmetic, so every result that closes at I/d keeps the bits
of the complex route. The iteration hands back its witness as complex128,
as the engine does.

The engine follows the standard path-following scheme with the HKM search
direction and a Mehrotra predictor-corrector step. The step length to the
boundary of a block P along dP is -1/lambda_min(P^-1/2 dP P^-1/2), read
from one eigendecomposition of P (Toh, Todd & Tutuncu, SDPT3, 1999).

The Schur matrix M_ij = sum_s Re Tr[A_s,i X_s A_s,j Z_s] is closed-form on
the Hermitian coordinates, where A_s,i = sign_s E_i with sign_s^2 = 1 on
the two blocks s of the pair (Fujisawa, Kojima & Nakata, Math. Program.
1997, formulas F1-F3). Each basis matrix E_i has at most two nonzero
entries, so M_ij = Re Tr[E_j R_i^T] with R_i[c, d] = sum_s sum_ab (E_i)_ab
X_s[b, c] Z_s[d, a], a sum of at most two outer products per block. E_j is
Hermitian, so also M_ij = Re Tr[E_j W_i^T] / 2 with W_i = R_i + R_i^H:
column j reads one diagonal or upper-triangle entry of the Hermitian W_i.
All nh matrices W_i, one per coordinate (n^2, or n(n+1)/2 for a real
program, which reads no imaginary column), are one batched product of rows
gathered from the X_s and Z_s, with inner dimension 8 (4 per block of the
pair): O(n^4) work, where n^2 products X_s E_j Z_s took O(n^5). The
gathered rows, the W_i, their upper triangles and M before symmetrization
live in buffers that a program allocates once per stack shape (3.2 MB at
n = 16, 0.86 MB for a real program, whose buffers are float64); a program
therefore serves one solve at a time, and separate programs solve
concurrently. Arrays of that size allocated per iteration instead are
returned to the system by glibc and faulted in again on every use.

Each iteration factors the Schur matrix M once: M = L L^T by Cholesky after
a 1e-13 trace-relative ridge, then L^-1 by halves, so the predictor and the
corrector cost only products x = L^-T L^-1 r, each refined twice against M
itself. M is never inverted explicitly: it turns ill-conditioned as the
barrier parameter drops, and its inverse, with the same refinement, ran the
dual-program fallback three times as often.

The y-iterate is kept exactly feasible (slacks recomputed from y each
iteration), so b.y is always a true lower bound; upper bounds come from an
exact-feasibility projection of the dual iterate. The solver is
deterministic: fixed starting point, no randomization.

The projected upper bound carries a small numerical floor (the dual iterate
picks up roundoff infeasibility that scales like eps over the barrier
parameter). When a bracket on the diamond norm of one Delta needs a
tighter certificate than that floor, ``_closing_steps`` recomputes the
upper bound with program 2 on the full space, whose objective is again
evaluated at an exactly feasible point, so both sides of the final
certificate are exact. Its dual iterate gives a second lower bound: the
best W at the iterate's reference state, in closed form (``_best_at_state``).
A stalled one-member solve (``solve_fixed``) closes this way, and so does a
stalled joint minimax solve at the mixed Delta(p) of its weights: its
witness has Tr[Delta(p) W] >= t and its upper side bounds the norm of
Delta(p). Every certified distance therefore takes at most two solves.

Batches. ``_solve_batch`` solves programs of one shape as one stack: one
class, n, reference dimension, member count, real or complex form and, for
program 3, kept pairs (``shape_key``). ``_stack`` gives their per-problem
data (b, G, every C and the members Delta_i) a leading axis, and h, fixed
by the shape, is shared; every map above takes and returns stacks, and
every step below acts on them, so ``_solve_ipm`` is the stack of one and
there is one engine. The
equal-size blocks of a program share their calls (two n x n blocks: one
eigh, inv or matmul), and so do X and S in the step length. Each problem
keeps the stop rules and the best bracket of a solve of its own, and leaves
the stack at the iteration where that solve stops. A stacked ``np.linalg``
call raises ``LinAlgError`` for the whole stack when one slice fails, so a
failed stage of the iteration runs again on halves of the stack until each
failing problem is alone; only those stop. Results do not depend on the
batch: every per-problem product is one slice of a stacked call, (B, 1, l)
@ (l, s) and never the 2-D (B, l) @ (l, s), whose blocked kernel sums in
another order, and a stacked eigh, eigvalsh, inv, cholesky or matmul gives
each slice the bits of the same call on that slice alone (einsum over a
stack does not, so traces and mixtures are matmul products). A problem
therefore gets the same bits alone, in any batch and at any place in it.
``_run_all`` drives step generators, each of which yields the requests its
answer needs and receives their answers: engine programs, closed-form
brackets at rho = I/d (``_Bracket``), and the Choi differences of a sweep
row's channels (``channels._ChoiDifferences``). In windows of
``_MAX_BATCH`` generators it answers the requests pending in a round
grouped by ``shape_key``, each group by one call of its class's
``answer``: the programs of one shape as one stack of ``_solve_batch``,
the brackets of one member count, n and reference dimension as one call of
``_mixed_reference_solution``, which never enters the engine, and the Choi
requests of one family pair as one stacked build of the rows' Kraus
operators and Choi matrices, which checks their parameters once. Each of
these steps is a stacked call, each bracket family keeps its own kernel
threshold, and the Choi build sums each row's operators in order, so every
request has the bits it has alone. A group whose answer raises (a row's
parameter out of range) is answered request by request, and only the
requests whose answers raise fail, each in its own generator. ``_run``
drives one generator, answering each request as it comes: a program by
``_solve_ipm``, the stack of one, any other request as a stack of one.
Every single distance and every simplex problem of ``diamond`` and
``approx`` is such a generator, so neither module answers a request itself,
and one result has the same bits from ``_run`` as from any window of
``_run_all``. ``approx.approx_bounds`` and ``approx.multi_copy_approx``
are not generators: they put several results together, each driven by its
own ``_run``.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DimMismatchError, NoConvergenceError, RangeError
from .linalg import _nearest_hull_point, _require_square

_SQRT2 = np.sqrt(2.0)
_MAX_ITER = 100
_TRI_INV_BASE = 64
_MAX_BATCH = 64
_REFERENCE_CAP = 100


# ---------------------------------------------------------------------------
# Orthonormal real coordinates for Hermitian matrices.


def extract_coords(t: np.ndarray) -> np.ndarray:
    """Coordinates Re Tr[E_k t] in the orthonormal Hermitian basis.

    Basis order: the n diagonal units e_ii, then (e_ij + e_ji)/sqrt2 and
    i(e_ij - e_ji)/sqrt2 over the upper triangle. For Hermitian t this is
    the isometric real vectorization (inverse of expand_coords). A stack
    of matrices gives one coordinate vector per matrix. A real t gives only
    the leading n(n+1)/2 coordinates: its imaginary ones are zero.
    """
    n = t.shape[-1]
    real = t.dtype.kind != "c"
    first, second, sign, divisor = _extract_tables(n, real)
    width = n * n if real else 2 * n * n  # complex: real and imaginary parts interleaved
    parts = np.ascontiguousarray(t).view(float).reshape(t.shape[:-2] + (width,))
    return (parts.take(first, axis=-1) + sign * parts.take(second, axis=-1)) / divisor


@lru_cache(maxsize=None)
def _extract_tables(n: int, real: bool):
    """Every coordinate of extract_coords is (first + sign * second) /
    divisor over the real and imaginary parts of the entries, interleaved:
    Re t_ii, then (Re t_ij + Re t_ji) / sqrt2, (Im t_ij - Im t_ji) / sqrt2.
    ``real``: the leading coordinates, over the entries of a real t."""
    iu, ju = np.triu_indices(n, 1)
    r = np.arange(n)
    # positions of Re t_aa, Re t_ij and Re t_ji; Im follows each Re
    diag, upper, lower = 2 * (r * n + r), 2 * (iu * n + ju), 2 * (ju * n + iu)
    first = np.concatenate([diag, upper, upper + 1])
    second = np.concatenate([diag, lower, lower + 1])
    sign = np.concatenate([np.zeros(n), np.ones(iu.size), -np.ones(iu.size)])
    divisor = np.concatenate([np.ones(n), np.full(2 * iu.size, _SQRT2)])
    if real:
        count = n + iu.size
        first, second = first[:count] // 2, second[:count] // 2
        sign, divisor = sign[:count], divisor[:count]
    for arr in (first, second, sign, divisor):
        arr.setflags(write=False)
    return first, second, sign, divisor


def expand_coords(w: np.ndarray, n: int) -> np.ndarray:
    """Hermitian matrix with the given basis coordinates; a stack of
    coordinate vectors gives one matrix per vector. A leading part of the
    coordinates sets the rest to zero: at most the first n(n+1)/2 give a
    real symmetric matrix, as a real array."""
    count = w.shape[-1]
    source, scale = _expand_tables(n, count)
    if 2 * count <= n * (n + 1):
        return w.take(source[..., 0], axis=-1) * scale[..., 0]
    return (w.take(source, axis=-1) * scale).view(complex)[..., 0]


@lru_cache(maxsize=None)
def _expand_tables(n: int, count: int):
    """For the real and the imaginary part (last axis) of every entry of an
    n x n Hermitian matrix: the coordinate it is read from and its scale,
    +-1/sqrt2 off the diagonal and 0 for the diagonal's imaginary part and
    for every coordinate from ``count`` on."""
    iu, ju = np.triu_indices(n, 1)
    npair = iu.size
    k = np.arange(npair)
    r = np.arange(n)
    source = np.zeros((n, n, 2), dtype=np.intp)
    scale = np.zeros((n, n, 2))
    source[r, r, 0] = r
    scale[r, r, 0] = 1.0
    source[iu, ju, 0] = source[ju, iu, 0] = n + k
    scale[iu, ju, 0] = scale[ju, iu, 0] = 1.0 / _SQRT2
    source[iu, ju, 1] = source[ju, iu, 1] = n + npair + k
    scale[iu, ju, 1] = 1.0 / _SQRT2
    scale[ju, iu, 1] = -1.0 / _SQRT2
    dropped = source >= count
    source[dropped] = 0
    scale[dropped] = 0.0
    for arr in (source, scale):
        arr.setflags(write=False)
    return source, scale


@lru_cache(maxsize=None)
def _herm_basis_stack(n: int) -> np.ndarray:
    """All n^2 basis matrices as one (n^2, n, n) array."""
    e = expand_coords(np.eye(n * n), n)
    e.setflags(write=False)
    return e


@lru_cache(maxsize=None)
def _traceless_stack(d: int) -> np.ndarray:
    """Orthonormal basis of traceless Hermitian d x d matrices, (d^2-1, d, d)."""
    iu, ju = np.triu_indices(d, 1)
    npair = iu.size
    f = np.zeros((d * d - 1, d, d), dtype=complex)
    for l in range(1, d):
        norm = 1.0 / np.sqrt(l * (l + 1))
        f[l - 1, range(l), range(l)] = norm
        f[l - 1, l, l] = -l * norm
    k = np.arange(npair)
    f[d - 1 + k, iu, ju] = 1.0 / _SQRT2
    f[d - 1 + k, ju, iu] = 1.0 / _SQRT2
    f[d - 1 + npair + k, iu, ju] = 1j / _SQRT2
    f[d - 1 + npair + k, ju, iu] = -1j / _SQRT2
    f.setflags(write=False)
    return f


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, one stacked product per problem."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _trace_dot(a: np.ndarray, b: np.ndarray, axes: int = 2) -> np.ndarray:
    """Tr[A B] per matrix of a stack (axes = 2), or summed over each group
    of blocks (axes = 3); one stacked product per problem."""
    lead = a.shape[:-axes]
    return (a.reshape(lead + (1, -1)) @ b.swapaxes(-1, -2).reshape(lead + (-1, 1)))[..., 0, 0]


def _trace_out(a: np.ndarray, out: int) -> np.ndarray:
    """Partial trace over the first (output) factor of (out x ref) matrices."""
    ref = a.shape[-1] // out
    return np.trace(a.reshape(a.shape[:-2] + (out, ref, out, ref)), axis1=-4, axis2=-2)


# ---------------------------------------------------------------------------
# Program description.


class _BlockProgram:
    """Linear maps shared by every program, driven by its data.

    A program sets ``n``, ``nh``, ``m`` and ``b``, then passes ``_set_data``
    its data. ``nh`` counts the Hermitian coordinates of H: n^2, or
    n(n+1)/2 for a real program, whose H is real symmetric (the leading
    coordinates of ``extract_coords``).

    ``pair``: ``(C, signs, off, gens)`` of the two n x n blocks, C stacked
        as (2, n, n), so that block j has
        A_j(y) = signs[j] * H(y[:nh]) + sum_l y[off + l] gens[l] and
        S_j(y) = C[j] - A_j(y), with gens acting only on coordinates >= nh;
    ``others``: a list of ``(C, off, gens)``, one per further block, C as
        (1, s, s), with A(y) = sum_l y[off + l] gens[l] and S(y) = C[0] - A(y);
    ``rows``: ``(h, G)`` of the k scalar rows s(y) = h - G y, h of length k
        and G as (k, m) (k may be 0).

    Any generator stack may be empty. Every map takes and returns the
    matrices as ``[pair, *others]``, with leading axes over problems. A
    program made by ``_stack`` carries one such axis on its per-problem
    data: ``b``, ``g_rows``, every C (``c``) and the names in ``_members``;
    ``h`` is fixed by the shape and shared. ``schur`` allocates its work
    buffers once per stack shape, so a program object serves one solve at
    a time. A ``real`` program's data, iterates and buffers are all real
    (float64); every map follows the dtype of its input.
    """

    _members: tuple[str, ...] = ()
    real = False

    @staticmethod
    def answer(progs, tols) -> list:
        """The answers of same-shape program requests: one ``_solve_batch``."""
        return _solve_batch(progs, tols)

    def _set_data(self, pair, others, rows):
        pair_c, signs, pair_off, pair_gens = pair
        blocks = [(pair_c, pair_off, pair_gens)] + others
        self.c = [c for c, _, _ in blocks]
        self.signs = np.array(signs)[:, None, None]
        # per block: (off, gens, rows) with rows[l] @ X.ravel() = Tr[gens[l] X]
        self.spans = [
            (off, gens, gens.transpose(0, 2, 1).reshape(len(gens), gens.shape[-1] ** 2))
            for _, off, gens in blocks
        ]
        self.h, self.g_rows = rows
        self.block_trace = sum(c.shape[-3] * c.shape[-1] for c in self.c) + len(self.h)
        self._buffers = {}

    def _start_at(self, y):
        """Starting point: y with identity matrix duals and unit scalar duals."""
        mats = [np.broadcast_to(np.eye(c.shape[-1], dtype=c.dtype), c.shape).copy() for c in self.c]
        return y, mats, np.ones(len(self.h))

    def take(self, idx):
        """The stacked program of the problems ``idx`` of this one."""
        return _with_data(self, lambda a: a[idx])

    def slack_blocks(self, y):
        adj_mats, adj_scal = self.adjoint_blocks(y)
        return [c - a for c, a in zip(self.c, adj_mats)], self.h - adj_scal

    def adjoint_blocks(self, y):
        """Linear map A^T(y); slack_blocks(y) = slack_blocks(0) - adjoint_blocks(y)."""
        lead = y.shape[:-1]
        mats = [
            (y[..., None, off : off + len(gens)] @ gens.reshape(rows.shape)).reshape(
                lead + (1,) + gens.shape[1:]
            )
            for off, gens, rows in self.spans
        ]
        herm = expand_coords(y[..., : self.nh], self.n)[..., None, :, :]
        mats[0] = mats[0] + self.signs * herm
        return mats, (self.g_rows @ y[..., None])[..., 0]

    def apply(self, mats, scal):
        """Adjoint of adjoint_blocks: A(X) as a vector in y-space."""
        out = (scal[..., None, :] @ self.g_rows)[..., 0, :]
        for mat, (off, gens, rows) in zip(mats, self.spans):
            vec = mat.sum(axis=-3).reshape(mat.shape[:-3] + (-1, 1))
            out[..., off : off + len(gens)] += (rows @ vec)[..., 0].real
        out[..., : self.nh] += extract_coords((self.signs * mats[0]).sum(axis=-3))[..., : self.nh]
        return out

    def _schur_buffers(self, lead):
        """The work buffers of ``schur`` for iterates with leading axes ``lead``."""
        if lead not in self._buffers:
            n, nh = self.n, self.nh
            dtype = float if self.real else complex
            self._buffers[lead] = (
                np.empty(lead + (nh, 8, n), dtype=dtype),
                np.empty(lead + (nh, 8, n), dtype=dtype),
                np.empty(lead + (nh, n * n), dtype=dtype),
                np.empty(lead + (nh, n * (n - 1) // 2), dtype=dtype),
                np.empty(lead + (self.m, self.m)),
            )
        return self._buffers[lead]

    def schur(self, x_mats, z_mats, xz_scal):
        """M[i,j] = sum over blocks of Re Tr[A_i X A_j Z] plus sum_k G_ki xz_k G_kj.

        The block of the Hermitian coordinates is the closed form of the
        module docstring: ``left`` and ``right`` hold the gathered rows,
        ``w`` the nh matrices W_i, ``upper`` their upper triangles. Only
        the returned matrix is allocated per call.
        """
        n, nh = self.n, self.nh
        npair = n * (n - 1) // 2
        lead = x_mats[0].shape[:-3]
        left_rows, right_rows, coef, upper_cols = _schur_gathers(n)
        left, right, w, upper, m = self._schur_buffers(lead)
        x, z = x_mats[0], z_mats[0]

        def rows_of(*mats):  # the rows of both blocks of the pair, in order
            return np.concatenate([a.reshape(lead + (-1, n)) for a in mats], axis=-2)

        # mode="clip": with the default mode, np.take fills a copy of ``out``
        # the tables' first nh rows: the E_i of the program's coordinates
        np.take(rows_of(x, z.conj().swapaxes(-1, -2)), left_rows[:nh], axis=-2, out=left, mode="clip")
        left *= coef[:nh].real if self.real else coef[:nh]  # a real program's rows have real coef
        np.take(rows_of(z.swapaxes(-1, -2), x.conj()), right_rows[:nh], axis=-2, out=right, mode="clip")
        np.matmul(left.swapaxes(-1, -2), right, out=w.reshape(lead + (nh, n, n)))
        np.take(w, upper_cols, axis=-1, out=upper, mode="clip")
        np.multiply(w[..., :: n + 1].real, 1.0 / _SQRT2, out=m[..., :nh, :n])
        np.copyto(m[..., :nh, n : n + npair], upper.real)
        if nh > n + npair:  # the imaginary coordinates of a complex program
            np.negative(upper.imag, out=m[..., :nh, n + npair : nh])
        m[..., :nh, nh:] = 0.0
        m[..., nh:, :] = 0.0
        if self.h.size:  # h is shared by a stack; g_rows has a leading axis
            m += self.g_rows.swapaxes(-1, -2) @ (xz_scal[..., :, None] * self.g_rows)
        for i, (x, z, (off, gens, rows)) in enumerate(zip(x_mats, z_mats, self.spans)):
            l = len(gens)
            t = x[..., :, None, :, :] @ gens @ z[..., :, None, :, :]
            flat = t.sum(axis=-4).reshape(lead + (l, rows.shape[-1]))
            m[..., off : off + l, off : off + l] += (rows @ flat.swapaxes(-1, -2)).real
            if i == 0:  # the pair's cross terms sign * X F Z
                c = extract_coords((self.signs[:, None] * t).sum(axis=-4))[..., :nh]
                m[..., off : off + l, :nh] += c
                m[..., :nh, off : off + l] += c.swapaxes(-1, -2)
        out = m.swapaxes(-1, -2).copy()
        out += m
        out *= 0.5
        return out


def _with_data(prog, get, *others):
    """A copy of ``prog`` whose per-problem data is ``get`` of that of
    ``prog`` and ``others``, with its own Schur buffers."""
    out = copy.copy(prog)
    for name in ("b", "g_rows") + prog._members:
        setattr(out, name, get(*(getattr(p, name) for p in (prog, *others))))
    out.c = [get(*cs) for cs in zip(*(p.c for p in (prog, *others)))]
    out._buffers = {}
    return out


def _stacked(arrays):
    """``arrays`` stacked along a new leading axis; one array gives a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _stack(progs):
    """One program over the same-shape ``progs``, its per-problem data
    stacked along a new leading axis."""
    out = _with_data(progs[0], lambda *a: _stacked(a), *progs[1:])
    out._schur_buffers((len(progs),))
    return out


@lru_cache(maxsize=None)
def _schur_gathers(n: int):
    """Read-only index and coefficient tables of the closed-form Schur block.

    Term t of basis matrix E_i is (E_i)_ab e_ab: t = 0 only for e_aa, and
    t = 0, 1 for (a, b) = (p, q), (q, p) of a pair p < q. Column
    k = (h, t, s) of ``left_rows`` and ``right_rows``, over the two blocks
    s of the pair, indexes the concatenated sources of ``schur``: for h = 0,
    row b of X_s and row a of Z_s^T, scaled by ``coef`` = (E_i)_ab / sqrt2
    (the 1/sqrt2 normalizes the columns j); for h = 1, row a of Z_s^H and
    row b of conj(X_s), scaled by its conjugate. ``upper_cols`` are the
    flat positions of the upper triangle of an n x n matrix.
    """
    iu, ju = np.triu_indices(n, 1)
    r = np.arange(n)
    npair = iu.size
    first = np.stack([np.concatenate([r, iu, iu]), np.concatenate([r, ju, ju])])
    second = np.stack([np.concatenate([r, ju, ju]), np.concatenate([r, iu, iu])])
    half = np.full(npair, 0.5)
    coef = np.stack(
        [
            np.concatenate([np.full(n, 1.0 / _SQRT2), half, 0.5j * np.ones(npair)]),
            np.concatenate([np.zeros(n), half, -0.5j * np.ones(npair)]),
        ]
    )
    block = n * np.arange(2)[:, None, None]

    def columns(rows):  # (2, n^2) rows of the terms -> (n^2, 4)
        return (rows + block).transpose(2, 1, 0).reshape(n * n, -1)

    other = 2 * n  # the h = 1 sources follow the h = 0 ones
    left_rows = np.concatenate([columns(second), columns(first) + other], axis=1)
    right_rows = np.concatenate([columns(first), columns(second) + other], axis=1)
    coef = np.repeat(coef.T, 2, axis=1)
    coef = np.concatenate([coef, coef.conj()], axis=1)[:, :, None]
    upper_cols = iu * n + ju
    for arr in (left_rows, right_rows, coef, upper_cols):
        arr.setflags(write=False)
    return left_rows, right_rows, coef, upper_cols


class _Program(_BlockProgram):
    """The minimax program over a family (see module docstring); a fixed
    objective is the family of one. ``real`` when every member is exactly
    real: W and rho are then real symmetric, and the program's data and
    iterates are real arrays (program 3 keeps the default, complex)."""

    _members = ("deltas",)

    def __init__(self, deltas, ref_dim: int):
        self._set_members(deltas, ref_dim)
        self.n = n = self.deltas.shape[-1]
        self.out = n // ref_dim
        self.real = not self.deltas.imag.any()
        # the real coordinates lead in both bases
        self.nh = nh = n * (n + 1) // 2 if self.real else n * n
        fbasis = _traceless_stack(ref_dim)
        if self.real:
            self.deltas = self.deltas.real.copy()
            fbasis = fbasis[: ref_dim * (ref_dim + 1) // 2 - 1].real
        dtype = self.deltas.dtype
        self.m = nh + len(fbasis) + 1
        lifted = -np.kron(np.eye(self.out)[None], fbasis)
        eye = np.eye(n, dtype=dtype)
        self._set_data(
            (np.stack([eye, eye]) / ref_dim, (1.0, -1.0), nh, lifted),
            [(np.eye(ref_dim, dtype=dtype)[None] / ref_dim, nh, -fbasis)],
            (np.zeros(self.k), self._objective(extract_coords(self.deltas)[:, :nh])),
        )

    def _set_members(self, deltas, ref_dim):
        self.deltas = np.stack([np.asarray(d, dtype=complex) for d in deltas])
        self.k = len(self.deltas)
        self.ref = ref_dim

    @property
    def minimax(self) -> bool:
        """Whether the family has more than one member; read only by
        ``perfbench/tracing.program_kind``, which tags a one-member
        program as fixed."""
        return self.k > 1

    def shape_key(self):
        """Programs with equal keys stack (see ``_solve_batch``)."""
        return (type(self), self.n, self.ref, self.k, self.real)

    def _objective(self, coef):
        """Set b = e_t; return G, so that s_i = coef_i . y[:j] - t for the
        members' (k, j) coordinates ``coef``."""
        g_rows = np.zeros((self.k, self.m))
        g_rows[:, : coef.shape[1]] = -coef
        g_rows[:, -1] = 1.0
        self.b = np.zeros(self.m)
        self.b[-1] = 1.0
        return g_rows

    def start(self):
        y = np.zeros(self.m)
        y[-1] = -1.0
        return self._start_at(y)

    def witness(self, y):
        """(W, rho); rho is the reference block's slack I/d + traceless part."""
        return expand_coords(y[: self.nh], self.n), self.slack_blocks(y)[0][1][0]

    def certificate(self, y, x_mats, x_scal):
        """(W, rho, weights) of a best bracket: the witness at y, complex
        also for a real program, and the normalized scalar duals of the best
        dual iterate (None without one)."""
        w, rho = self.witness(y)
        weights = None if x_scal is None else self._mixed(x_scal)[0]
        return np.asarray(w, dtype=complex), np.asarray(rho, dtype=complex), weights

    def _mixed(self, scal):
        """(weights, Delta): the members' normalized scalar duals and their
        mixture. The members' rows are the first k."""
        scal = scal[..., : self.k]
        x = scal / scal.sum(-1, keepdims=True)  # the engine keeps every scalar dual >= 1e-300
        n = self.deltas.shape[-1]
        flat = self.deltas.reshape(self.deltas.shape[:-2] + (n * n,))
        return x, (x[..., None, :] @ flat).reshape(x.shape[:-1] + (n, n))

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the dual iterate: a certified
        upper bound on the program optimum at the mixture of the normalized
        scalar duals."""
        _, delta = self._mixed(scal)
        return _fixed_upper(_herm(mats[0]), delta, self.out)


def _fixed_upper(pair, delta, out: int):
    """lambda_max(Tr_1[X1 + X2]) of the pair X1, X2 (axis -3) after
    ``_shift_to_psd`` onto delta: a certified upper bound on the diamond
    norm of delta (Watrous, arXiv:1207.5726)."""
    pair = _shift_to_psd(pair, delta)
    qref = _trace_out(pair.sum(axis=-3), out)
    return np.linalg.eigvalsh(_herm(qref))[..., -1]


_PAIR_SIGNS = np.array([1.0, -1.0])[:, None, None]


def _shift_to_psd(pair, delta):
    """The pair X1, X2 (axis -3) moved by opposite halves of one shift to
    X1 - X2 = delta, then raised by one multiple of I until both are PSD."""
    shift = 0.5 * (pair[..., 0, :, :] - pair[..., 1, :, :] - delta)
    pair = pair - _PAIR_SIGNS * shift[..., None, :, :]
    lmin = np.linalg.eigvalsh(pair)[..., 0].min(axis=-1)
    n = pair.shape[-1]
    diagonal = pair.reshape(pair.shape[:-2] + (n * n,))[..., :: n + 1]
    diagonal += np.where(lmin < 0.0, 1e-15 - lmin, 0.0)[..., None, None]
    return pair


@lru_cache(maxsize=None)
def _sector_mask(d: int) -> np.ndarray:
    """Entries of a (d x d) x (d x d) matrix that every conjugation by
    U (x) conj(U), U diagonal unitary, fixes: the |aa><bb| entries and the
    diagonal."""
    a, b = np.divmod(np.arange(d * d), d)
    same = a == b
    mask = (same[:, None] & same[None, :]) | np.eye(d * d, dtype=bool)
    mask.setflags(write=False)
    return mask


class _SectorProgram(_Program):
    """Program 1 of a DUC family, on its invariant sectors (program 3 of the
    module docstring). ``n`` is the sector size d, and the reference
    dimension is d or 1; ``witness`` and ``project_dual`` answer for the full
    d^2-dimensional program. Everything but the members, b and the members'
    rows of G depends on the shape alone (d, reference dimension, member
    count and kept pairs) and is built once per shape (``_sector_shape``)."""

    def __init__(self, deltas, ref_dim: int):
        self._set_members(deltas, ref_dim)
        d = math.isqrt(self.deltas.shape[-1])
        off = np.flatnonzero(~np.eye(d, dtype=bool))  # |ab>, a != b
        # the |ab> where some member has a nonzero diagonal entry
        pairs = off[np.any(self.deltas[:, off, off] != 0, axis=0)]
        shape = _sector_shape(d, ref_dim, self.k, tuple(pairs.tolist()))
        vars(self).update(shape)
        self.c, self.spans = list(self.c), list(self.spans)
        sec = self.sector
        sector_coef = extract_coords(self.deltas[:, sec[:, None], sec])
        coef = np.concatenate([sector_coef, self.deltas[:, pairs, pairs].real], axis=1)
        self.g_rows = np.concatenate([self._objective(coef), shape["g_rows"]])
        self._buffers = {}

    def shape_key(self):
        return super().shape_key() + (tuple(self.pairs),)

    def witness(self, y):
        """(W, rho) on the full space: W is zero off the sectors, rho is diagonal."""
        nw, npair = self.nh, len(self.pairs)
        w = np.zeros((nw, nw), dtype=complex)
        w[self.sector[:, None], self.sector] = expand_coords(y[:nw], self.n)
        w[self.pairs, self.pairs] = y[nw : nw + npair]
        p = self.slack_blocks(y)[1][self.k + 2 * npair :]
        return w, np.diag(p).astype(complex)

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the lifted dual iterate.

        The lifted X1 and X2 are the sector blocks plus the pair duals x-_ab
        and x+_ab on the diagonal, zero elsewhere: the scalar duals of the
        p_b - w_ab and p_b + w_ab rows. Delta is exactly zero off
        the sectors, so X1 - X2 = Delta holds block by block: the sector
        blocks as in program 1, and each pair as x-+_ab = (s +- Delta_ab)/2
        with s = max(x-_ab + x+_ab, |Delta_ab| + 2e-15), both nonnegative.
        Tr_1[X1 + X2] is then diagonal, and its largest entry is the bound:
        max_b [(X1 + X2)_bb + sum_{a != b} s_ab] at reference dimension d,
        and Tr[X1 + X2] = sum_b [(X1 + X2)_bb + sum_{a != b} s_ab] at 1.
        """
        _, delta = self._mixed(scal)
        sec, pairs = self.sector, self.pairs
        pair = _shift_to_psd(_herm(mats[0]), delta[..., sec[:, None], sec])
        npair = len(pairs)
        duals = scal[..., self.k :]
        least = np.abs(delta[..., pairs, pairs].real) + 2e-15
        s = np.maximum(duals[..., :npair] + duals[..., npair : 2 * npair], least)
        sector = pair.sum(axis=-3).diagonal(axis1=-2, axis2=-1).real
        lifted = sector[..., None, :] @ self.sector_ref + s[..., None, :] @ self.per_ref
        return np.max(lifted[..., 0, :], axis=-1)


@lru_cache(maxsize=None)
def _sector_shape(d: int, ref_dim: int, k: int, pairs: tuple) -> MappingProxyType:
    """The attributes of every ``_SectorProgram`` of one shape: its sizes,
    index maps, the pair's C and generators, h and the scalar rows of G
    after the members' (``g_rows`` here), built once per shape and
    read-only. A program adds its members, b and the members' rows of G."""
    shape = _BlockProgram()
    shape.n, shape.nh = d, d * d
    shape.sector = sec = np.arange(d) * (d + 1)  # |aa>, a = 0..d-1
    shape.pairs = pairs = np.array(pairs, dtype=int)
    ref_of = np.arange(d * d) % ref_dim  # the reference index of each entry
    shape.pair_ref = ref_of[pairs]
    npair = len(pairs)
    # (vector @ per_ref)[b] = its sum over the entries of reference b
    shape.sector_ref = (ref_of[sec][:, None] == np.arange(ref_dim)).astype(float)
    shape.per_ref = (shape.pair_ref[:, None] == np.arange(ref_dim)).astype(float)
    shape.m = m = d * d + npair + ref_dim
    # (ref_dim - 1, ref_dim)
    f = _traceless_stack(ref_dim)[: ref_dim - 1].diagonal(axis1=1, axis2=2).real
    # scalar rows after the members': p_b - w_ab and p_b + w_ab per pair, then p_b
    ref_of_rows = np.concatenate([shape.pair_ref, shape.pair_ref, np.arange(ref_dim)])
    bounds = np.zeros((len(ref_of_rows), m))
    j = np.arange(npair)
    bounds[j, d * d + j] = 1.0
    bounds[npair + j, d * d + j] = -1.0
    bounds[:, d * d + npair : -1] = -f[:, ref_of_rows].T
    sector_gens = -f[:, ref_of[sec], None] * np.eye(d, dtype=complex)
    eye = np.eye(d, dtype=complex)
    h = np.concatenate([np.zeros(k), np.full(len(bounds), 1.0 / ref_dim)])
    shape._set_data(
        (np.stack([eye, eye]) / ref_dim, (1.0, -1.0), d * d + npair, sector_gens), [], (h, bounds)
    )
    arrays = [value for value in vars(shape).values() if isinstance(value, np.ndarray)]
    arrays += shape.c + [arr for _, gens, rows in shape.spans for arr in (gens, rows)]
    for arr in arrays:
        arr.setflags(write=False)
    attrs = vars(shape)
    del attrs["_buffers"]
    return MappingProxyType(attrs)


def _program(deltas, ref_dim: int) -> _Program:
    """The sector program when ``_sectored``, the full program otherwise."""
    deltas = np.stack([np.asarray(d) for d in deltas])
    return (_SectorProgram if _sectored(deltas, ref_dim) else _Program)(deltas, ref_dim)


def _sectored(deltas, ref_dim: int) -> bool:
    """Whether the stack ``deltas`` is a DUC family: n = d^2, the reference
    dimension is d or 1 and every member is exactly zero off the sectors."""
    d = math.isqrt(deltas.shape[-1])
    return (
        d > 1
        and d * d == deltas.shape[-1]
        and ref_dim in (d, 1)
        and not deltas[:, ~_sector_mask(d)].any()
    )


class _DualProgram(_BlockProgram):
    """Dual form of the one-member program (program 2 of the module docstring).

    Free variables are the n^2 real coordinates of V plus the scalar t; the
    objective is max -t, so -b.y at an exactly feasible y-iterate is a true
    upper bound on the diamond norm of Delta.
    """

    _members = ("delta",)

    def __init__(self, delta: np.ndarray, ref_dim: int):
        self.delta = np.asarray(delta, dtype=complex)
        self.n = n = self.delta.shape[-1]
        self.ref = ref_dim
        self.out = n // ref_dim
        self.nh = nw = n * n
        self.m = nw + 1
        # 2 Tr_1[E_j] for every basis matrix, then I for the stored -t
        gens = np.concatenate(
            [2.0 * _trace_out(_herm_basis_stack(n), self.out), np.eye(ref_dim)[None]]
        )
        self.tr1_delta = _trace_out(self.delta, self.out)
        self.b = np.zeros(self.m)
        self.b[-1] = 1.0  # t is stored negated, so max b.y = max(-t)
        self._set_data(
            (np.stack([np.zeros_like(self.delta), self.delta]), (-1.0, -1.0), nw,
             np.zeros((0, n, n), dtype=complex)),
            [(-self.tr1_delta[None], 0, gens)],
            (np.zeros(0), np.zeros((0, self.m))),
        )

    def shape_key(self):
        return (type(self), self.n, self.ref)

    def start(self):
        lmin = float(np.linalg.eigvalsh(_herm(self.delta))[0])
        c = 1.0 + max(0.0, -lmin)
        y = np.zeros(self.m)
        y[: self.n] = c
        t0 = float(np.linalg.eigvalsh(_herm(self.tr1_delta))[-1]) + 2 * c * self.out + 1.0
        y[-1] = -t0  # objective is max -t, so store t with its sign flipped
        return self._start_at(y)

    def certificate(self, y, x_mats, x_scal):
        """The original program's (W, rho) at the best dual iterate's
        state, (None, None) without one; no weights."""
        if x_mats is None:
            return None, None, None
        _, w, rho = self._projected_pair(x_mats)
        return w, rho, None

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the dual iterate.

        The reference block's dual is the original program's rho up to its
        trace; the best W at that rho gives a lower bound L on the diamond
        norm of Delta, i.e. an upper bound -L on this program's objective
        max(-t).
        """
        return -self._projected_pair(mats)[0]

    def _projected_pair(self, mats):
        """(L, W, rho): ``_best_at_state`` of the dual iterate's reference
        block, with L = -inf where that block has no positive trace."""
        return _best_at_state(self.delta, mats[1][..., 0, :, :], self.out)[:3]


def _best_at_state(delta, block, out: int):
    """The best point of program 1 at the state of the Hermitian reference
    block ``block``: (L, W, rho, p, v, lam, u).

    rho is ``block`` with its negative eigenvalues clipped and its trace
    normalized, rho = v diag(p) v^H made exactly Hermitian, or I/d where
    that trace is not positive (then L = -inf). W is the best witness at
    rho (Watrous, arXiv:1207.5726): with R = I (x) sqrt(rho),
    R Delta R = u diag(lam) u^H and W = R sign(R Delta R) R, so
    L = Tr[Delta W] is the trace norm of R Delta R. I (x) rho -+ W =
    R (I -+ sign) R are PSD; W is scaled by 1 - 1e-14 to keep them so
    under roundoff. Takes stacks.
    """
    ref = block.shape[-1]
    evals, evecs = np.linalg.eigh(_herm(block))
    evals = np.clip(evals, 0.0, None)
    tr = evals.sum(axis=-1)
    valid = tr > 0.0
    # an invalid block goes on at the maximally mixed state
    p = np.where(valid[..., None], evals / np.where(valid, tr, 1.0)[..., None], 1.0 / ref)
    evecs = np.where(valid[..., None, None], evecs, np.eye(ref))
    evecs_h = evecs.conj().swapaxes(-1, -2)
    rho = _herm((evecs * p[..., None, :]) @ evecs_h)
    r = np.kron(np.eye(out), (evecs * np.sqrt(p)[..., None, :]) @ evecs_h)
    lam, u = np.linalg.eigh(_herm(r @ delta @ r))
    sign = (u * np.where(lam < 0.0, -1.0, 1.0)[..., None, :]) @ u.conj().swapaxes(-1, -2)
    w = (1.0 - 1e-14) * _herm(r @ sign @ r)
    value = np.where(valid, _trace_dot(delta, w).real, -np.inf)
    return value, w, rho, p, evecs, lam, u


@dataclass
class SdpSolution:
    """Certified solution of one program instance; ``iterations`` counts
    interior-point iterations, 0 for a bracket found without a solve."""

    primal: float
    dual: float
    witness_w: np.ndarray
    witness_rho: np.ndarray | None
    weights: np.ndarray | None
    iterations: int

    @property
    def gap(self) -> float:
        return self.dual - self.primal


# ---------------------------------------------------------------------------
# Interior-point engine. Every function acts on stacks: leading axes over
# problems, one stacked call per step (see the module docstring).


def _block_ip(a_mats, a_scal, b_mats, b_scal):
    """sum_b Re Tr[A_b B_b] + a_scal . b_scal, per problem."""
    tot = 0.0
    for am, bm in zip(a_mats, b_mats):
        tot = tot + _trace_dot(am, bm, axes=3).real
    return tot + _dot(a_scal, b_scal)


def _inv_sqrt_factors(mats):
    """R = U Lambda^-1/2 of each block P = U Lambda U^H.

    Flooring Lambda at a trace-relative jitter keeps R finite on a singular
    or roundoff-indefinite block.
    """
    roots = []
    for pb in mats:
        lam, u = np.linalg.eigh(pb)
        trace = np.trace(pb, axis1=-2, axis2=-1).real
        jit = 1e-300 + 1e-15 * np.abs(trace) / pb.shape[-1]
        roots.append(u / np.sqrt(np.maximum(lam, jit[..., None]))[..., None, :])
    return roots


def _max_step(roots, scal, d_mats, d_scal):
    """sup alpha such that every block P + alpha dP stays PSD and
    scal + alpha d_scal stays nonnegative, given ``roots`` =
    _inv_sqrt_factors of the blocks P.

    Per block, alpha <= -1/lambda_min(R^H dP R), and the least of these is
    -1 over the least lambda_min; the floored jitter keeps the step finite
    and nonnegative.
    """
    lead = d_scal.shape[:-1]
    lmin = np.concatenate(
        [
            np.linalg.eigvalsh(_herm(r.conj().swapaxes(-1, -2) @ db @ r))[..., 0].reshape(lead + (-1,))
            for r, db in zip(roots, d_mats)
        ],
        axis=-1,
    ).min(axis=-1)
    alpha = np.divide(-1.0, lmin, out=np.full(lead, np.inf), where=lmin < 0.0)
    ratio = np.divide(scal, -d_scal, out=np.full(d_scal.shape, np.inf), where=d_scal < 0.0)
    return np.minimum(alpha, ratio.min(axis=-1, initial=np.inf))


def _tri_inv(low):
    """Inverse of a nonsingular lower-triangular matrix, itself lower-triangular.

    Splits by halves, [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]],
    down to _TRI_INV_BASE rows, which np.linalg.inv takes directly.
    """
    n = low.shape[-1]
    if n <= _TRI_INV_BASE:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    a_inv = _tri_inv(low[..., :h, :h])
    c_inv = _tri_inv(low[..., h:, h:])
    out = np.zeros_like(low)
    out[..., :h, :h] = a_inv
    out[..., h:, h:] = c_inv
    out[..., h:, :h] = -c_inv @ (low[..., h:, :h] @ a_inv)
    return out


def _lin_solve(m, li, rhs):
    """Solve m x = rhs given li = L^-1 for m = L L^T, refining twice against m.

    The Schur system turns ill-conditioned as the barrier parameter drops;
    refinement buys the extra digits the certificates need.
    """
    lt = li.swapaxes(-1, -2)
    r = rhs[..., None]
    x = lt @ (li @ r)
    for _ in range(2):
        x = x + lt @ (li @ (r - m @ x))
    return x[..., 0]


def _centre(prog, x_mats, x_scal, s_mats, s_scal):
    """Dual slacks' inverses Z and the barrier parameter mu."""
    z_mats = [_herm(np.linalg.inv(sb)) for sb in s_mats]
    mu = _block_ip(x_mats, x_scal, s_mats, s_scal) / prog.block_trace
    return z_mats, 1.0 / s_scal, mu


def _newton(prog, y, x_mats, x_scal, s_mats, s_scal, z_mats, z_scal, mu):
    """One Mehrotra predictor-corrector step: the next (X, x_scal, y), and
    the Schur matrix and inverse factor it used."""
    m = prog.schur(x_mats, z_mats, x_scal * z_scal)
    diag = np.arange(prog.m)
    m[..., diag, diag] += (1e-13 * (np.trace(m, axis1=-2, axis2=-1) / prog.m + 1.0))[..., None]
    li = _tri_inv(np.linalg.cholesky(m))
    az = prog.apply(z_mats, z_scal)
    # The predictor and the corrector step from the same iterates. X and S
    # share every step-length call, stacked on a new leading axis.
    roots = _inv_sqrt_factors([np.array(pair) for pair in zip(x_mats, s_mats)])
    xs_scal = np.array([x_scal, s_scal])

    def direction(rhs, smu, corr_mats, corr_scal):
        """HKM direction (dx, ds, dy) for the right-hand side ``rhs``, centring
        target ``smu`` and second-order term ``corr``; then its damped steps."""
        dy = _lin_solve(m, li, rhs)
        adj_mats, adj_scal = prog.adjoint_blocks(dy)
        ds_mats, ds_scal = [-ab for ab in adj_mats], -adj_scal
        smu = np.reshape(smu, (-1, 1))
        dx_mats = [
            _herm(smu[..., None, None] * zb - xb - cb + xb @ ab @ zb)
            for xb, ab, zb, cb in zip(x_mats, adj_mats, z_mats, corr_mats)
        ]
        dx_scal = smu * z_scal - x_scal - corr_scal + x_scal * adj_scal * z_scal
        d_mats = [np.array(pair) for pair in zip(dx_mats, ds_mats)]
        steps = _max_step(roots, xs_scal, d_mats, np.array([dx_scal, ds_scal]))
        ap, ad = np.minimum(1.0, 0.99 * steps)[..., None]
        return dx_mats, dx_scal, ds_mats, ds_scal, dy, ap, ad

    # predictor: the affine-scaling direction, smu = 0 and no correction
    dx_a_mats, dx_a_scal, ds_a_mats, ds_a_scal, _, ap, ad = direction(
        prog.b, 0.0, [0.0] * len(x_mats), 0.0
    )
    xa_mats = [xb + ap[..., None, None] * db for xb, db in zip(x_mats, dx_a_mats)]
    sa_mats = [sb + ad[..., None, None] * db for sb, db in zip(s_mats, ds_a_mats)]
    mu_aff = _block_ip(xa_mats, x_scal + ap * dx_a_scal, sa_mats, s_scal + ad * ds_a_scal)
    mu_aff = np.maximum(0.0, mu_aff) / prog.block_trace
    sigma = np.minimum(1.0, np.maximum((mu_aff / mu) ** 3, 1e-10))

    # corrector
    corr_mats = [da @ ds @ zb for da, ds, zb in zip(dx_a_mats, ds_a_mats, z_mats)]
    corr_scal = dx_a_scal * ds_a_scal * z_scal
    smu = sigma * mu
    rhs = prog.b - smu[:, None] * az + prog.apply(corr_mats, corr_scal)
    dx_mats, dx_scal, _, _, dy, ap, ad = direction(rhs, smu, corr_mats, corr_scal)
    # X + ap dX of Hermitian X and dX is Hermitian bit for bit
    x_mats = [xb + ap[..., None, None] * db for xb, db in zip(x_mats, dx_mats)]
    return x_mats, np.maximum(x_scal + ap * dx_scal, 1e-300), y + ad * dy, (m, li)


def _take(tree, idx):
    if isinstance(tree, (list, tuple)):
        return type(tree)(_take(t, idx) for t in tree)
    return tree.take(idx) if isinstance(tree, _BlockProgram) else tree[idx]


def _cat(parts):
    if isinstance(parts[0], (list, tuple)):
        return type(parts[0])(_cat(p) for p in zip(*parts))
    return np.concatenate(parts)


def _split(stage, prog, *args):
    """``stage(prog, *args)`` over a stack of problems. When a LinAlgError
    stops it, the stack is split in halves until each failing problem runs
    alone. Returns the output over the problems that ran through and their
    mask."""
    count = len(prog.b)
    try:
        return stage(prog, *args), np.ones(count, dtype=bool)
    except np.linalg.LinAlgError:
        if count == 1:
            return None, np.zeros(1, dtype=bool)
    parts, masks = [], []
    for idx in np.array_split(np.arange(count), 2):
        part, ok = _split(stage, *_take((prog, *args), idx))
        masks.append(ok)
        if part is not None:
            parts.append(part)
    return (_cat(parts) if parts else None), np.concatenate(masks)


class _Running:
    """Per-problem arrays of the problems still running, each with a leading
    axis over them; ``keep`` drops the others from every one."""

    def keep(self, mask):
        for name, value in vars(self).items():
            setattr(self, name, _take(value, mask))


def _solve_batch(progs, tols) -> list[SdpSolution]:
    """Best certified bracket of each of the same-shape programs ``progs``
    (equal ``shape_key``) at gap targets ``tols``, solved as one stack.

    Each problem iterates as if alone: it keeps the best lower bound b.y and
    the best projected upper bound, and stops at the first of: the gap
    target (gap <= its tol); the gap stall or the mu stall (6 iterations in a
    row without lower-bound progress that shrink the gap by under 0.1%, or
    mu by under 10%); the mu floor (mu < 5e-14); ``_MAX_ITER`` iterations;
    or a ``LinAlgError`` in its part of the iteration: a singular slack
    matrix, a Schur matrix that is not numerically positive definite (its
    Cholesky factorization fails), or a failed eigensolve. Never raises on
    a wide gap.
    """
    count = len(progs)
    starts = [p.start() for p in progs]
    r = _Running()
    r.prog = _stack(progs)
    r.ids = np.arange(count)
    r.tol = np.asarray(tols, dtype=float)
    r.tol_step = 0.02 * r.tol  # lower-bound progress that counts
    r.y = _stacked([y for y, _, _ in starts])
    r.x_mats = [_stacked(group) for group in zip(*(mats for _, mats, _ in starts))]
    r.x_scal = _stacked([scal for _, _, scal in starts])
    r.best_primal = np.full(count, -np.inf)
    r.best_dual = np.full(count, np.inf)
    r.stall = np.zeros(count, dtype=int)
    r.mu_stall = np.zeros(count, dtype=int)
    r.prev_gap = np.full(count, np.inf)
    r.prev_mu = np.full(count, np.inf)
    r.prev_best = np.full(count, -np.inf)
    # per problem: (iterate stack, row) of its best y and of its best dual
    # iterate; no stack is changed once made
    best_y = [(r.y, i) for i in range(count)]
    best_x = [None] * count
    done = [None] * count

    def stop(mask, iterations):
        """Record the problems in ``mask`` and drop them; True when none is left."""
        if not mask.any():
            return False
        for j in mask.nonzero()[0]:
            done[r.ids[j]] = (r.best_primal[j], r.best_dual[j], iterations)
        if mask.all():
            return True
        r.keep(~mask)
        return False

    for iterations in range(1, _MAX_ITER + 1):
        s_mats, r.s_scal = r.prog.slack_blocks(r.y)
        r.s_mats = [_herm(sb) for sb in s_mats]
        primal = _dot(r.prog.b, r.y)
        better = primal > r.best_primal
        r.best_primal = np.fmax(r.best_primal, primal)
        for j in better.nonzero()[0]:
            best_y[r.ids[j]] = (r.y, j)
        dual, ok = _split(type(r.prog).project_dual, r.prog, r.x_mats, r.x_scal)
        if stop(~ok, iterations):
            break
        better = dual < r.best_dual
        r.best_dual = np.fmin(r.best_dual, dual)
        for j in better.nonzero()[0]:
            best_x[r.ids[j]] = (r.x_mats, r.x_scal, j)
        # Stop once progress has hit its numerical floor: further iterations
        # only erode the iterates. Progress is measured on the certified gap
        # when a projection is available (an infinite gap compares false)
        # and on the barrier parameter otherwise; a lower bound still
        # improving at tolerance scale always counts.
        gap = r.best_dual - r.best_primal
        r.stuck = r.best_primal <= r.prev_best + r.tol_step
        r.prev_best = r.best_primal
        with np.errstate(invalid="ignore"):  # inf - inf where no bound is finite yet
            flat = gap > r.prev_gap - np.maximum(1e-3 * np.abs(gap), 1e-15)
        r.stall = (r.stall + 1) * (flat & r.stuck)
        r.prev_gap = gap
        if stop((gap <= r.tol) | (r.stall >= 6), iterations):
            break

        centre, ok = _split(_centre, r.prog, r.x_mats, r.x_scal, r.s_mats, r.s_scal)
        if stop(~ok, iterations):
            break
        r.z_mats, r.z_scal, r.mu = centre
        r.mu_stall = (r.mu_stall + 1) * ((r.mu > 0.9 * r.prev_mu) & r.stuck)
        r.prev_mu = r.mu
        if stop((r.mu < 5e-14) | (r.mu_stall >= 6), iterations):
            break

        step, ok = _split(
            _newton, r.prog, r.y, r.x_mats, r.x_scal, r.s_mats, r.s_scal, r.z_mats, r.z_scal, r.mu
        )
        if stop(~ok, iterations):
            break
        # The step's Schur arrays stay alive until the next step has made its
        # own: freed first, the 0.6 MB arrays of an n = 16 program let glibc
        # trim the top of the heap, and every iteration faulted them back in.
        r.x_mats, r.x_scal, r.y, held = step
    else:
        stop(np.ones(len(r.ids), dtype=bool), _MAX_ITER)

    sols = []
    for prog, (primal, dual, iterations), (ys, j), x in zip(progs, done, best_y, best_x):
        x_mats, x_scal = (None, None) if x is None else ([m[x[2]] for m in x[0]], x[1][x[2]])
        w, rho, weights = prog.certificate(ys[j], x_mats, x_scal)
        sols.append(SdpSolution(float(primal), float(dual), w, rho, weights, iterations))
    return sols


def _solve_ipm(prog, gap_tol: float) -> SdpSolution:
    """Best certified bracket of one program: ``_solve_batch`` on a stack of one."""
    return _solve_batch([prog], [gap_tol])[0]


# ---------------------------------------------------------------------------
# Step generators. A routine that needs solves is written once as a
# generator that yields a request for each and receives its answer: an
# engine program with its gap target, (program, gap_tol), or a closed-form
# bracket, (_Bracket, None), answered by an SdpSolution; or a sweep row's
# channels, (channels._ChoiDifferences, None), answered by their Choi
# differences. Each request class answers a list of same-shape requests in
# its static ``answer``. ``_run`` answers one generator request by request,
# ``_run_all`` answers many together in stacks.


def _run(steps):
    """The result of one step generator, each request it yields answered
    alone: a program by ``_solve_ipm``, any other request as a stack of
    one (``_answers``)."""
    try:
        item, tol = next(steps)
        while True:
            if isinstance(item, _BlockProgram):
                answer = _solve_ipm(item, tol)
            else:
                (answer,) = _answers([item], [tol])
            item, tol = _resume(steps, answer)
    except StopIteration as finished:
        return finished.value


def _answers(items, tols) -> list:
    """The answers of the same-shape requests ``items``: one call of their
    class's ``answer``. If it raises, each request is answered alone, and
    the answer of one that raises is its exception."""
    try:
        return type(items[0]).answer(items, tols)
    except Exception as exc:
        if len(items) == 1:
            return [exc]
        return [_answers([item], [tol])[0] for item, tol in zip(items, tols)]


def _resume(steps, answer):
    """The next request of the generator ``steps`` after ``answer``: sent,
    or thrown into it where the answer is an exception."""
    return steps.throw(answer) if isinstance(answer, Exception) else steps.send(answer)


def _run_all(steps) -> list:
    """The results of the step generators ``steps``, in order.

    The generators run in windows of ``_MAX_BATCH``, which bounds both the
    stacks and the pending state. In a window, each round advances every
    generator to its next request, then answers the pending requests of
    each ``shape_key`` together, by one call of their class's ``answer``
    (``_answers``): programs as one stack of ``_solve_batch``, brackets by
    one evaluation of ``_mixed_reference_solution`` (``_brackets``), and
    Choi-difference requests (``channels._ChoiDifferences``) by one stacked
    build of the rows' channels. A generator that raises, or whose request
    has an answer that raises, stops alone; after its window, the first
    exception in generator order is raised.
    """
    results = []
    for lo in range(0, len(steps), _MAX_BATCH):
        window = steps[lo : lo + _MAX_BATCH]
        done = [None] * len(window)
        failures = [None] * len(window)
        pending = {}

        def advance(i, answer):
            try:
                pending[i] = _resume(window[i], answer)
            except StopIteration as finished:
                done[i] = finished.value
            except Exception as exc:
                failures[i] = exc

        for i in range(len(window)):
            advance(i, None)
        while pending:
            requests, pending = pending, {}
            groups = {}
            for i, (item, _) in requests.items():
                groups.setdefault(item.shape_key(), []).append(i)
            for ids in groups.values():
                items, tols = zip(*(requests[i] for i in ids))
                for i, answer in zip(ids, _answers(items, tols)):
                    advance(i, answer)
        for exc in failures:
            if exc is not None:
                raise exc
        results += done
    return results


# ---------------------------------------------------------------------------
# Public entry points.


def solve_fixed(delta: np.ndarray, ref_dim: int, tol: float) -> SdpSolution:
    """max Tr[delta W] over -I(x)rho <= W <= I(x)rho, rho a density matrix.

    Returns a bracket with gap <= tol, falling back to the dual program when
    the first solve stops short; raises NoConvergenceError if the combined
    bracket is still wider than tol. A malformed delta, ref_dim or tol
    raises a ValueError before any bracket (see ``_fixed_steps``, which
    also serves ``diamond_sdp``). ``iterations`` counts interior-point
    iterations, so it is 0 for a delta answered without a solve (see the
    module docstring): one whose closed-form bracket at the maximally mixed
    reference closes within tol, or, unless delta is
    diagonal-unitary-covariant, one that the iteration over the reference
    state then closes. The engine runs only when both leave delta open: the
    minimax program of the family of one, or for a
    diagonal-unitary-covariant delta at n = ref_dim^2 its sectors
    (program 3).
    """
    return _run(_fixed_steps(delta, ref_dim, tol))


def _mixed_reference_solution(deltas, weights, ref_dim: int) -> list[SdpSolution]:
    """The closed-form brackets at rho = I/d on the minimax programs of the
    families ``deltas`` (B, k, n, n) at the mixtures ``weights`` (B, k), one
    per problem; a single distance is the family of one at weight 1.

    Lower side: W = (1 - 1e-14) (2 P+ - I) / d with P+ the projector onto
    the positive eigenspace of Delta(p) = sum_i p_i Delta_i, feasible with
    rho = I/d (the factor absorbs the roundoff of the eigenvectors), and its
    value min_i Tr[Delta_i W]. The kernel goes to -1: Tr[Delta(p) W] does
    not see it, but a member of zero weight does, and for a qubit unitary
    against Pauli unitaries that member gains exactly there. A family's
    kernel is every eigenvalue within n eps of its own largest modulus,
    whose sign is roundoff; a single Delta sends only exact zeros to -1,
    since the sign of a roundoff eigenvalue is then never the worse. Upper
    side: the dual pair X1 = Delta(p)_+, X2 = Delta(p)_- through
    ``_fixed_upper``, as a projected dual iterate. Every step is a stacked
    call, so a problem gets the bits it gets in a stack of one.
    """
    deltas = np.asarray(deltas, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    count, k, n = deltas.shape[0], deltas.shape[1], deltas.shape[-1]
    flat = deltas.reshape(count, k, -1)
    delta = (weights[:, None, :] @ flat).reshape(count, n, n)
    lam, u = np.linalg.eigh(_herm(delta))
    u_h = u.conj().swapaxes(-1, -2)
    halves = np.stack([np.maximum(lam, 0.0), np.maximum(-lam, 0.0)], axis=1)
    parts = (u[:, None] * halves[..., None, :]) @ u_h[:, None]
    kernel = 0.0
    if k > 1:  # per family, never across the stack
        kernel = n * np.finfo(float).eps * np.abs(lam).max(axis=-1, keepdims=True)
    sign = (u * np.where(lam > kernel, 1.0, -1.0)[:, None, :]) @ u_h
    w = (1.0 - 1e-14) * _herm(sign) / ref_dim
    # Tr[Delta_i W] as _trace_dot's stacked product, one per member
    w_t = w.swapaxes(-1, -2).reshape(count, 1, -1, 1)
    primal = (flat[:, :, None, :] @ w_t).real.min(axis=(1, 2, 3))
    dual = _fixed_upper(_herm(parts), delta, n // ref_dim)
    return [
        SdpSolution(float(lo), float(up), wi, np.eye(ref_dim, dtype=complex) / ref_dim, p, 0)
        for lo, up, wi, p in zip(primal, dual, w, weights)
    ]


class _Bracket:
    """A request for ``_mixed_reference_solution`` of one family ``deltas``
    at ``weights``. A step generator yields it as (request, None), as it
    yields an engine program with its gap target; requests with one
    ``shape_key`` (member count k, n and reference dimension) are answered
    by one stacked evaluation, never by the engine."""

    def __init__(self, deltas, weights, ref_dim: int):
        self.deltas = np.asarray(deltas, dtype=complex)
        self.weights = np.asarray(weights, dtype=float)
        self.ref = ref_dim

    def shape_key(self):
        return (type(self), *self.deltas.shape[:2], self.ref)

    @staticmethod
    def answer(requests, tols=None) -> list[SdpSolution]:
        return _brackets(requests)


def _brackets(requests) -> list[SdpSolution]:
    """The answers of same-shape bracket requests, in one evaluation."""
    deltas = _stacked([r.deltas for r in requests])
    weights = _stacked([r.weights for r in requests])
    return _mixed_reference_solution(deltas, weights, requests[0].ref)


def _fixed_steps(delta, ref_dim, tol, kraus=None):
    """``solve_fixed`` as steps: the bracket request at rho = I/d, then no
    solve when a closed form or the reference iteration closes. ``kraus``,
    the single Kraus operators (K, L) of two channels with
    delta = choi(K) - choi(L), lets the bracket of
    ``_unitary_pair_solution`` try before the iteration. An exactly real
    delta goes on to the iteration and the engine as a real array.

    Every single distance takes this route, so its inputs are checked here
    and nowhere else, before the first request: a non-square delta raises
    NonSquareError, a NaN or infinite entry RangeError, a reference
    dimension that is not a positive divisor of n DimMismatchError, and a
    tol that is NaN, infinite or below 1e-9 RangeError. No delta is zero
    by a shortcut: the bracket at I/d gives an exactly zero delta the value
    0 with gap 0, and a roundoff-size one its true bounds."""
    delta = _require_square(delta)
    n = delta.shape[0]
    if not (ref_dim >= 1 and n % ref_dim == 0):
        raise DimMismatchError(f"matrix dim {n} not divisible by reference dim {ref_dim}")
    if not 1e-9 <= tol < np.inf:
        raise RangeError(f"tolerance {tol:g} must be finite and at least 1e-9")
    closed = yield _Bracket(delta[None], np.ones(1), ref_dim), None
    if closed.gap <= tol:
        return closed
    if kraus is not None:
        paired = _unitary_pair_solution(delta, kraus)
        if paired.gap <= tol:
            return paired
    if not delta.imag.any():  # the test of _Program: both routes then run in float64
        delta = delta.real.copy()
    if not _sectored(delta[None], ref_dim):
        iterated = _reference_iteration(delta, ref_dim, tol, closed.gap)
        if iterated is not None:
            return iterated
    sol = yield _program([delta], ref_dim), tol
    if sol.gap <= tol:
        return sol
    return (yield from _closing_steps(sol, delta, ref_dim, tol))


def _unitary_pair_solution(delta, kraus) -> SdpSolution:
    """The closed-form bracket on the diamond norm of delta = choi(K) -
    choi(L) for the single Kraus operators (K, L) = ``kraus`` of two
    channels, near-unitary ones included.

    For unitaries U, V the norm is max over states sigma of
    2 sqrt(1 - |Tr[sigma W]|^2), W = V^H U, attained where Tr[sigma W] is
    the point z of the convex hull of W's eigenvalues nearest 0 (Acin, PRL
    87, 177901, 2001; Watrous, The Theory of Quantum Information, 2018,
    section 3.3). U and V are the polar factors of K and L. Lower side:
    ``_best_at_state`` at the reference state rho = sigma^T with
    sigma = sum_k p_k e_k e_k^H, where p_k are the weights of z on the
    eigenvectors e_k (this Choi convention puts the input on the reference
    factor transposed); rho may be singular. Upper side: with theta the
    angle of z and m = lambda_min((e^-i theta W + e^i theta W^H) / 2) minus
    8 n eps, |Tr[sigma W]| >= Tr[sigma H_theta] >= m for every sigma, so
    2 sqrt(1 - m^2) bounds the norm where m > 0 and 2 does otherwise. The
    8 n eps is a Weyl allowance for the roundoff of the polar factors, of W
    and of eigvalsh, each a few n eps in norm. A Kraus operator K = U (I + E)
    with ||E|| = eps_K = max_i |s_i(K) - 1| moves the norm by at most
    eps_K (2 + eps_K), since ||K X K^H - U X U^H||_1 <= (2 ||E|| + ||E||^2)
    ||X||_1; each channel adds that allowance to the upper side. Both sides
    meet at z up to these allowances, and the bracket is the certificate.
    """
    polar, slack = [], 0.0
    for k in kraus:
        left, sing, right = np.linalg.svd(k)
        polar.append(left @ right)
        defect = np.abs(sing - 1.0).max()
        slack += defect * (2.0 + defect)
    w = polar[1].conj().T @ polar[0]
    n = w.shape[0]
    lam, vecs = np.linalg.eig(w)
    point, idx, p = _nearest_hull_point(np.angle(lam))
    m = np.linalg.eigvalsh(_herm(np.exp(-1j * np.angle(point)) * w))[0]
    m -= 8 * n * np.finfo(float).eps
    upper = (2.0 * math.sqrt((1.0 - m) * (1.0 + m)) if m > 0.0 else 2.0) + slack
    e = vecs[:, idx]  # unit columns
    sigma = (e * p) @ e.conj().T
    lower, w_opt, rho = _best_at_state(delta, sigma.T, n)[:3]
    return SdpSolution(float(lower), float(upper), w_opt, rho, np.ones(1), 0)


def _reference_iteration(delta, ref_dim: int, tol: float, gap: float):
    """The first iterate of rho <- Tr_1|R Delta R| / ||R Delta R||_1, with
    R = I (x) sqrt(rho), whose own bracket is within tol; None when the
    iteration gives up.

    Iteration 0 is ``_mixed_reference_solution`` at rho = I/d, whose gap is
    ``gap``; so iteration 1 is at rho = Tr_1|Delta| / ||Delta||_1. At each
    iterate, ``_best_at_state`` gives the lower side L and the witness
    (W, rho), and the dual pair X+- = R^-1 (R Delta R)_+- R^-1, with
    X+ - X- = Delta, gives the upper side lambda_max(Tr_1[X+ + X-]) through
    ``_fixed_upper``. The two sides meet where Tr_1|R Delta R| = L rho,
    the fixed point of this Blahut-Arimoto-style map (Blahut 1972; Arimoto
    1972). The iteration gives up on a non-finite or singular rho (a
    rank-deficient optimum cannot close this way; a non-finite block makes
    L = -inf), and, from iteration 5, when the contraction of the gap over
    the last 5 iterations predicts more than ``_REFERENCE_CAP`` iterations
    in all.
    """
    out = delta.shape[-1] // ref_dim
    lam, u = np.linalg.eigh(_herm(delta))
    gaps = [gap]
    for k in itertools.count(1):
        block = _trace_out((u * np.abs(lam)) @ u.conj().T, out)
        lower, w, rho, p, v, lam, u = _best_at_state(delta, block, out)
        if not (np.isfinite(lower) and p[0] > 0.0):
            return None
        # R^-1 u, with R^-1 = I (x) rho^-1/2 acting on the reference index;
        # X+- = (R^-1 u) lam_+- (R^-1 u)^H
        root_inv_u = ((v / np.sqrt(p)) @ v.conj().T @ u.reshape(out, ref_dim, -1)).reshape(u.shape)
        parts = np.stack([root_inv_u * np.maximum(lam, 0.0), root_inv_u * np.maximum(-lam, 0.0)])
        upper = _fixed_upper(_herm(parts @ root_inv_u.conj().T), delta, out)
        gap = float(upper - lower)
        if gap <= tol:  # a real delta's witness is handed back complex, as the engine's
            w, rho = np.asarray(w, dtype=complex), np.asarray(rho, dtype=complex)
            return SdpSolution(float(lower), float(upper), w, rho, np.ones(1), 0)
        gaps.append(gap)
        if k >= 5:
            # give up unless the last 5 iterations' rate closes by
            # _REFERENCE_CAP; at k = _REFERENCE_CAP this reads gap <= tol,
            # so the iteration stops there at the latest
            rate = gap / gaps[-6]
            if not (rate < 1.0 and gap * rate ** ((_REFERENCE_CAP - k) / 5) <= tol):
                return None


def _closing_steps(sol, delta, ref_dim, tol):
    """Close the bracket ``sol`` on the diamond norm of ``delta`` with the
    dual program; raises NoConvergenceError if it stays wider than tol.

    ``sol`` may come from any primal solve whose witness W is feasible with
    Tr[delta W] >= sol.primal and whose sol.dual bounds the norm: a one-member
    solve, or a joint minimax solve with delta mixed at its weights.
    """
    # The projected upper bound has hit its numerical floor; recompute both
    # bounds from the dual program, whose y-iterate gives an exact upper
    # bound and whose dual iterate's reference state gives a second lower
    # bound with its own witness pair.
    dual_sol = yield _DualProgram(delta, ref_dim), tol
    lower = sol.primal
    witness_w, witness_rho = sol.witness_w, sol.witness_rho
    if -dual_sol.dual > lower:
        lower = -dual_sol.dual
        witness_w, witness_rho = dual_sol.witness_w, dual_sol.witness_rho
    upper = min(sol.dual, -dual_sol.primal)
    if upper - lower > tol:
        raise NoConvergenceError(
            f"interior-point gap {upper - lower:.3e} above tolerance "
            f"{tol:.3e} after {sol.iterations + dual_sol.iterations} iterations"
        )
    return SdpSolution(
        primal=lower,
        dual=upper,
        witness_w=witness_w,
        witness_rho=witness_rho,
        weights=sol.weights,
        iterations=sol.iterations + dual_sol.iterations,
    )
