"""Dense primal-dual interior-point solver for the package's block SDPs.

Every program has one shape: maximize b.y over a real vector y subject to
positive-semidefinite block slacks and k >= 0 nonnegative scalar slacks,

    S_b(y) = C_b - A_b(y) >= 0,        s(y) = -G y >= 0,
    A_b(y) = sign_b H(y) + sum_l y[off_b + l] F_{b,l},

where H(y) is the Hermitian n x n matrix whose coordinates in an
orthonormal basis are y[:n^2], sign_b is +1 or -1 on n x n blocks (0 on
the others) and F_b is a dense generator stack for the other coordinates.
``_BlockProgram`` implements the slacks, A^T(y), its adjoint A(X) and the
Schur matrix once from the data (C_b, sign_b, F_b, G); each program adds
only its starting point, its shape key, its dual projection and the
certificate (witness and weights) of its best bracket.

1. Fixed objective (diamond norm of a fixed Hermitian Delta on a doubled
   space, reference dimension d): maximize Tr[Delta W] subject to
   I (x) rho -+ W >= 0 and rho >= 0 with Tr rho = 1. y = (W, traceless
   part of rho); C = (I/d, I/d, I/d); signs +1, -1, 0; generators
   -I (x) F_l, -I (x) F_l, -F_l over an orthonormal traceless basis F_l.
2. Minimax over a family {Delta_i}: maximize t subject to
   Tr[Delta_i W] >= t on the same set. y gains t last, and G has one row
   (-coords(Delta_i), 0, 1) per member. The nonnegative scalar duals,
   normalized, are the optimal mixture weights of min over the simplex.
   At d = 1 the reference block is the constant [1] with no generators,
   the constraint reads -I <= W <= I, and the optimum is min over the
   simplex of the trace norm of the mixed Delta.
3. The dual of 1 (Watrous, arXiv:1207.5726): minimize t subject to
   V >= 0, Delta + V >= 0 and t I - Tr_1[Delta + 2 V] >= 0. y = (V, -t);
   C = (0, Delta, -Tr_1[Delta]); signs -1, -1, 0; the reference block's
   generators are 2 Tr_1[E_j] over the basis matrices E_j, then I.
4. 1 and 2 on the invariant sectors of a diagonal-unitary-covariant
   family at n = d^2, whose every Delta_i is exactly zero outside the
   |aa><bb| entries and the diagonal, at reference dimension d or 1.
   Conjugation by U (x) conj(U), U diagonal unitary, fixes each Delta_i
   and maps the feasible set onto itself, so the group average of an
   optimal (W, rho) is optimal, with rho = diag(p) and W one d x d block
   W_0 on the |aa> sector plus one real w_ab on each |ab>, a != b
   (Gatermann & Parrilo, J. Pure Appl. Algebra 2004; Singh & Nechita,
   Quantum 2021). A pair is kept only if some Delta_i has a nonzero
   |ab><ab| entry: otherwise w_ab = 0 loses nothing. y = (W_0, the kept
   w_ab, traceless part of p[, t]) with n = d; blocks diag(p) -+ W_0 with
   signs +1, -1, and one diagonal block holding p_b - w_ab, p_b + w_ab and
   p_b, whose C and generators are diagonal, so its iterates stay
   diagonal; b and G are those of 1 and 2 on these coordinates. At
   reference dimension 1, p is the constant [1]: the blocks are I -+ W_0
   and 1 -+ w_ab, with no p coordinates. Both sides answer for the full
   program: the witness is W lifted with zeros off the sectors and
   rho = diag(p), and the bound is lambda_max(Tr_1[X1 + X2]) of the lifted
   duals, max_b [(X1 + X2)_bb + sum_{a != b} (x-_ab + x+_ab)] over the
   reference index b of each entry, so a sum over b at reference
   dimension 1; it is valid because Delta is exactly zero where the lift
   puts zeros. ``solve_fixed`` and ``solve_minimax`` take this form
   whenever one exact-zero test on the stacked Delta_i allows it.

The engine follows the standard path-following scheme with the HKM search
direction and a Mehrotra predictor-corrector step. The step length to the
boundary of a block P along dP is -1/lambda_min(P^-1/2 dP P^-1/2), read
from one eigendecomposition of P (Toh, Todd & Tutuncu, SDPT3, 1999).

The Schur matrix M_ij = sum_s Re Tr[A_s,i X_s A_s,j Z_s] is closed-form on
the Hermitian coordinates, where A_s,i = sign_s E_i with sign_s^2 = 1 on
each n x n block s (Fujisawa, Kojima & Nakata, Math. Program. 1997,
formulas F1-F3). Each basis matrix E_i has at most two nonzero entries, so
M_ij = Re Tr[E_j R_i^T] with R_i[c, d] = sum_s sum_ab (E_i)_ab X_s[b, c]
Z_s[d, a], a sum of at most two outer products per block. E_j is Hermitian, so also
M_ij = Re Tr[E_j W_i^T] / 2 with W_i = R_i + R_i^H: column j reads one
diagonal or upper-triangle entry of the Hermitian W_i. All n^2 matrices W_i
are one batched product of rows gathered from the X_s and Z_s, with inner
dimension 4 per signed block: O(n^4) work, where n^2 products X_s E_j Z_s
took O(n^5). The gathered rows, the W_i, their upper triangles and M
before symmetrization live in buffers that a program allocates once per
stack shape (3 MB at n = 16); a program therefore serves one solve at a
time, and separate programs solve concurrently. Arrays allocated per
iteration instead are returned to the system by glibc and faulted in again on every
use: with the n^2 products in fresh arrays, a two-qubit solve took about
5600-6000 minor page faults, and the products took 6.5 ms per n = 16
iteration against 4.1 ms with glibc's trim and mmap thresholds raised
(2-core Xeon). The closed form takes about 2 ms, and a solve about
900-1500 faults.

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
parameter). When a fixed-objective solve needs a tighter certificate than
that floor, ``solve_fixed`` recomputes the upper bound with program 3 on
the full space, whose objective is again evaluated at an exactly feasible
point, so both sides of the final certificate are exact.

Batches. ``_solve_batch`` solves programs of one shape as one stack: one
class, n, reference dimension, mode, member count and, for program 4, kept
pairs (``shape_key``). ``_stack`` gives their per-problem data (b, G, every
C_b and the members Delta_i) a leading axis; every map above takes and
returns stacks, and every step below acts on them, so ``_solve_ipm`` is the
stack of one and there is one engine. The equal-size blocks of a program
share their calls (two n x n blocks: one eigh, inv or matmul), and so do
X and S in the step length. Each problem keeps the stop rules and the best
bracket of a solve of its own, and leaves the stack at the iteration where
that solve stops. A stacked ``np.linalg`` call raises ``LinAlgError`` for
the whole stack when one slice fails, so a failed stage of the iteration
runs again on halves of the stack until each failing problem is alone;
only those stop. Results do not depend on the batch: every per-problem
product is one slice of a stacked call, (B, 1, l) @ (l, s) and never the
2-D (B, l) @ (l, s), whose blocked kernel sums in another order, and a
stacked eigh, eigvalsh, inv, cholesky or matmul gives each slice the bits
of the same call on that slice alone (einsum over a stack does not, so
traces and mixtures are matmul products). A problem therefore gets the
same bits alone, in any batch and at any place in it. ``_run_all`` drives step
generators, each of which yields the programs its answer needs and
receives their solutions; in windows of ``_MAX_BATCH`` generators it
solves the programs pending in a round grouped by shape. At n = 4 a
problem in a stack of 64 takes about 55 KB at the peak of its solve, and
the sweeps gain little from larger stacks.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergenceError

_SQRT2 = np.sqrt(2.0)
_MAX_ITER = 100
_TRI_INV_BASE = 64
_MAX_BATCH = 64


# ---------------------------------------------------------------------------
# Orthonormal real coordinates for Hermitian matrices.


@lru_cache(maxsize=None)
def _pair_indices(n: int):
    iu, ju = np.triu_indices(n, 1)
    return iu, ju


def extract_coords(t: np.ndarray) -> np.ndarray:
    """Coordinates Re Tr[E_k t] in the orthonormal Hermitian basis.

    Basis order: the n diagonal units e_ii, then (e_ij + e_ji)/sqrt2 and
    i(e_ij - e_ji)/sqrt2 over the upper triangle. For Hermitian t this is
    the isometric real vectorization (inverse of expand_coords). A stack
    of matrices gives one coordinate vector per matrix.
    """
    n = t.shape[-1]
    first, second, sign, divisor = _extract_tables(n)
    parts = np.ascontiguousarray(t).view(float).reshape(t.shape[:-2] + (2 * n * n,))
    return (parts.take(first, axis=-1) + sign * parts.take(second, axis=-1)) / divisor


@lru_cache(maxsize=None)
def _extract_tables(n: int):
    """Every coordinate of extract_coords is (first + sign * second) /
    divisor over the real and imaginary parts of the entries, interleaved:
    Re t_ii, then (Re t_ij + Re t_ji) / sqrt2, (Im t_ij - Im t_ji) / sqrt2."""
    iu, ju = _pair_indices(n)
    r = np.arange(n)
    # positions of Re t_aa, Re t_ij and Re t_ji; Im follows each Re
    diag, upper, lower = 2 * (r * n + r), 2 * (iu * n + ju), 2 * (ju * n + iu)
    first = np.concatenate([diag, upper, upper + 1])
    second = np.concatenate([diag, lower, lower + 1])
    sign = np.concatenate([np.zeros(n), np.ones(iu.size), -np.ones(iu.size)])
    divisor = np.concatenate([np.ones(n), np.full(2 * iu.size, _SQRT2)])
    for arr in (first, second, sign, divisor):
        arr.setflags(write=False)
    return first, second, sign, divisor


def expand_coords(w: np.ndarray, n: int) -> np.ndarray:
    """Hermitian matrix with the given basis coordinates; a stack of
    coordinate vectors gives one matrix per vector."""
    source, scale = _expand_tables(n)
    return (w.take(source, axis=-1) * scale).view(complex)[..., 0]


@lru_cache(maxsize=None)
def _expand_tables(n: int):
    """For the real and the imaginary part (last axis) of every entry of an
    n x n Hermitian matrix: the coordinate it is read from and its scale,
    +-1/sqrt2 off the diagonal and 0 for the diagonal's imaginary part."""
    iu, ju = _pair_indices(n)
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
    iu, ju = _pair_indices(d)
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

    A program sets ``n``, ``nw`` (= n^2), ``m`` and ``b``, then passes
    ``_set_data`` its data:

    ``groups``: one ``(C, signs, off, gens)`` per run of equal-size PSD
        blocks that share their generators, C and the iterates of a group
        stacked on axis -3, so that block j of the group has
        A_j(y) = signs[j] * H(y[:nw]) + sum_l y[off + l] gens[l] and
        S_j(y) = C[j] - A_j(y); signs are 0 on blocks that are not n x n,
        a group of more than one block is signed, gens may be empty, and
        gens on a signed group act only on coordinates >= nw;
    ``g_rows``: the (k, m) scalar row matrix G with s(y) = -G y (k may be 0).

    Every map takes and returns one array per group, with leading axes over
    problems. A program made by ``_stack`` carries one such axis on its
    per-problem data: ``b``, ``g_rows``, every C (``c``) and the names in
    ``_members``. ``schur`` allocates its work buffers once per stack
    shape, so a program object serves one solve at a time.
    """

    _members: tuple[str, ...] = ()

    def _set_data(self, groups, g_rows):
        self.c = [c for c, *_ in groups]
        # rows[l] @ X.ravel() = Tr[gens[l] X]
        self.groups = [
            (
                np.array(signs)[:, None, None],
                any(signs),
                off,
                gens,
                gens.transpose(0, 2, 1).reshape(len(gens), c.shape[-1] ** 2),
            )
            for c, signs, off, gens in groups
        ]
        self.g_rows = g_rows
        self.block_trace = sum(c.shape[0] * c.shape[-1] for c in self.c) + len(g_rows)
        self.signed = sum(len(c) for c, (_, signed, *_) in zip(self.c, self.groups) if signed)
        self._buffers = {}

    def _start_at(self, y):
        """Starting point: y with identity matrix duals and unit scalar duals."""
        mats = [np.broadcast_to(np.eye(c.shape[-1], dtype=complex), c.shape).copy() for c in self.c]
        return y, mats, np.ones(len(self.g_rows))

    def take(self, idx):
        """The stacked program of the problems ``idx`` of this one."""
        return _with_data(self, lambda a: a[idx])

    def slack_blocks(self, y):
        adj_mats, adj_scal = self.adjoint_blocks(y)
        return [c - a for c, a in zip(self.c, adj_mats)], -adj_scal

    def adjoint_blocks(self, y):
        """Linear map A^T(y); slack_blocks(y) = slack_blocks(0) - adjoint_blocks(y)."""
        lead = y.shape[:-1]
        h = expand_coords(y[..., : self.nw], self.n)[..., None, :, :]
        mats = []
        for c, (signs, signed, off, gens, _) in zip(self.c, self.groups):
            l, s = len(gens), c.shape[-1]
            if l:
                span = y[..., None, off : off + l] @ gens.reshape(l, s * s)
                a = span.reshape(lead + (1, s, s))
                if signed:
                    a = a + signs * h
            elif signed:
                a = signs * h
            else:
                a = np.zeros(lead + (1, s, s), dtype=complex)
            mats.append(a)
        return mats, (self.g_rows @ y[..., None])[..., 0]

    def apply(self, mats, scal):
        """Adjoint of adjoint_blocks: A(X) as a vector in y-space."""
        out = (scal[..., None, :] @ self.g_rows)[..., 0, :]
        h = 0.0
        for mat, (signs, signed, off, gens, rows) in zip(mats, self.groups):
            if signed:
                h = h + (signs * mat).sum(axis=-3)
            l = len(gens)
            if l:
                vec = mat.sum(axis=-3).reshape(mat.shape[:-3] + (-1, 1))
                out[..., off : off + l] += (rows @ vec)[..., 0].real
        out[..., : self.nw] += extract_coords(h)
        return out

    def _schur_buffers(self, lead):
        """The work buffers of ``schur`` for iterates with leading axes ``lead``."""
        if lead not in self._buffers:
            n, nw, k = self.n, self.nw, 4 * self.signed
            self._buffers[lead] = (
                np.empty(lead + (nw, k, n), dtype=complex),
                np.empty(lead + (nw, k, n), dtype=complex),
                np.empty(lead + (nw, nw), dtype=complex),
                np.empty(lead + (nw, (nw - n) // 2), dtype=complex),
                np.empty(lead + (self.m, self.m)),
            )
        return self._buffers[lead]

    def schur(self, x_mats, z_mats, xz_scal):
        """M[i,j] = sum over blocks of Re Tr[A_i X A_j Z] plus sum_k G_ki xz_k G_kj.

        The block of the Hermitian coordinates is the closed form of the
        module docstring: ``left`` and ``right`` hold the gathered rows,
        ``w`` the n^2 matrices W_i, ``upper`` their upper triangles. Only
        the returned matrix is allocated per call.
        """
        n, nw = self.n, self.nw
        npair = (nw - n) // 2
        lead = x_mats[0].shape[:-3]
        left_rows, right_rows, coef, upper_cols = _schur_gathers(n, self.signed)
        left, right, w, upper, m = self._schur_buffers(lead)
        signed = [(x, z) for x, z, (_, s, *_) in zip(x_mats, z_mats, self.groups) if s]

        def rows_of(mats):  # the rows of every signed block, in order
            return [a.reshape(lead + (-1, n)) for a in mats]

        left_src = np.concatenate(
            rows_of(x for x, _ in signed) + rows_of(z.conj().swapaxes(-1, -2) for _, z in signed),
            axis=-2,
        )
        # mode="clip": with the default mode, np.take fills a copy of ``out``
        np.take(left_src, left_rows, axis=-2, out=left, mode="clip")
        left *= coef
        right_src = np.concatenate(
            rows_of(z.swapaxes(-1, -2) for _, z in signed) + rows_of(x.conj() for x, _ in signed),
            axis=-2,
        )
        np.take(right_src, right_rows, axis=-2, out=right, mode="clip")
        np.matmul(left.swapaxes(-1, -2), right, out=w.reshape(lead + (nw, n, n)))
        np.take(w, upper_cols, axis=-1, out=upper, mode="clip")
        np.multiply(w[..., :: n + 1].real, 1.0 / _SQRT2, out=m[..., :nw, :n])
        np.copyto(m[..., :nw, n : n + npair], upper.real)
        np.negative(upper.imag, out=m[..., :nw, n + npair : nw])
        m[..., :nw, nw:] = 0.0
        m[..., nw:, :] = 0.0
        if len(self.g_rows):
            m += self.g_rows.swapaxes(-1, -2) @ (xz_scal[..., :, None] * self.g_rows)
        cross = {}  # sign * X F Z summed over the groups that share a span
        for x, z, (signs, is_signed, off, gens, rows) in zip(x_mats, z_mats, self.groups):
            l = len(gens)
            if not l:
                continue
            t = x[..., :, None, :, :] @ gens @ z[..., :, None, :, :]
            flat = t.sum(axis=-4).reshape(lead + (l, -1))
            m[..., off : off + l, off : off + l] += (rows @ flat.swapaxes(-1, -2)).real
            if is_signed:
                cross[off, l] = (signs[:, None] * t).sum(axis=-4) + cross.get((off, l), 0.0)
        for (off, l), t in cross.items():
            c = extract_coords(t)
            m[..., off : off + l, :nw] += c
            m[..., :nw, off : off + l] += c.swapaxes(-1, -2)
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
def _schur_gathers(n: int, signed: int):
    """Read-only index and coefficient tables of the closed-form Schur block.

    Term t of basis matrix E_i is (E_i)_ab e_ab: t = 0 only for e_aa, and
    t = 0, 1 for (a, b) = (p, q), (q, p) of a pair p < q. Column
    k = (h, t, s) of ``left_rows`` and ``right_rows`` indexes the
    concatenated sources of ``schur``: for h = 0, row b of X_s and row a of
    Z_s^T, scaled by ``coef`` = (E_i)_ab / sqrt2 (the 1/sqrt2 normalizes
    the columns j); for h = 1, row a of Z_s^H and row b of conj(X_s),
    scaled by its conjugate. ``upper_cols`` are the flat positions of the
    upper triangle of an n x n matrix.
    """
    iu, ju = _pair_indices(n)
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
    block = n * np.arange(signed)[:, None, None]

    def columns(rows):  # (2, n^2) rows of the terms -> (n^2, 2 * signed)
        return (rows + block).transpose(2, 1, 0).reshape(n * n, -1)

    other = n * signed  # the h = 1 sources follow the h = 0 ones
    left_rows = np.concatenate([columns(second), columns(first) + other], axis=1)
    right_rows = np.concatenate([columns(first), columns(second) + other], axis=1)
    coef = np.repeat(coef.T, signed, axis=1)
    coef = np.concatenate([coef, coef.conj()], axis=1)[:, :, None]
    upper_cols = iu * n + ju
    for arr in (left_rows, right_rows, coef, upper_cols):
        arr.setflags(write=False)
    return left_rows, right_rows, coef, upper_cols


class _Program(_BlockProgram):
    """Fixed and minimax programs (see module docstring)."""

    _members = ("deltas",)

    def __init__(self, deltas, ref_dim: int, minimax: bool):
        self._set_members(deltas, ref_dim, minimax)
        self.n = n = self.deltas.shape[-1]
        if n % ref_dim:
            raise ValueError("matrix dim not divisible by reference dim")
        self.out = n // ref_dim
        self.nw = nw = n * n
        self.m = nw + ref_dim * ref_dim - 1 + (1 if minimax else 0)
        fbasis = _traceless_stack(ref_dim)
        lifted = -np.kron(np.eye(self.out)[None], fbasis)
        eye = np.eye(n, dtype=complex)
        groups = [
            (np.stack([eye, eye]) / ref_dim, (1.0, -1.0), nw, lifted),
            (np.eye(ref_dim, dtype=complex)[None] / ref_dim, (0.0,), nw, -fbasis),
        ]
        self._set_data(groups, self._objective(extract_coords(self.deltas)))

    def _set_members(self, deltas, ref_dim, minimax):
        self.deltas = np.stack([np.asarray(d, dtype=complex) for d in deltas])
        self.k = len(self.deltas)
        self.ref = ref_dim
        self.minimax = minimax
        if not minimax and self.k != 1:
            raise ValueError("fixed-objective mode takes exactly one matrix")

    def shape_key(self):
        """Programs with equal keys stack (see ``_solve_batch``)."""
        return (type(self), self.n, self.ref, self.minimax, self.k)

    def _objective(self, coef):
        """Set b from the members' (k, j) coordinates on y[:j]; return G."""
        j = coef.shape[1]
        g_rows = np.zeros((self.k if self.minimax else 0, self.m))
        g_rows[:, :j] = -coef
        g_rows[:, -1] = 1.0
        self.b = np.zeros(self.m)
        if self.minimax:
            self.b[-1] = 1.0
        else:
            self.b[:j] = coef[0]
        return g_rows

    def start(self):
        y = np.zeros(self.m)
        if self.minimax:
            y[-1] = -1.0
        return self._start_at(y)

    def witness(self, y):
        """(W, rho); rho is the reference block's slack I/d + traceless part."""
        return expand_coords(y[: self.nw], self.n), self.slack_blocks(y)[0][1][0]

    def certificate(self, y, x_mats, x_scal):
        """(W, rho, weights) of a best bracket: the witness at y and, in
        minimax mode, the normalized scalar duals of the best dual iterate
        (None without one)."""
        w, rho = self.witness(y)
        weights = None if x_scal is None else self._mixed(x_scal)[0]
        return w, rho, weights

    def _mixed(self, scal):
        """(weights, Delta): the normalized scalar duals and their mixture in
        minimax mode, (None, the member) in fixed mode."""
        if not self.minimax:
            return None, self.deltas[..., 0, :, :]
        x = scal / scal.sum(-1, keepdims=True)  # the engine keeps every scalar dual >= 1e-300
        n = self.deltas.shape[-1]
        flat = self.deltas.reshape(self.deltas.shape[:-2] + (n * n,))
        return x, (x[..., None, :] @ flat).reshape(x.shape[:-1] + (n, n))

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the dual iterate: a certified
        upper bound on the program optimum at the mixture of the normalized
        scalar duals (minimax mode)."""
        _, delta = self._mixed(scal)
        pair = _shift_to_psd(_herm(mats[0]), delta)
        qref = _trace_out(pair.sum(axis=-3), self.out)
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
    """Programs 1 and 2 of a DUC family, on its invariant sectors (program 4
    of the module docstring). ``n`` is the sector size d, and the reference
    dimension is d or 1; ``witness`` and ``project_dual`` answer for the full
    d^2-dimensional program."""

    def __init__(self, deltas, ref_dim: int, minimax: bool):
        self._set_members(deltas, ref_dim, minimax)
        self.n = d = math.isqrt(self.deltas.shape[-1])
        self.nw = nw = d * d
        out_idx, in_idx = np.divmod(np.arange(nw), d)
        self.sector = np.flatnonzero(out_idx == in_idx)  # |aa>, a = 0..d-1
        off = np.flatnonzero(out_idx != in_idx)
        # |ab>, a != b, where some member has a nonzero diagonal entry
        self.pairs = pairs = off[np.any(self.deltas[:, off, off] != 0, axis=0)]
        ref_of = np.arange(nw) % ref_dim  # the reference index of each entry
        self.pair_ref = ref_of[pairs]
        npair = len(pairs)
        # (vector @ per_ref)[b] = its sum over the entries of reference b
        self.sector_ref = (ref_of[self.sector][:, None] == np.arange(ref_dim)).astype(float)
        self.per_ref = (self.pair_ref[:, None] == np.arange(ref_dim)).astype(float)
        self.m = nw + npair + ref_dim - 1 + (1 if minimax else 0)
        sec = self.sector
        coef = np.concatenate(
            [
                extract_coords(self.deltas[:, sec[:, None], sec]),
                self.deltas[:, pairs, pairs].real,
            ],
            axis=1,
        )
        # (ref_dim - 1, ref_dim)
        f = _traceless_stack(ref_dim)[: ref_dim - 1].diagonal(axis1=1, axis2=2).real
        # one diagonal block: p_b - w_ab and p_b + w_ab per pair, then p_b
        ref_of_diag = np.concatenate([self.pair_ref, self.pair_ref, np.arange(ref_dim)])
        size = len(ref_of_diag)
        diag_gens = np.zeros((npair + ref_dim - 1, size, size), dtype=complex)
        j = np.arange(npair)
        diag_gens[j, j, j] = 1.0
        diag_gens[j, npair + j, npair + j] = -1.0
        r = np.arange(size)
        diag_gens[npair:, r, r] = -f[:, ref_of_diag]
        sector_gens = -f[:, ref_of[sec], None] * np.eye(d, dtype=complex)
        eye = np.eye(d, dtype=complex)
        groups = [
            (np.stack([eye, eye]) / ref_dim, (1.0, -1.0), nw + npair, sector_gens),
            (np.eye(size, dtype=complex)[None] / ref_dim, (0.0,), nw, diag_gens),
        ]
        self._set_data(groups, self._objective(coef))

    def shape_key(self):
        return super().shape_key() + (tuple(self.pairs),)

    def witness(self, y):
        """(W, rho) on the full space: W is zero off the sectors, rho is diagonal."""
        npair = len(self.pairs)
        w = np.zeros((self.nw, self.nw), dtype=complex)
        w[self.sector[:, None], self.sector] = expand_coords(y[: self.nw], self.n)
        w[self.pairs, self.pairs] = y[self.nw : self.nw + npair]
        p = self.slack_blocks(y)[0][1][0].diagonal()[2 * npair :]
        return w, np.diag(p)

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the lifted dual iterate.

        The lifted X1 and X2 are the sector blocks plus the pair duals x-_ab
        and x+_ab on the diagonal, zero elsewhere. Delta is exactly zero off
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
        duals = mats[1][..., 0, :, :].diagonal(axis1=-2, axis2=-1).real
        least = np.abs(delta[..., pairs, pairs].real) + 2e-15
        s = np.maximum(duals[..., :npair] + duals[..., npair : 2 * npair], least)
        sector = pair.sum(axis=-3).diagonal(axis1=-2, axis2=-1).real
        lifted = sector[..., None, :] @ self.sector_ref + s[..., None, :] @ self.per_ref
        return np.max(lifted[..., 0, :], axis=-1)


def _program(deltas, ref_dim: int, minimax: bool) -> _Program:
    """The sector program when n = d^2, the reference dimension is d or 1 and
    every member is exactly zero off the sectors; the full program otherwise."""
    deltas = np.stack([np.asarray(d, dtype=complex) for d in deltas])
    d = math.isqrt(deltas.shape[-1])
    if (
        d > 1
        and d * d == deltas.shape[-1]
        and ref_dim in (d, 1)
        and not deltas[:, ~_sector_mask(d)].any()
    ):
        return _SectorProgram(deltas, ref_dim, minimax)
    return _Program(deltas, ref_dim, minimax)


class _DualProgram(_BlockProgram):
    """Dual form of the fixed-objective program (see module docstring).

    Free variables are the n^2 real coordinates of V plus the scalar t; the
    objective is max -t, so -b.y at an exactly feasible y-iterate is a true
    upper bound on the fixed program's optimum.
    """

    _members = ("delta",)

    def __init__(self, delta: np.ndarray, ref_dim: int):
        self.delta = np.asarray(delta, dtype=complex)
        self.n = n = self.delta.shape[-1]
        self.ref = ref_dim
        if n % ref_dim:
            raise ValueError("matrix dim not divisible by reference dim")
        self.out = n // ref_dim
        self.nw = nw = n * n
        self.m = nw + 1
        # 2 Tr_1[E_j] for every basis matrix, then I for the stored -t
        gens = np.concatenate(
            [2.0 * _trace_out(_herm_basis_stack(n), self.out), np.eye(ref_dim)[None]]
        )
        self.tr1_delta = _trace_out(self.delta, self.out)
        groups = [
            (np.stack([np.zeros_like(self.delta), self.delta]), (-1.0, -1.0), nw,
             np.zeros((0, n, n), dtype=complex)),
            (-self.tr1_delta[None], (0.0,), 0, gens),
        ]
        self.b = np.zeros(self.m)
        self.b[-1] = 1.0  # t is stored negated, so max b.y = max(-t)
        self._set_data(groups, np.zeros((0, self.m)))

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
        """The original program's (W, rho) that the best dual iterate
        projects to, (None, None) without one; no weights."""
        if x_mats is None:
            return None, None, None
        _, w, rho = self._projected_pair(x_mats)
        return w, rho, None

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the dual iterate.

        The dual variables of this program are the original program's
        (rho, W) pair; projecting them onto the original feasible set gives
        a lower bound L on the fixed program's optimum, i.e. an upper bound
        -L on this program's objective max(-t).
        """
        return -self._projected_pair(mats)[0]

    def _projected_pair(self, mats):
        """(L, W, rho): the original program's exactly feasible point that
        the dual iterate projects to and its objective L, or L = -inf where
        the reference block has no positive trace."""
        pair = _herm(mats[0])
        xv, xd = pair[..., 0, :, :], pair[..., 1, :, :]
        evals, evecs = np.linalg.eigh(_herm(mats[1][..., 0, :, :]))
        evals = np.clip(evals, 0.0, None)
        tr = evals.sum(axis=-1)
        valid = tr > 0.0
        # an invalid iterate goes on as W = 0 at the maximally mixed state
        tr = np.where(valid, tr, 1.0)[..., None, None]
        rho = (evecs * evals[..., None, :]) @ evecs.conj().swapaxes(-1, -2) / tr
        rho = np.where(valid[..., None, None], rho, np.eye(self.ref) / self.ref)
        w = np.where(valid[..., None, None], (xd - xv) / (2.0 * tr), 0.0)
        # Restrict W to the numerical support of I (x) rho: components on the
        # near-kernel are pure roundoff but would dominate the feasibility
        # scaling below. The restricted W block-diagonalizes against the
        # kernel, so the scaled pair stays exactly feasible. rho has unit
        # trace, so its top eigenvalue is always kept.
        lam, u = np.linalg.eigh(_herm(np.kron(np.eye(self.out), rho)))
        keep = lam > 1e-7 * lam[..., -1:]
        invroot = np.where(keep, 1.0 / np.sqrt(np.where(keep, lam, 1.0)), 0.0)
        uh = u.conj().swapaxes(-1, -2)
        wk = (uh @ w @ u) * (keep[..., :, None] & keep[..., None, :])
        pencil = (invroot[..., :, None] * wk) * invroot[..., None, :]
        top = np.abs(np.linalg.eigvalsh(_herm(pencil))).max(axis=-1)
        s = np.where(top <= 1.0, 1.0, (1.0 - 1e-14) / np.maximum(top, 1.0))
        wfeas = s[..., None, None] * (u @ wk @ uh)
        raw = _trace_dot(self.delta, wfeas).real
        wfeas = np.where((raw < 0.0)[..., None, None], -wfeas, wfeas)
        return np.where(valid, np.abs(raw), -np.inf), wfeas, rho


@dataclass
class SdpSolution:
    """Certified solution of one program instance."""

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
    if d_scal.shape[-1]:
        ratio = np.divide(scal, -d_scal, out=np.full(d_scal.shape, np.inf), where=d_scal < 0.0)
        alpha = np.minimum(alpha, ratio.min(axis=-1))
    return alpha


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
    mask, or None when all did."""
    try:
        return stage(prog, *args), None
    except np.linalg.LinAlgError:
        count = len(prog.b)
        if count == 1:
            return None, np.zeros(1, dtype=bool)
    parts, masks = [], []
    for idx in np.array_split(np.arange(count), 2):
        part, ok = _split(stage, *_take((prog, *args), idx))
        masks.append(np.ones(len(idx), dtype=bool) if ok is None else ok)
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
        if ok is not None and stop(~ok, iterations):
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
        if ok is not None and stop(~ok, iterations):
            break
        r.z_mats, r.z_scal, r.mu = centre
        r.mu_stall = (r.mu_stall + 1) * ((r.mu > 0.9 * r.prev_mu) & r.stuck)
        r.prev_mu = r.mu
        if stop((r.mu < 5e-14) | (r.mu_stall >= 6), iterations):
            break

        step, ok = _split(
            _newton, r.prog, r.y, r.x_mats, r.x_scal, r.s_mats, r.s_scal, r.z_mats, r.z_scal, r.mu
        )
        if ok is not None and stop(~ok, iterations):
            break
        # The step's Schur arrays stay alive until the next step has made its
        # own: freed first, the 0.6 MB arrays of an n = 16 program let glibc
        # trim the top of the heap, and every iteration faulted about 2 MB
        # back in (about 4600 minor faults per two-qubit solve instead of 600).
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
# generator that yields (program, gap_tol) for each solve and receives its
# SdpSolution; ``_run`` answers one generator solve by solve, ``_run_all``
# answers many together in batches.


def _run(steps):
    """The result of one step generator, each program it yields solved alone."""
    try:
        request = next(steps)
        while True:
            request = steps.send(_solve_ipm(*request))
    except StopIteration as finished:
        return finished.value


def _run_all(steps) -> list:
    """The results of the step generators ``steps``, in order.

    The generators run in windows of ``_MAX_BATCH``, which bounds both the
    stacks and the pending state. In a window, each round advances every
    generator to its next request, then solves the pending programs of each
    ``shape_key`` as one stack. A generator that raises stops alone; after
    its window, the first exception in generator order is raised.
    """
    results = []
    for lo in range(0, len(steps), _MAX_BATCH):
        window = steps[lo : lo + _MAX_BATCH]
        done = [None] * len(window)
        failures = [None] * len(window)
        pending = {}

        def advance(i, sol):
            try:
                pending[i] = window[i].send(sol)
            except StopIteration as finished:
                done[i] = finished.value
            except Exception as exc:
                failures[i] = exc

        for i in range(len(window)):
            advance(i, None)
        while pending:
            requests, pending = pending, {}
            groups = {}
            for i, (prog, _) in requests.items():
                groups.setdefault(prog.shape_key(), []).append(i)
            for ids in groups.values():
                sols = _solve_batch(*zip(*(requests[i] for i in ids)))
                for i, sol in zip(ids, sols):
                    advance(i, sol)
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
    bracket is still wider than tol. A diagonal-unitary-covariant delta at
    n = ref_dim^2 is solved on its sectors (program 4).
    """
    return _run(_fixed_steps(delta, ref_dim, tol))


def _fixed_steps(delta, ref_dim, tol):
    """``solve_fixed`` as steps."""
    sol = yield _program([delta], ref_dim, minimax=False), tol
    if sol.gap <= tol:
        return sol
    # The projected upper bound has hit its numerical floor; recompute both
    # bounds from the dual program, whose y-iterate gives an exact upper
    # bound and whose dual iterate projects to a second lower bound with its
    # own witness pair.
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
        weights=None,
        iterations=sol.iterations + dual_sol.iterations,
    )


def solve_minimax(deltas, ref_dim: int, tol: float) -> SdpSolution:
    """max_t { t <= Tr[delta_i W] } over the same feasible set as solve_fixed.

    The optimum equals min over the simplex of the fixed-objective value of
    the mixed delta (its trace norm at ref_dim = 1); SdpSolution.weights are
    the optimal mixture weights, normalized (None if no dual iterate gave a
    finite bound). Returns the best certified bracket found and never
    raises: a gap above tol is left for the caller to judge. A
    diagonal-unitary-covariant family at n = ref_dim^2 is solved on its
    sectors (program 4).
    """
    return _solve_ipm(_program(deltas, ref_dim, minimax=True), tol)
