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
only its starting point, its witness and its dual projection.

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
   |aa><bb| entries and the diagonal. Conjugation by U (x) conj(U), U
   diagonal unitary, fixes each Delta_i and maps the feasible set onto
   itself, so the group average of an optimal (W, rho) is optimal, with
   rho = diag(p) and W one d x d block W_0 on the |aa> sector plus one
   real w_ab on each |ab>, a != b (Gatermann & Parrilo, J. Pure Appl.
   Algebra 2004; Singh & Nechita, Quantum 2021). A pair is kept only if
   some Delta_i has a nonzero |ab><ab| entry: otherwise w_ab = 0 loses
   nothing. y = (W_0, the kept w_ab, traceless part of p[, t]) with
   n = d; blocks diag(p) -+ W_0 with signs +1, -1, and one diagonal block
   holding p_b - w_ab, p_b + w_ab and p_b, whose C and generators are
   diagonal, so its iterates stay diagonal; b and G are those of 1 and 2
   on these coordinates. Both sides answer for the full program: the
   witness is W lifted with zeros off the sectors and rho = diag(p), and
   the bound is lambda_max(Tr_1[X1 + X2]) of the lifted duals, max_b
   [(X1 + X2)_bb + sum_{a != b} (x-_ab + x+_ab)], which is valid because
   Delta is exactly zero where the lift puts zeros. ``solve_fixed`` and
   ``solve_minimax`` take this form whenever one exact-zero test on the
   stacked Delta_i allows it; the trace bound at d = 1 never does.

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
before symmetrization live in buffers that each program allocates once
(3 MB at n = 16); a program therefore serves one solve at a time, and
separate programs solve concurrently. Arrays allocated per iteration
instead are returned to the system by glibc and faulted in again on every
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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergenceError

_SQRT2 = np.sqrt(2.0)
_MAX_ITER = 100
_TRI_INV_BASE = 64


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
    iu, ju = _pair_indices(n)
    r = np.arange(n)
    diag = t[..., r, r].real
    a = t[..., iu, ju]
    b = t[..., ju, iu]
    plus = (a.real + b.real) / _SQRT2
    minus = (a.imag - b.imag) / _SQRT2
    return np.concatenate([diag, plus, minus], axis=-1)


def expand_coords(w: np.ndarray, n: int) -> np.ndarray:
    """Hermitian matrix with the given basis coordinates."""
    iu, ju = _pair_indices(n)
    npair = iu.size
    h = np.zeros((n, n), dtype=complex)
    r = np.arange(n)
    h[r, r] = w[:n]
    c = (w[n : n + npair] + 1j * w[n + npair :]) / _SQRT2
    h[iu, ju] = c
    h[ju, iu] = c.conj()
    return h


@lru_cache(maxsize=None)
def _herm_basis_stack(n: int) -> np.ndarray:
    """All n^2 basis matrices as one (n^2, n, n) array."""
    e = np.zeros((n * n, n, n), dtype=complex)
    for k in range(n * n):
        w = np.zeros(n * n)
        w[k] = 1.0
        e[k] = expand_coords(w, n)
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
    return 0.5 * (a + a.conj().T)


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

    ``blocks``: one ``(C, sign, off, gens)`` per PSD block, so that
        A_b(y) = sign * H(y[:nw]) + sum_l y[off + l] gens[l] and
        S_b(y) = C - A_b(y); sign is 0 on blocks that are not n x n, gens
        may be empty, and gens on a block with nonzero sign act only on
        coordinates >= nw;
    ``g_rows``: the (k, m) scalar row matrix G with s(y) = -G y (k may be 0).

    ``_set_data`` also allocates the Schur work buffers, so a program object
    serves one solve at a time.
    """

    def _set_data(self, blocks, g_rows):
        # rows[l] @ X.ravel() = Tr[gens[l] X]
        self.blocks = [
            (c, sign, off, gens, gens.transpose(0, 2, 1).reshape(len(gens), c.size))
            for c, sign, off, gens in blocks
        ]
        self.g_rows = g_rows
        self.block_trace = sum(c.shape[0] for c, *_ in blocks) + len(g_rows)
        n, nw = self.n, self.nw
        self.signed = sum(1 for _, sign, *_ in blocks if sign)
        # Schur work buffers (see schur), owned by this program
        k = 4 * self.signed
        self._schur_buffers = (
            np.empty((nw, k, n), dtype=complex),
            np.empty((nw, k, n), dtype=complex),
            np.empty((nw, nw), dtype=complex),
            np.empty((nw, (nw - n) // 2), dtype=complex),
            np.empty((self.m, self.m)),
        )

    def _start_at(self, y):
        """Starting point: y with identity matrix duals and unit scalar duals."""
        mats = [np.eye(c.shape[0], dtype=complex) for c, *_ in self.blocks]
        return y, mats, np.ones(len(self.g_rows))

    def slack_blocks(self, y):
        adj_mats, adj_scal = self.adjoint_blocks(y)
        return [c - a for (c, *_), a in zip(self.blocks, adj_mats)], -adj_scal

    def adjoint_blocks(self, y):
        """Linear map A^T(y); slack_blocks(y) = slack_blocks(0) - adjoint_blocks(y)."""
        h = expand_coords(y[: self.nw], self.n)
        mats = []
        for c, sign, off, gens, _ in self.blocks:
            span = y[off : off + len(gens)] @ gens.reshape(len(gens), c.size)
            a = span.reshape(c.shape)
            if sign:
                a = a + sign * h
            mats.append(a)
        return mats, self.g_rows @ y

    def apply(self, mats, scal):
        """Adjoint of adjoint_blocks: A(X) as a vector in y-space."""
        out = self.g_rows.T @ scal
        h = 0.0
        for mat, (_, sign, off, gens, rows) in zip(mats, self.blocks):
            if sign:
                h = h + sign * mat
            out[off : off + len(gens)] += (rows @ mat.ravel()).real
        out[: self.nw] += extract_coords(h)
        return out

    def schur(self, x_mats, z_mats, xz_scal):
        """M[i,j] = sum over blocks of Re Tr[A_i X A_j Z] plus sum_k G_ki xz_k G_kj.

        The block of the Hermitian coordinates is the closed form of the
        module docstring: ``left`` and ``right`` hold the gathered rows,
        ``w`` the n^2 matrices W_i, ``upper`` their upper triangles. Only
        the returned matrix is allocated per call.
        """
        n, nw = self.n, self.nw
        npair = (nw - n) // 2
        left_rows, right_rows, coef, upper_cols = _schur_gathers(n, self.signed)
        xs = [x for x, (_, sign, *_) in zip(x_mats, self.blocks) if sign]
        zs = [z for z, (_, sign, *_) in zip(z_mats, self.blocks) if sign]
        left, right, w, upper, m = self._schur_buffers
        left_src = np.concatenate(xs + [z.conj().T for z in zs])
        # mode="clip": with the default mode, np.take fills a copy of ``out``
        np.take(left_src, left_rows, axis=0, out=left, mode="clip")
        left *= coef
        right_src = np.concatenate([z.T for z in zs] + [x.conj() for x in xs])
        np.take(right_src, right_rows, axis=0, out=right, mode="clip")
        np.matmul(left.transpose(0, 2, 1), right, out=w.reshape(nw, n, n))
        np.take(w, upper_cols, axis=1, out=upper, mode="clip")
        np.multiply(w[:, :: n + 1].real, 1.0 / _SQRT2, out=m[:nw, :n])
        np.copyto(m[:nw, n : n + npair], upper.real)
        np.negative(upper.imag, out=m[:nw, n + npair : nw])
        m[:nw, nw:] = 0.0
        m[nw:] = 0.0
        if len(xz_scal):
            m += self.g_rows.T @ (xz_scal[:, None] * self.g_rows)
        cross = {}  # sign * X F Z summed over the blocks that share a span
        for x, z, (_, sign, off, gens, rows) in zip(x_mats, z_mats, self.blocks):
            l = len(gens)
            if not l:
                continue
            t = np.matmul(np.matmul(x, gens), z)
            m[off : off + l, off : off + l] += (rows @ t.reshape(l, -1).T).real
            if sign:
                cross[off, l] = sign * t + cross.get((off, l), 0.0)
        for (off, l), t in cross.items():
            c = extract_coords(t)
            m[off : off + l, :nw] += c
            m[:nw, off : off + l] += c.T
        out = m.T.copy()
        out += m
        out *= 0.5
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
        c_big = np.eye(n, dtype=complex) / ref_dim
        c_ref = np.eye(ref_dim, dtype=complex) / ref_dim
        blocks = [
            (c_big, 1.0, nw, lifted),
            (c_big, -1.0, nw, lifted),
            (c_ref, 0.0, nw, -fbasis),
        ]
        self._set_data(blocks, self._objective(extract_coords(self.deltas)))

    def _set_members(self, deltas, ref_dim, minimax):
        self.deltas = np.stack([np.asarray(d, dtype=complex) for d in deltas])
        self.k = len(self.deltas)
        self.ref = ref_dim
        self.minimax = minimax
        if not minimax and self.k != 1:
            raise ValueError("fixed-objective mode takes exactly one matrix")

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
        return expand_coords(y[: self.nw], self.n), self.slack_blocks(y)[0][2]

    def _mixed(self, scal):
        """(weights, Delta): the normalized scalar duals and their mixture in
        minimax mode, (None, the member) in fixed mode."""
        if not self.minimax:
            return None, self.deltas[0]
        x = scal / scal.sum()  # _solve_ipm keeps every scalar dual >= 1e-300
        return x, np.einsum("k,kab->ab", x, self.deltas)

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the dual iterate.

        Returns (value, weights) where value is a certified upper bound on
        the program optimum and weights are the normalized scalar duals
        (minimax mode) used in the projection.
        """
        x, delta = self._mixed(scal)
        x1, x2 = _shift_to_psd(_herm(mats[0]), _herm(mats[1]), delta)
        qref = _trace_out(x1 + x2, self.out)
        return float(np.linalg.eigvalsh(_herm(qref))[-1]), x


def _shift_to_psd(x1, x2, delta):
    """X1 and X2 moved by opposite halves of one shift to X1 - X2 = delta,
    then raised by one multiple of I until both are PSD."""
    shift = 0.5 * (x1 - x2 - delta)
    x1 = x1 - shift
    x2 = x2 + shift
    lmin = min(np.linalg.eigvalsh(x1)[0], np.linalg.eigvalsh(x2)[0])
    if lmin < 0.0:
        bump = -lmin + 1e-15
        x1 = x1 + bump * np.eye(len(x1))
        x2 = x2 + bump * np.eye(len(x2))
    return x1, x2


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
    of the module docstring). ``n`` is the sector size d; ``witness`` and
    ``project_dual`` answer for the full d^2-dimensional program."""

    def __init__(self, deltas, ref_dim: int, minimax: bool):
        self._set_members(deltas, ref_dim, minimax)
        self.n = d = ref_dim
        self.nw = nw = d * d
        out_idx, ref_idx = np.divmod(np.arange(nw), d)
        self.sector = np.flatnonzero(out_idx == ref_idx)  # |aa>, a = 0..d-1
        off = np.flatnonzero(out_idx != ref_idx)
        # |ab>, a != b, where some member has a nonzero diagonal entry
        self.pairs = pairs = off[np.any(self.deltas[:, off, off] != 0, axis=0)]
        self.pair_ref = ref_idx[pairs]
        npair = len(pairs)
        self.m = nw + npair + d - 1 + (1 if minimax else 0)
        sec = self.sector
        coef = np.concatenate(
            [
                extract_coords(self.deltas[:, sec[:, None], sec]),
                self.deltas[:, pairs, pairs].real,
            ],
            axis=1,
        )
        f = _traceless_stack(d)[: d - 1].diagonal(axis1=1, axis2=2).real  # (d-1, d)
        # one diagonal block: p_b - w_ab and p_b + w_ab per pair, then p_b
        ref_of = np.concatenate([self.pair_ref, self.pair_ref, np.arange(d)])
        size = len(ref_of)
        diag_gens = np.zeros((npair + d - 1, size, size), dtype=complex)
        j = np.arange(npair)
        diag_gens[j, j, j] = 1.0
        diag_gens[j, npair + j, npair + j] = -1.0
        r = np.arange(size)
        diag_gens[npair:, r, r] = -f[:, ref_of]
        sector_gens = -f[:, :, None] * np.eye(d, dtype=complex)
        c_sector = np.eye(d, dtype=complex) / d
        blocks = [
            (c_sector, 1.0, nw + npair, sector_gens),
            (c_sector, -1.0, nw + npair, sector_gens),
            (np.eye(size, dtype=complex) / d, 0.0, nw, diag_gens),
        ]
        self._set_data(blocks, self._objective(coef))

    def witness(self, y):
        """(W, rho) on the full space: W is zero off the sectors, rho is diagonal."""
        npair = len(self.pairs)
        w = np.zeros((self.nw, self.nw), dtype=complex)
        w[self.sector[:, None], self.sector] = expand_coords(y[: self.nw], self.n)
        w[self.pairs, self.pairs] = y[self.nw : self.nw + npair]
        p = self.slack_blocks(y)[0][2].diagonal()[2 * npair :]
        return w, np.diag(p)

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the lifted dual iterate.

        The lifted X1 and X2 are the sector blocks plus the pair duals x-_ab
        and x+_ab on the diagonal, zero elsewhere. Delta is exactly zero off
        the sectors, so X1 - X2 = Delta holds block by block: the sector
        blocks as in program 1, and each pair as x-+_ab = (s +- Delta_ab)/2
        with s = max(x-_ab + x+_ab, |Delta_ab| + 2e-15), both nonnegative.
        lambda_max(Tr_1[X1 + X2]) is then
        max_b [(X1 + X2)_bb + sum_{a != b} s_ab].
        """
        x, delta = self._mixed(scal)
        sec = self.sector
        x1, x2 = _shift_to_psd(
            _herm(mats[0]), _herm(mats[1]), delta[sec[:, None], sec]
        )
        npair = len(self.pairs)
        duals = mats[2].diagonal().real
        least = np.abs(delta[self.pairs, self.pairs].real) + 2e-15
        s = np.maximum(duals[:npair] + duals[npair : 2 * npair], least)
        per_ref = np.bincount(self.pair_ref, weights=s, minlength=self.n)
        return float(np.max((x1 + x2).diagonal().real + per_ref)), x


def _program(deltas, ref_dim: int, minimax: bool) -> _Program:
    """The sector program when n = ref_dim^2 and every member is exactly zero
    off the sectors; the full program otherwise."""
    deltas = np.stack([np.asarray(d, dtype=complex) for d in deltas])
    if (
        ref_dim > 1
        and deltas.shape[-1] == ref_dim * ref_dim
        and not deltas[:, ~_sector_mask(ref_dim)].any()
    ):
        return _SectorProgram(deltas, ref_dim, minimax)
    return _Program(deltas, ref_dim, minimax)


class _DualProgram(_BlockProgram):
    """Dual form of the fixed-objective program (see module docstring).

    Free variables are the n^2 real coordinates of V plus the scalar t; the
    objective is max -t, so -b.y at an exactly feasible y-iterate is a true
    upper bound on the fixed program's optimum.
    """

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
        no_gens = np.zeros((0, n, n), dtype=complex)
        blocks = [
            (np.zeros((n, n), dtype=complex), -1.0, nw, no_gens),
            (self.delta, -1.0, nw, no_gens),
            (-self.tr1_delta, 0.0, 0, gens),
        ]
        self.b = np.zeros(self.m)
        self.b[-1] = 1.0  # t is stored negated, so max b.y = max(-t)
        self._set_data(blocks, np.zeros((0, self.m)))
        # best projected primal point of the original program: (bound, W, rho)
        self.best_pair = (-np.inf, None, None)

    def start(self):
        lmin = float(np.linalg.eigvalsh(_herm(self.delta))[0])
        c = 1.0 + max(0.0, -lmin)
        y = np.zeros(self.m)
        y[: self.n] = c
        t0 = float(np.linalg.eigvalsh(_herm(self.tr1_delta))[-1]) + 2 * c * self.out + 1.0
        y[-1] = -t0  # objective is max -t, so store t with its sign flipped
        return self._start_at(y)

    def witness(self, y):
        return expand_coords(y[: self.nw], self.n), None

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the dual iterate.

        The dual variables of this program are the original program's
        (rho, W) pair; projecting them onto the original feasible set gives
        a lower bound L on the fixed program's optimum, i.e. an upper bound
        -L on this program's objective max(-t).
        """
        xv = _herm(mats[0])
        xd = _herm(mats[1])
        xb = _herm(mats[2])
        evals, evecs = np.linalg.eigh(xb)
        evals = np.clip(evals, 0.0, None)
        tr = evals.sum()
        if not tr > 0.0:
            return np.inf, None
        rho = (evecs * (evals / tr)) @ evecs.conj().T
        w = (xd - xv) / (2.0 * tr)
        # Restrict W to the numerical support of I (x) rho: components on the
        # near-kernel are pure roundoff but would dominate the feasibility
        # scaling below. The restricted W block-diagonalizes against the
        # kernel, so the scaled pair stays exactly feasible. rho has unit
        # trace, so its top eigenvalue is always kept.
        p = np.kron(np.eye(self.out), rho)
        lam, u = np.linalg.eigh(_herm(p))
        keep = lam > 1e-7 * lam[-1]
        lk = lam[keep]
        uk = u[:, keep]
        wk = uk.conj().T @ w @ uk
        invroot = 1.0 / np.sqrt(lk)
        pencil = (invroot[:, None] * wk) * invroot[None, :]
        top = float(np.abs(np.linalg.eigvalsh(_herm(pencil))).max())
        s = 1.0 if top <= 1.0 else (1.0 - 1e-14) / top
        wfeas = s * (uk @ wk @ uk.conj().T)
        raw = float(np.einsum("ab,ba->", self.delta, wfeas).real)
        if raw < 0.0:
            wfeas = -wfeas
            raw = -raw
        if raw > self.best_pair[0]:
            self.best_pair = (raw, wfeas, rho)
        return -raw, None


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
# Interior-point engine.


def _block_ip(a_mats, a_scal, b_mats, b_scal):
    tot = 0.0
    for am, bm in zip(a_mats, b_mats):
        tot += float(np.einsum("ab,ba->", am, bm).real)
    return tot + float(a_scal @ b_scal)


def _inv_sqrt_factors(mats):
    """R = U Lambda^-1/2 of each block P = U Lambda U^H.

    Flooring Lambda at a trace-relative jitter keeps R finite on a singular
    or roundoff-indefinite block.
    """
    roots = []
    for pb in mats:
        lam, u = np.linalg.eigh(pb)
        jit = 1e-300 + 1e-15 * abs(np.trace(pb).real) / pb.shape[0]
        roots.append(u / np.sqrt(np.maximum(lam, jit)))
    return roots


def _max_step(roots, scal, d_mats, d_scal):
    """sup alpha such that every block P + alpha dP stays PSD and
    scal + alpha d_scal stays nonnegative, given ``roots`` =
    _inv_sqrt_factors of the blocks P.

    Per block, alpha <= -1/lambda_min(R^H dP R); the floored jitter keeps
    the step finite and nonnegative.
    """
    alpha = np.inf
    for r, db in zip(roots, d_mats):
        lmin = float(np.linalg.eigvalsh(_herm(r.conj().T @ db @ r))[0])
        if lmin < 0.0:
            alpha = min(alpha, -1.0 / lmin)
    neg = d_scal < 0.0
    if np.any(neg):
        alpha = min(alpha, float(np.min(-scal[neg] / d_scal[neg])))
    return alpha


def _tri_inv(low):
    """Inverse of a nonsingular lower-triangular matrix, itself lower-triangular.

    Splits by halves, [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]],
    down to _TRI_INV_BASE rows, which np.linalg.inv takes directly.
    """
    n = low.shape[0]
    if n <= _TRI_INV_BASE:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    a_inv = _tri_inv(low[:h, :h])
    c_inv = _tri_inv(low[h:, h:])
    out = np.zeros_like(low)
    out[:h, :h] = a_inv
    out[h:, h:] = c_inv
    out[h:, :h] = -c_inv @ (low[h:, :h] @ a_inv)
    return out


def _lin_solve(m, li, rhs):
    """Solve m x = rhs given li = L^-1 for m = L L^T, refining twice against m.

    The Schur system turns ill-conditioned as the barrier parameter drops;
    refinement buys the extra digits the certificates need.
    """
    x = li.T @ (li @ rhs)
    for _ in range(2):
        x = x + li.T @ (li @ (rhs - m @ x))
    return x


def _solve_ipm(prog, gap_tol: float) -> SdpSolution:
    """Best certified bracket of one program; never raises on a wide gap.

    Each iteration keeps the best lower bound b.y and the best projected
    upper bound, then stops at the first of: the gap target (gap <=
    gap_tol); the gap stall or the mu stall (6 iterations in a row without
    lower-bound progress that shrink the gap by under 0.1%, or mu by under
    10%); the mu floor (mu < 5e-14); ``_MAX_ITER`` iterations; or a
    ``LinAlgError`` anywhere in the iteration: a singular slack matrix, a
    Schur matrix that is not numerically positive definite (its Cholesky
    factorization fails), or a failed eigensolve.
    """
    y, x_mats, x_scal = prog.start()
    best_primal = -np.inf
    best_y = y.copy()
    best_dual = np.inf
    best_weights = None
    iterations = 0
    stall = 0
    mu_stall = 0
    prev_gap = np.inf
    prev_mu = np.inf
    prev_best_primal = -np.inf
    try:
        for iterations in range(1, _MAX_ITER + 1):
            s_mats, s_scal = prog.slack_blocks(y)
            s_mats = [_herm(sb) for sb in s_mats]
            primal = float(prog.b @ y)
            if primal > best_primal:
                best_primal = primal
                best_y = y.copy()
            dual, weights = prog.project_dual(x_mats, x_scal)
            if dual < best_dual:
                best_dual = dual
                best_weights = weights
            gap = best_dual - best_primal
            if gap <= gap_tol:
                break
            # Stop once progress has hit its numerical floor: further
            # iterations only erode the iterates. Progress is measured on the
            # certified gap when a projection is available (an infinite gap
            # compares false) and on the barrier parameter otherwise; a lower
            # bound still improving at tolerance scale always counts.
            primal_progress = best_primal > prev_best_primal + 0.02 * gap_tol
            prev_best_primal = best_primal
            if not primal_progress and gap > prev_gap - max(1e-3 * abs(gap), 1e-15):
                stall += 1
                if stall >= 6:
                    break
            else:
                stall = 0
            prev_gap = gap

            z_mats = [_herm(np.linalg.inv(sb)) for sb in s_mats]
            z_scal = 1.0 / s_scal
            mu = _block_ip(x_mats, x_scal, s_mats, s_scal) / prog.block_trace
            if mu < 5e-14:
                break
            if not primal_progress and mu > 0.9 * prev_mu:
                mu_stall += 1
                if mu_stall >= 6:
                    break
            else:
                mu_stall = 0
            prev_mu = mu
            m = prog.schur(x_mats, z_mats, x_scal * z_scal)
            m[np.diag_indices_from(m)] += 1e-13 * (np.trace(m) / prog.m + 1.0)
            li = _tri_inv(np.linalg.cholesky(m))
            az = prog.apply(z_mats, z_scal)
            # the predictor and the corrector step from the same iterates
            x_roots = _inv_sqrt_factors(x_mats)
            s_roots = _inv_sqrt_factors(s_mats)

            def direction(rhs, smu, corr_mats, corr_scal):
                """HKM direction (dx, ds, dy) for the right-hand side ``rhs``, centring
                target ``smu`` and second-order term ``corr``; then its damped steps."""
                dy = _lin_solve(m, li, rhs)
                adj_mats, adj_scal = prog.adjoint_blocks(dy)
                ds_mats, ds_scal = [-ab for ab in adj_mats], -adj_scal
                dx_mats = [
                    _herm(smu * zb - xb - cb + xb @ ab @ zb)
                    for xb, ab, zb, cb in zip(x_mats, adj_mats, z_mats, corr_mats)
                ]
                dx_scal = smu * z_scal - x_scal - corr_scal + x_scal * adj_scal * z_scal
                ap = min(1.0, 0.99 * _max_step(x_roots, x_scal, dx_mats, dx_scal))
                ad = min(1.0, 0.99 * _max_step(s_roots, s_scal, ds_mats, ds_scal))
                return dx_mats, dx_scal, ds_mats, ds_scal, dy, ap, ad

            # predictor: the affine-scaling direction, smu = 0 and no correction
            dx_a_mats, dx_a_scal, ds_a_mats, ds_a_scal, _, ap, ad = direction(
                prog.b, 0.0, [0.0] * len(x_mats), 0.0
            )
            xa_mats = [xb + ap * db for xb, db in zip(x_mats, dx_a_mats)]
            xa_scal = x_scal + ap * dx_a_scal
            sa_mats = [sb + ad * db for sb, db in zip(s_mats, ds_a_mats)]
            sa_scal = s_scal + ad * ds_a_scal
            mu_aff = max(0.0, _block_ip(xa_mats, xa_scal, sa_mats, sa_scal)) / prog.block_trace
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10))

            # corrector
            corr_mats = [da @ ds @ zb for da, ds, zb in zip(dx_a_mats, ds_a_mats, z_mats)]
            corr_scal = dx_a_scal * ds_a_scal * z_scal
            rhs = prog.b - sigma * mu * az + prog.apply(corr_mats, corr_scal)
            dx_mats, dx_scal, _, _, dy, ap, ad = direction(rhs, sigma * mu, corr_mats, corr_scal)
            x_mats = [_herm(xb + ap * db) for xb, db in zip(x_mats, dx_mats)]
            x_scal = np.maximum(x_scal + ap * dx_scal, 1e-300)
            y = y + ad * dy
    except np.linalg.LinAlgError:
        pass  # the best bracket so far stands

    w, rho = prog.witness(best_y)
    return SdpSolution(
        primal=best_primal,
        dual=best_dual,
        witness_w=w,
        witness_rho=rho,
        weights=best_weights,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Public entry points.


def solve_fixed(delta: np.ndarray, ref_dim: int, tol: float) -> SdpSolution:
    """max Tr[delta W] over -I(x)rho <= W <= I(x)rho, rho a density matrix.

    Returns a bracket with gap <= tol, falling back to the dual program when
    the first solve stops short; raises NoConvergenceError if the combined
    bracket is still wider than tol. A diagonal-unitary-covariant delta at
    n = ref_dim^2 is solved on its sectors (program 4).
    """
    sol = _solve_ipm(_program([delta], ref_dim, minimax=False), tol)
    if sol.gap <= tol:
        return sol
    # The projected upper bound has hit its numerical floor; recompute both
    # bounds from the dual program, whose y-iterate gives an exact upper
    # bound and whose dual iterate projects to a second lower bound with its
    # own witness pair.
    dual_prog = _DualProgram(delta, ref_dim)
    dual_sol = _solve_ipm(dual_prog, tol)
    lower = sol.primal
    witness_w, witness_rho = sol.witness_w, sol.witness_rho
    pair_bound, pair_w, pair_rho = dual_prog.best_pair
    if pair_bound > lower:
        lower = pair_bound
        witness_w, witness_rho = pair_w, pair_rho
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
