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
3. Trace-norm minimax: as 2 with -I <= W <= I, so C = (I, I), signs +1,
   -1 and no generators; the optimum is min over the simplex of the trace
   norm of the mixed Delta.
4. The dual of 1 (Watrous, arXiv:1207.5726): minimize t subject to
   V >= 0, Delta + V >= 0 and t I - Tr_1[Delta + 2 V] >= 0. y = (V, -t);
   C = (0, Delta, -Tr_1[Delta]); signs -1, -1, 0; the reference block's
   generators are 2 Tr_1[E_j] over the basis matrices E_j, then I.

The engine follows the standard path-following scheme with the HKM search
direction and a Mehrotra predictor-corrector step. The y-iterate is kept
exactly feasible (slacks recomputed from y each iteration), so b.y is always
a true lower bound; upper bounds come from an exact-feasibility projection
of the dual iterate. The solver is deterministic: fixed starting point, no
randomization.

The projected upper bound carries a small numerical floor (the dual iterate
picks up roundoff infeasibility that scales like eps over the barrier
parameter). When a fixed-objective solve needs a tighter certificate than
that floor, ``solve_fixed`` recomputes the upper bound with program 4,
whose objective is again evaluated at an exactly feasible point, so both
sides of the final certificate are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergenceError

_SQRT2 = np.sqrt(2.0)
_MAX_ITER = 100


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
        S_b(y) = C - A_b(y); sign is 0 on blocks that are not n x n, and
        gens on a block with nonzero sign act only on coordinates >= nw;
    ``g_rows``: the (k, m) scalar row matrix G with s(y) = -G y (k may be 0).
    """

    def _set_data(self, blocks, g_rows):
        # rows[l] @ X.ravel() = Tr[gens[l] X]
        self.blocks = [
            (c, sign, off, gens, gens.transpose(0, 2, 1).reshape(len(gens), c.size))
            for c, sign, off, gens in blocks
        ]
        self.g_rows = g_rows
        self.block_trace = sum(c.shape[0] for c, *_ in blocks) + len(g_rows)
        self.basis = _herm_basis_stack(self.n)

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
            a = sign * h if sign else 0.0
            if len(gens):
                span = y[off : off + len(gens)] @ gens.reshape(len(gens), c.size)
                a = a + span.reshape(c.shape)
            mats.append(a)
        return mats, self.g_rows @ y

    def apply(self, mats, scal):
        """Adjoint of adjoint_blocks: A(X) as a vector in y-space."""
        out = self.g_rows.T @ scal
        h = 0.0
        for mat, (_, sign, off, gens, rows) in zip(mats, self.blocks):
            if sign:
                h = h + sign * mat
            if len(gens):
                out[off : off + len(gens)] += (rows @ mat.ravel()).real
        out[: self.nw] += extract_coords(h)
        return out

    def schur(self, x_mats, z_mats, xz_scal):
        """M[i,j] = sum over blocks of Re Tr[A_i X A_j Z] plus sum_k G_ki xz_k G_kj."""
        nw = self.nw
        tl = 0.0
        for x, z, (_, sign, *_) in zip(x_mats, z_mats, self.blocks):
            if sign:
                tl += np.matmul(np.matmul(x, self.basis), z)
        m = np.zeros((self.m, self.m))
        m[:nw, :nw] = extract_coords(tl).T
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
        return 0.5 * (m + m.T)


class _Program(_BlockProgram):
    """Fixed, minimax and trace-minimax programs (see module docstring)."""

    def __init__(self, deltas, ref_dim: int | None, minimax: bool):
        self.deltas = np.stack([np.asarray(d, dtype=complex) for d in deltas])
        self.k = len(deltas)
        self.n = n = self.deltas.shape[-1]
        self.ref = ref_dim
        self.minimax = minimax
        if not minimax and self.k != 1:
            raise ValueError("fixed-objective mode takes exactly one matrix")
        self.nw = nw = n * n
        nu = ref_dim * ref_dim - 1 if ref_dim else 0
        self.m = nw + nu + (1 if minimax else 0)
        coef = extract_coords(self.deltas)  # (k, nw)
        if ref_dim:
            if n % ref_dim:
                raise ValueError("matrix dim not divisible by reference dim")
            self.out = n // ref_dim
            fbasis = _traceless_stack(ref_dim)
            lifted = -np.stack([np.kron(np.eye(self.out), f) for f in fbasis])
            c_big = np.eye(n, dtype=complex) / ref_dim
            c_ref = np.eye(ref_dim, dtype=complex) / ref_dim
            blocks = [
                (c_big, 1.0, nw, lifted),
                (c_big, -1.0, nw, lifted),
                (c_ref, 0.0, nw, -fbasis),
            ]
        else:
            no_gens = np.zeros((0, n, n), dtype=complex)
            eye = np.eye(n, dtype=complex)
            blocks = [(eye, 1.0, nw, no_gens), (eye, -1.0, nw, no_gens)]
        g_rows = np.zeros((self.k if minimax else 0, self.m))
        g_rows[:, :nw] = -coef
        g_rows[:, -1] = 1.0
        self.b = np.zeros(self.m)
        if minimax:
            self.b[-1] = 1.0
        else:
            self.b[:nw] = coef[0]
        self._set_data(blocks, g_rows)

    def start(self):
        y = np.zeros(self.m)
        if self.minimax:
            y[-1] = -1.0
        return self._start_at(y)

    def witness(self, y):
        """(W, rho); rho is the reference block's slack I/d + traceless part."""
        rho = self.slack_blocks(y)[0][2] if self.ref else None
        return expand_coords(y[: self.nw], self.n), rho

    def project_dual(self, mats, scal):
        """Exact-feasibility projection of the dual iterate.

        Returns (value, weights) where value is a certified upper bound on
        the program optimum and weights are the normalized scalar duals
        (minimax mode) used in the projection.
        """
        x1 = _herm(mats[0])
        x2 = _herm(mats[1])
        if self.minimax:
            x = np.clip(scal, 0.0, None)
            s = x.sum()
            x = np.full(self.k, 1.0 / self.k) if s <= 0 else x / s
            delta = np.einsum("k,kab->ab", x, self.deltas)
        else:
            x = None
            delta = self.deltas[0]
        shift = 0.5 * (x1 - x2 - delta)
        x1 = x1 - shift
        x2 = x2 + shift
        lmin = min(np.linalg.eigvalsh(x1)[0], np.linalg.eigvalsh(x2)[0])
        if lmin < 0.0:
            bump = -lmin + 1e-15
            x1 = x1 + bump * np.eye(self.n)
            x2 = x2 + bump * np.eye(self.n)
        q = x1 + x2
        if self.ref:
            qref = _trace_out(q, self.out)
            value = float(np.linalg.eigvalsh(_herm(qref))[-1])
        else:
            value = float(np.trace(q).real)
        return value, x


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
        if tr <= 0.0:
            return np.inf, None
        rho = (evecs * (evals / tr)) @ evecs.conj().T
        w = (xd - xv) / (2.0 * tr)
        # Restrict W to the numerical support of I (x) rho: components on the
        # near-kernel are pure roundoff but would dominate the feasibility
        # scaling below. The restricted W block-diagonalizes against the
        # kernel, so the scaled pair stays exactly feasible.
        p = np.kron(np.eye(self.out), rho)
        lam, u = np.linalg.eigh(_herm(p))
        keep = lam > 1e-7 * lam[-1]
        if not np.any(keep):
            return np.inf, None
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
    def value(self) -> float:
        return 0.5 * (self.primal + self.dual)

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


def _max_step(mats, scal, d_mats, d_scal):
    """sup alpha such that (mats, scal) + alpha * direction stays PSD."""
    alpha = np.inf
    for pb, db in zip(mats, d_mats):
        n = pb.shape[0]
        jit = 1e-300 + 1e-15 * abs(np.trace(pb).real) / n
        try:
            ell = np.linalg.cholesky(pb + jit * np.eye(n))
        except np.linalg.LinAlgError:
            bump = -float(np.linalg.eigvalsh(pb)[0]) + 1e-15
            try:
                ell = np.linalg.cholesky(pb + bump * np.eye(n))
            except np.linalg.LinAlgError:
                return 0.0
        g = np.linalg.solve(ell, db)
        g = np.linalg.solve(ell, g.conj().T).conj().T
        lmin = float(np.linalg.eigvalsh(_herm(g))[0])
        if lmin < 0.0:
            alpha = min(alpha, -1.0 / lmin)
    neg = d_scal < 0.0
    if np.any(neg):
        alpha = min(alpha, float(np.min(-scal[neg] / d_scal[neg])))
    return alpha


def _lin_solve(m, rhs):
    """Solve m x = rhs with two rounds of iterative refinement.

    The Schur system turns ill-conditioned as the barrier parameter drops;
    refinement buys the extra digits the certificates need.
    """
    x = np.linalg.solve(m, rhs)
    for _ in range(2):
        x = x + np.linalg.solve(m, rhs - m @ x)
    return x


def _solve_ipm(prog, gap_tol: float) -> SdpSolution:
    """Best certified bracket of one program; never raises on a wide gap."""
    y, x_mats, x_scal = prog.start()
    best_primal = -np.inf
    best_y = y.copy()
    best_dual = np.inf
    best_weights = None
    tau = 0.99
    iterations = 0
    stall = 0
    mu_stall = 0
    prev_gap = np.inf
    prev_mu = np.inf
    prev_best_primal = -np.inf
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
        # Stop once progress has hit its numerical floor: further iterations
        # only erode the iterates. Progress is measured on the certified gap
        # when a projection is available and on the barrier parameter
        # otherwise; a lower bound still improving at tolerance scale always
        # counts as progress.
        primal_progress = best_primal > prev_best_primal + 0.02 * gap_tol
        prev_best_primal = best_primal
        if (
            not primal_progress
            and np.isfinite(gap)
            and gap > prev_gap - max(1e-3 * abs(gap), 1e-15)
        ):
            stall += 1
            if stall >= 6:
                break
        else:
            stall = 0
        prev_gap = gap

        try:
            z_mats = [np.linalg.inv(sb) for sb in s_mats]
        except np.linalg.LinAlgError:
            break
        z_mats = [_herm(zb) for zb in z_mats]
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
        az = prog.apply(z_mats, z_scal)

        # predictor (affine scaling)
        try:
            dy_a = _lin_solve(m, prog.b)
        except np.linalg.LinAlgError:
            break
        adj_mats, adj_scal = prog.adjoint_blocks(dy_a)
        ds_a_mats = [-ab for ab in adj_mats]
        ds_a_scal = -adj_scal
        dx_a_mats = [
            _herm(-xb + xb @ ab @ zb) for xb, ab, zb in zip(x_mats, adj_mats, z_mats)
        ]
        dx_a_scal = -x_scal + x_scal * adj_scal * z_scal
        ap = min(1.0, 0.99 * _max_step(x_mats, x_scal, dx_a_mats, dx_a_scal))
        ad = min(1.0, 0.99 * _max_step(s_mats, s_scal, ds_a_mats, ds_a_scal))
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
        try:
            dy = _lin_solve(m, rhs)
        except np.linalg.LinAlgError:
            break
        adj_mats, adj_scal = prog.adjoint_blocks(dy)
        ds_mats = [-ab for ab in adj_mats]
        ds_scal = -adj_scal
        dx_mats = [
            _herm(sigma * mu * zb - xb - cb + xb @ ab @ zb)
            for xb, ab, zb, cb in zip(x_mats, adj_mats, z_mats, corr_mats)
        ]
        dx_scal = sigma * mu * z_scal - x_scal - corr_scal + x_scal * adj_scal * z_scal
        ap = min(1.0, tau * _max_step(x_mats, x_scal, dx_mats, dx_scal))
        ad = min(1.0, tau * _max_step(s_mats, s_scal, ds_mats, ds_scal))
        x_mats = [_herm(xb + ap * db) for xb, db in zip(x_mats, dx_mats)]
        x_scal = np.maximum(x_scal + ap * dx_scal, 1e-300)
        y = y + ad * dy

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
    bracket is still wider than tol.
    """
    sol = _solve_ipm(_Program([delta], ref_dim, minimax=False), tol)
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
    the mixed delta; SdpSolution.weights are the optimal mixture weights,
    normalized (None if no dual iterate gave a finite bound). Returns the
    best certified bracket found and never raises: a gap above tol is left
    for the caller to judge.
    """
    return _solve_ipm(_Program(list(deltas), ref_dim, minimax=True), tol)


def solve_minimax_trace(deltas, tol: float) -> SdpSolution:
    """min over the simplex of the trace norm of the mixed delta.

    Like solve_minimax, returns the best certified bracket and never raises.
    """
    return _solve_ipm(_Program(list(deltas), None, minimax=True), tol)
