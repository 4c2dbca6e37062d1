"""Quantum channels in Kraus form, their Choi operators, and channel algebra.

Conventions used everywhere in this package:

* A channel acts as rho -> sum_k K_k rho K_k^dag with sum_k K_k^dag K_k = I.
* The Choi operator is R = sum_k (K_k (x) I)|eta><eta|(K_k (x) I)^dag with the
  unnormalized maximally entangled vector |eta> = sum_n |n>(x)|n>, so Tr R = d.
* Choi factor ordering is (output (x) reference): the map acts on the FIRST
  tensor factor. A dedicated unit test pins this convention on the identity
  channel; every other module relies on it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimMismatchError,
    DimTooLargeError,
    KrausError,
    NotUnitaryError,
    RangeError,
    SimplexError,
    SpecParseError,
)
# kron is not called here; the name stays because perfbench/tracing.py wraps channels.kron
from .linalg import _require_finite, dagger, kron  # noqa: F401

__all__ = [
    "Channel",
    "choi",
    "apply_channel",
    "identity",
    "unitary_channel",
    "unitary_qubit",
    "qubit_unitary_matrix",
    "covariant",
    "pauli_channel",
    "damping",
    "mix",
    "tensor",
    "compose",
    "channels_close",
    "prob_vector",
    "parse_channel_spec",
    "PAULI",
]

_COMPLETENESS_TOL = 1e-9
_RANGE_SLOP = 1e-12
#: Largest channel dimension that the diamond and approximation routines take.
_MAX_DIM = 4

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def prob_vector(weights, tol: float = 1e-10) -> np.ndarray:
    """Validate weights as a point on the probability simplex.

    Entries may undershoot zero by at most 1e-12 (clamped); the sum must be
    1 within tol. NaN and infinite entries are rejected. Returns a fresh
    float array.
    """
    p = np.asarray(weights, dtype=float).copy()
    if p.ndim != 1 or p.size == 0:
        raise SimplexError("weights must be a nonempty 1-D sequence")
    if not np.all(p >= -1e-12):
        raise SimplexError(f"weights must be finite and nonnegative, got {p.tolist()}")
    p[p < 0] = 0.0
    if not abs(p.sum() - 1.0) <= tol:
        raise SimplexError(f"weights sum to {p.sum()}, expected 1")
    return p


def _check_dim(d: int) -> None:
    """Reject a channel dimension above ``_MAX_DIM``."""
    if d > _MAX_DIM:
        raise DimTooLargeError(f"dimension {d} exceeds the supported maximum {_MAX_DIM}")


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not (lo - _RANGE_SLOP <= value <= hi + _RANGE_SLOP):
        raise RangeError(f"{name}={value} outside [{lo}, {hi}]")
    return min(max(value, lo), hi)


def _check_ranges(name: str, values, lo: float, hi: float) -> np.ndarray:
    """``_check_range`` on an array of values: the first one outside
    [lo, hi] (NaN included) raises its RangeError; returns them clamped."""
    values = np.asarray(values, dtype=float)
    bad = ~((lo - _RANGE_SLOP <= values) & (values <= hi + _RANGE_SLOP))
    if bad.any():
        _check_range(name, values[bad][0], lo, hi)
    return np.minimum(np.maximum(values, lo), hi)


def _check_kraus(kraus: np.ndarray) -> None:
    """Raise KrausError unless the Kraus stacks ``kraus`` (..., K, d, d) are
    finite and trace preserving, each sum_k K^dag K within 1e-9 max(1, d)
    of I in Frobenius norm."""
    if not np.isfinite(kraus).all():
        raise KrausError("Kraus operator has NaN or infinite entries")
    d = kraus.shape[-1]
    flat = kraus.reshape(kraus.shape[:-3] + (-1, d))  # each stack's operators as rows
    defect = (flat.conj().swapaxes(-1, -2) @ flat - np.eye(d)).reshape(-1, d * d)
    bound = (_COMPLETENESS_TOL * max(1.0, float(d))) ** 2
    # the squared defect summed over the stacks bounds each stack's own, so
    # only a sum above the bound needs each stack's
    if np.vdot(defect, defect).real > bound and ((defect.conj() * defect).real.sum(-1) > bound).any():
        raise KrausError("Kraus operators are not trace preserving (sum K^dag K != I)")


def _choi_stack(kraus: np.ndarray) -> np.ndarray:
    """The Choi operators (..., d^2, d^2) of the Kraus stacks ``kraus``
    (..., K, d, d): sum_k vec(K_k) vec(K_k)^H, vec the row-major flatten,
    so that vec(K) = (K (x) I)|eta>. The sum runs over k in order from
    +0.0, so every entry has the bits of adding the operators' outer
    products one by one to a zero matrix; an operator that is exactly zero
    leaves every bit unchanged."""
    v = kraus.reshape(kraus.shape[:-2] + (-1,))
    outer = v[..., :, None] * v[..., None, :].conj()
    r = outer[..., 0, :, :] + 0.0
    for k in range(1, outer.shape[-3]):
        r += outer[..., k, :, :]
    return r


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map held as a Kraus list.

    An operator that is exactly zero (a zero weight, damping's C at
    gamma = 0) is not part of the map and is dropped, so ``len(kraus) ==
    1``, the rule of every closed form for one Kraus operator, does not
    depend on how the list is written: a vertex Pauli channel, damping(1, 0)
    and covariant(0) have one operator, as a unitary channel does. The Choi
    matrix keeps the bits of the full list (``_choi_stack``). A list with no
    nonzero operator raises KrausError."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise KrausError("empty Kraus list")
        mats = [np.asarray(k, dtype=complex) for k in self.kraus]
        for k in mats:
            if k.ndim != 2 or not 0 < k.shape[0] == k.shape[1]:
                raise KrausError(f"Kraus operator has shape {k.shape}, expected nonempty square")
            if k.shape != mats[0].shape:
                raise KrausError("Kraus operators have mixed dimensions")
        stack = np.array(mats)
        stack = stack[stack.any(axis=(1, 2))]
        _check_kraus(stack)
        stack.setflags(write=False)
        object.__setattr__(self, "kraus", tuple(stack))
        object.__setattr__(self, "_stack", stack)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @cached_property
    def choi(self) -> np.ndarray:
        """Choi operator on (output (x) reference), Tr = dim."""
        r = _choi_stack(self._stack)
        r.setflags(write=False)
        return r

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply_channel(self, rho)


def choi(ch: Channel) -> np.ndarray:
    """Choi operator of a channel (see Channel.choi)."""
    return ch.choi


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a matrix: sum_k K_k rho K_k^dag.

    A rho of the wrong shape raises DimMismatchError, and one with a NaN or
    infinite entry RangeError.
    """
    rho = _require_finite(np.asarray(rho, dtype=complex))
    if rho.shape != (ch.dim, ch.dim):
        raise DimMismatchError(f"state shape {rho.shape} != channel dim {ch.dim}")
    out = np.zeros_like(rho)
    for k in ch.kraus:
        out += k @ rho @ dagger(k)
    return out


def _weighted(weights, kraus: np.ndarray) -> np.ndarray:
    """The operators sqrt(w) K of the Kraus stacks ``kraus`` (..., K, d, d)
    at the weights (..., K)."""
    return np.sqrt(weights)[..., None, None] * kraus


def identity(d: int = 2) -> Channel:
    """Identity channel on dimension d."""
    return Channel((np.eye(d, dtype=complex),))


def unitary_channel(u: np.ndarray) -> Channel:
    """Conjugation by a unitary matrix: rho -> U rho U^dag.

    ``Channel`` decides unitarity, as trace preservation of the one Kraus
    operator U: a U that is not square and nonempty, has a NaN or infinite
    entry, or has U^dag U more than 1e-9 max(1, d) from I in Frobenius norm
    raises NotUnitaryError with ``Channel``'s message."""
    try:
        return Channel((u,))
    except KrausError as exc:
        raise NotUnitaryError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Channel families. Each family's Kraus operators come from one stacked
# builder over arrays of its checked parameters: (..., K, d, d) for
# parameters of shape (...), every operator kept, zero ones included. A
# scalar constructor is the stack of one, and a sweep window builds all its
# rows' operators in one call (``_ChoiDifferences``).


def _unitary_qubit_kraus(alpha, beta, delta) -> np.ndarray:
    """``qubit_unitary_matrix`` over angle arrays of at most one axis, as
    (..., 1, 2, 2)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    entries = [
        ca * np.exp(1j * beta),
        sa * np.exp(1j * delta),
        -sa * np.exp(-1j * delta),
        ca * np.exp(-1j * beta),
    ]
    return np.array(entries).T.reshape(np.shape(alpha) + (1, 2, 2))


def qubit_unitary_matrix(alpha: float, beta: float, delta: float) -> np.ndarray:
    """General SU(2) matrix with angles alpha in [0,pi/2], beta,delta in [0,2pi].

    U = [[cos(a) e^{i b},   sin(a) e^{i dl}],
         [-sin(a) e^{-i dl}, cos(a) e^{-i b}]]
    """
    return _unitary_qubit_kraus(*_checked("unitary", (alpha, beta, delta)))[0]


def unitary_qubit(alpha: float, beta: float, delta: float) -> Channel:
    """Qubit unitary channel from the three-angle parametrization."""
    return Channel(tuple(_unitary_qubit_kraus(*_checked("unitary", (alpha, beta, delta)))))


@lru_cache(maxsize=None)
def _covariant_basis(d: int) -> np.ndarray:
    """I, then an orthogonal traceless unitary basis, as (d^2, d, d),
    read-only: the Pauli matrices for d = 2, else X^a Z^b over
    (a, b) != (0, 0)."""
    if d == 2:
        basis = np.stack(PAULI)
    else:
        omega = np.exp(2j * np.pi / d)
        shift = np.eye(d, dtype=complex)[:, list(range(1, d)) + [0]].T  # X|j> = |j+1>
        clock = np.diag(omega ** np.arange(d))
        power = np.linalg.matrix_power
        basis = np.stack(
            [np.eye(d, dtype=complex)]
            + [power(shift, a) @ power(clock, b) for a in range(d) for b in range(d) if a or b]
        )
    basis.setflags(write=False)
    return basis


def _covariant_kraus(p, d: int = 2) -> np.ndarray:
    """``covariant`` over an array of p, as (..., d^2, d, d)."""
    p = np.asarray(p)
    weights = np.stack([1.0 - p] + [p / (d * d - 1)] * (d * d - 1), axis=-1)
    return _weighted(weights, _covariant_basis(d))


def covariant(p: float, d: int = 2) -> Channel:
    """Covariant channel rho -> (1-p) rho + p/(d^2-1) (d Tr[rho] I - rho).

    Kraus form: sqrt(1-p) I together with sqrt(p/(d^2-1)) V_i over a
    traceless orthogonal unitary basis (the Pauli basis for d=2).
    """
    (p,) = _checked("covariant", (p,))
    if not _is_integer(d):
        raise RangeError(f"dimension d={d!r} must be an integer")
    if d < 2:
        raise RangeError(f"dimension d={d} must be >= 2")
    return Channel(tuple(_covariant_kraus(p, int(d))))


def pauli_channel(p) -> Channel:
    """Pauli channel rho -> sum_i p_i sigma_i rho sigma_i."""
    p = prob_vector(p)
    if p.size != 4:
        raise SimplexError(f"Pauli channel needs 4 weights, got {p.size}")
    return Channel(tuple(_weighted(p, _covariant_basis(2))))


@lru_cache(maxsize=None)
def pauli_unitaries() -> tuple[Channel, ...]:
    """The four Pauli conjugation channels (identity, X, Y, Z), built once:
    a Channel is frozen and its Kraus operators are read-only."""
    return tuple(unitary_channel(s) for s in PAULI)


def _damping_kraus(q, gamma) -> np.ndarray:
    """``damping`` over arrays of q and gamma, as (..., 4, 2, 2)."""
    q = np.asarray(q)
    root, c = np.sqrt(1.0 - gamma), np.sqrt(gamma)
    ops = np.zeros(q.shape + (4, 2, 2), dtype=complex)
    ops[..., 0, 0, 0] = ops[..., 2, 1, 1] = 1.0  # A = diag(1, root), B = diag(root, 1)
    ops[..., 0, 1, 1] = ops[..., 2, 0, 0] = root
    ops[..., 1, 0, 1] = ops[..., 3, 1, 0] = c  # C and C^dag
    return _weighted(np.stack([q, q, 1.0 - q, 1.0 - q], axis=-1), ops)


def damping(q: float, gamma: float) -> Channel:
    """Generalized damping channel: q-mixture of damping and amplification.

    Kraus set {sqrt(q) A, sqrt(q) C, sqrt(1-q) B, sqrt(1-q) C^dag} with
    A = diag(1, sqrt(1-gamma)), B = diag(sqrt(1-gamma), 1), C = sqrt(gamma)|0><1|.
    """
    return Channel(tuple(_damping_kraus(*_checked("damping", (q, gamma)))))


#: Per family: its stacked Kraus builder and the name and range of each of
#: its parameters, in the builder's order.
_FAMILIES = {
    "unitary": (
        _unitary_qubit_kraus,
        (("alpha", 0.0, np.pi / 2), ("beta", 0.0, 2 * np.pi), ("delta", 0.0, 2 * np.pi)),
    ),
    "covariant": (_covariant_kraus, (("p", 0.0, 1.0),)),
    "damping": (_damping_kraus, (("q", 0.0, 1.0), ("gamma", 0.0, 1.0))),
}


def _checked(family: str, values) -> list[float]:
    """The scalar parameters ``values`` of ``family``, each checked and
    clamped by ``_check_range``; ``values`` may be the leading ones only."""
    ranges = _FAMILIES[family][1]
    return [_check_range(name, v, lo, hi) for v, (name, lo, hi) in zip(values, ranges)]


def _family_kraus(family: str, params) -> np.ndarray:
    """The Kraus stacks of ``family`` at the rows of ``params`` (B, its
    parameter count): each parameter column checked at once by
    ``_check_ranges``, then the stack's finiteness and trace preservation
    in one pass."""
    build, ranges = _FAMILIES[family]
    columns = np.asarray(params, dtype=float).T
    kraus = build(*(_check_ranges(name, v, lo, hi) for v, (name, lo, hi) in zip(columns, ranges)))
    _check_kraus(kraus)
    return kraus


def mix(chs, p) -> Channel:
    """Convex mixture of channels; the Choi is the weighted sum of Chois."""
    chs = list(chs)
    if not chs:
        raise DimMismatchError("empty channel list")
    p = prob_vector(p)
    if p.size != len(chs):
        raise SimplexError(f"{len(chs)} channels but {p.size} weights")
    d = chs[0].dim
    if any(ch.dim != d for ch in chs):
        raise DimMismatchError("mixed channel dimensions")
    weights = np.repeat(p, [len(ch.kraus) for ch in chs])
    return Channel(tuple(_weighted(weights, np.stack([k for ch in chs for k in ch.kraus]))))


def tensor(a: Channel, b: Channel) -> Channel:
    """Tensor product channel acting on the product space: the Kraus
    operators kron(K_a, K_b) over a's operators, then b's, all formed in one
    broadcast product (np.kron's bits; einsum's complex product rounds
    differently)."""
    ka, kb = np.stack(a.kraus), np.stack(b.kraus)
    prods = ka[:, None, :, None, :, None] * kb[None, :, None, :, None, :]
    d = a.dim * b.dim
    return Channel(tuple(prods.reshape(-1, d, d)))


def compose(outer: Channel, inner: Channel) -> Channel:
    """Composition outer after inner: rho -> outer(inner(rho))."""
    if outer.dim != inner.dim:
        raise DimMismatchError(f"dims {outer.dim} and {inner.dim} differ")
    return Channel(tuple(ko @ ki for ko in outer.kraus for ki in inner.kraus))


def channels_close(a: Channel, b: Channel, tol: float = 1e-8) -> bool:
    """Channel equality test: Frobenius distance of Choi operators <= tol.

    Kraus representations are non-unique, so equality is never decided on
    the Kraus lists themselves.  A NaN or negative tol raises RangeError.
    """
    if not tol >= 0.0:
        raise RangeError(f"tol must be nonnegative, got {tol!r}")
    if a.dim != b.dim:
        return False
    return bool(np.linalg.norm(a.choi - b.choi) <= tol)


class _ChoiDifferences:
    """A request for the Choi differences choi(first) - choi(m) of one
    channel ``first`` against each of ``members``; each is a fixed
    ``Channel`` or a (family, params) pair of a family in ``_FAMILIES``.

    A step generator yields it as (request, None), as it yields a bracket
    or a program, and receives (deltas, kraus): the differences as
    (members, n, n) and the Kraus operators of ``first`` as (K, d, d), a
    family's zero ones included (fig2 reads the unitary's one operator).
    ``sdp._run_all`` answers the pending requests of one ``shape_key`` (the
    same families and fixed members at each place) with one call of
    ``answer``; ``sdp._run`` answers one as a stack of one. Every
    difference has the bits of choi(a) - choi(b) for the channels that the
    scalar constructors build."""

    def __init__(self, first, members):
        self.channels = (first, *members)

    def shape_key(self):
        return (type(self),) + tuple(
            spec if isinstance(spec, Channel) else spec[0] for spec in self.channels
        )

    @staticmethod
    def answer(requests, tols=None) -> list:
        """The answers of same-shape requests in one stacked evaluation: one
        ``_family_kraus`` per family place, which raises the scalar
        constructor's RangeError for the first bad parameter, and one
        ``_choi_stack`` of its operators."""
        count = len(requests)
        chois = []
        for j, spec in enumerate(requests[0].channels):
            if isinstance(spec, Channel):
                kraus, choi = spec._stack[None], spec.choi[None]
            else:
                kraus = _family_kraus(spec[0], [r.channels[j][1] for r in requests])
                choi = _choi_stack(kraus)
            if j == 0:
                first = np.broadcast_to(kraus, (count,) + kraus.shape[1:])
            chois.append(np.broadcast_to(choi, (count,) + choi.shape[1:]))
        deltas = chois[0][:, None] - np.stack(chois[1:], axis=1)
        return [(deltas[i], first[i]) for i in range(count)]


# ---------------------------------------------------------------------------
# Channel-spec documents (JSON), the external interface consumed by the CLI.


def _parse_matrix(entry, d: int) -> np.ndarray:
    m = np.asarray(entry, dtype=float)
    if m.shape != (d, d, 2):
        raise SpecParseError(
            f"kraus matrix must be a {d}x{d} array of [re, im] pairs, got shape {m.shape}"
        )
    return m[..., 0] + 1j * m[..., 1]


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, not a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _spec_dim(value, field: str) -> int:
    """``value`` as the dimension of spec field ``field``: an integer (not a
    bool or a float) in 2.._MAX_DIM."""
    if not _is_integer(value):
        raise SpecParseError(f"'{field}' must be an integer, got {value!r}")
    if not 2 <= value <= _MAX_DIM:
        raise SpecParseError(f"'{field}': dimension {value} outside 2..{_MAX_DIM}")
    return int(value)


def parse_channel_spec(spec) -> Channel:
    """Build a Channel from a channel-spec document.

    Accepts a dict or a JSON string. Supported kinds:
      {"kind": "unitary", "alpha": a, "beta": b, "delta": dl}
      {"kind": "pauli", "p": [p0, p1, p2, p3]}
      {"kind": "covariant", "p": p}            (optional "d", default 2)
      {"kind": "damping", "q": q, "gamma": g}
      {"kind": "kraus", "dim": d, "matrices": [[[ [re, im], ... ] ...] ...]}
      {"kind": "tensor", "factors": [spec, spec]}
      {"kind": "mix", "weights": [...], "channels": [spec, ...]}

    The dimensions "d" and "dim" must be integers in 2..4, 4 being the
    largest that any command solves, and a tensor's factors' dimensions
    must multiply to at most 4, checked before the tensor is built.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecParseError(f"channel spec must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    try:
        if kind == "unitary":
            return unitary_qubit(spec["alpha"], spec["beta"], spec["delta"])
        if kind == "pauli":
            return pauli_channel(spec["p"])
        if kind == "covariant":
            return covariant(spec["p"], _spec_dim(spec.get("d", 2), "d"))
        if kind == "damping":
            return damping(spec["q"], spec["gamma"])
        if kind == "kraus":
            d = _spec_dim(spec["dim"], "dim")
            mats = [_parse_matrix(m, d) for m in spec["matrices"]]
            return Channel(tuple(mats))
        if kind == "tensor":
            factors = spec["factors"]
            if len(factors) != 2:
                raise SpecParseError("tensor spec needs exactly 2 factors")
            a, b = parse_channel_spec(factors[0]), parse_channel_spec(factors[1])
            if a.dim * b.dim > _MAX_DIM:
                raise SpecParseError(
                    f"'factors': dimension {a.dim} x {b.dim} exceeds the supported "
                    f"maximum {_MAX_DIM}"
                )
            return tensor(a, b)
        if kind == "mix":
            chs = [parse_channel_spec(s) for s in spec["channels"]]
            return mix(chs, spec["weights"])
    except SpecParseError:
        raise
    except (KeyError, TypeError) as exc:
        raise SpecParseError(f"malformed '{kind}' spec: {exc}") from exc
    except ValueError as exc:  # every library input error, and NumPy's conversion errors
        raise SpecParseError(f"invalid '{kind}' spec: {exc}") from exc
    raise SpecParseError(f"unknown channel kind {kind!r}")
