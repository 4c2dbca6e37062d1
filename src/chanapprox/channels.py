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
from .linalg import dagger, kron

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


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map held as a Kraus list."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise KrausError("empty Kraus list")
        mats = []
        d = None
        for k in self.kraus:
            k = np.asarray(k, dtype=complex)
            if k.ndim != 2 or not 0 < k.shape[0] == k.shape[1]:
                raise KrausError(f"Kraus operator has shape {k.shape}, expected nonempty square")
            if not np.all(np.isfinite(k)):
                raise KrausError("Kraus operator has NaN or infinite entries")
            if d is None:
                d = k.shape[0]
            elif k.shape[0] != d:
                raise KrausError("Kraus operators have mixed dimensions")
            k = k.copy()
            k.setflags(write=False)
            mats.append(k)
        total = sum(dagger(k) @ k for k in mats)
        if not np.linalg.norm(total - np.eye(d)) <= _COMPLETENESS_TOL * max(1.0, float(d)):
            raise KrausError("Kraus operators are not trace preserving (sum K^dag K != I)")
        object.__setattr__(self, "kraus", tuple(mats))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @cached_property
    def choi(self) -> np.ndarray:
        """Choi operator on (output (x) reference), Tr = dim."""
        d = self.dim
        r = np.zeros((d * d, d * d), dtype=complex)
        for k in self.kraus:
            v = np.asarray(k).reshape(-1)  # row-major flatten of K = (K (x) I)|eta>
            r += np.outer(v, v.conj())
        r.setflags(write=False)
        return r

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return apply_channel(self, rho)


def choi(ch: Channel) -> np.ndarray:
    """Choi operator of a channel (see Channel.choi)."""
    return ch.choi


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a matrix: sum_k K_k rho K_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise DimMismatchError(f"state shape {rho.shape} != channel dim {ch.dim}")
    out = np.zeros_like(rho)
    for k in ch.kraus:
        out += k @ rho @ dagger(k)
    return out


def _weighted(pairs) -> Channel:
    """The channel with Kraus operators sqrt(w) K over the pairs (w, K),
    leaving out every operator that is exactly zero: a zero weight, or
    damping's C at gamma = 0. A vertex Pauli channel, damping(1, 0) or
    covariant(0) thus has one operator, as a unitary channel does."""
    return Channel(tuple(m for m in (np.sqrt(w) * k for w, k in pairs) if m.any()))


def identity(d: int = 2) -> Channel:
    """Identity channel on dimension d."""
    return Channel((np.eye(d, dtype=complex),))


def unitary_channel(u: np.ndarray) -> Channel:
    """Conjugation by a unitary matrix: rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitaryError(f"expected a square matrix, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NotUnitaryError("matrix has NaN or infinite entries")
    if np.linalg.norm(dagger(u) @ u - np.eye(u.shape[0])) > 1e-9 * max(1.0, u.shape[0]):
        raise NotUnitaryError("matrix is not unitary within 1e-9")
    return Channel((u,))


def qubit_unitary_matrix(alpha: float, beta: float, delta: float) -> np.ndarray:
    """General SU(2) matrix with angles alpha in [0,pi/2], beta,delta in [0,2pi].

    U = [[cos(a) e^{i b},   sin(a) e^{i dl}],
         [-sin(a) e^{-i dl}, cos(a) e^{-i b}]]
    """
    alpha = _check_range("alpha", alpha, 0.0, np.pi / 2)
    beta = _check_range("beta", beta, 0.0, 2 * np.pi)
    delta = _check_range("delta", delta, 0.0, 2 * np.pi)
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array(
        [
            [ca * np.exp(1j * beta), sa * np.exp(1j * delta)],
            [-sa * np.exp(-1j * delta), ca * np.exp(-1j * beta)],
        ]
    )


def unitary_qubit(alpha: float, beta: float, delta: float) -> Channel:
    """Qubit unitary channel from the three-angle parametrization."""
    return Channel((qubit_unitary_matrix(alpha, beta, delta),))


def _weyl_basis(d: int) -> list[np.ndarray]:
    """Orthogonal unitary basis X^a Z^b, the (a,b) != (0,0) part, d^2 - 1 terms."""
    omega = np.exp(2j * np.pi / d)
    shift = np.eye(d, dtype=complex)[:, list(range(1, d)) + [0]].T  # X|j> = |j+1>
    clock = np.diag(omega ** np.arange(d))
    out = []
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            out.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return out


def covariant(p: float, d: int = 2) -> Channel:
    """Covariant channel rho -> (1-p) rho + p/(d^2-1) (d Tr[rho] I - rho).

    Kraus form: sqrt(1-p) I together with sqrt(p/(d^2-1)) V_i over a
    traceless orthogonal unitary basis (the Pauli basis for d=2).
    """
    p = _check_range("p", p, 0.0, 1.0)
    if not _is_integer(d):
        raise RangeError(f"dimension d={d!r} must be an integer")
    if d < 2:
        raise RangeError(f"dimension d={d} must be >= 2")
    if d == 2:
        basis = list(PAULI[1:])
    else:
        basis = _weyl_basis(d)
    return _weighted([(1.0 - p, np.eye(d, dtype=complex))] + [(p / (d * d - 1), v) for v in basis])


def pauli_channel(p) -> Channel:
    """Pauli channel rho -> sum_i p_i sigma_i rho sigma_i."""
    p = prob_vector(p)
    if p.size != 4:
        raise SimplexError(f"Pauli channel needs 4 weights, got {p.size}")
    return _weighted(zip(p, PAULI))


@lru_cache(maxsize=None)
def pauli_unitaries() -> tuple[Channel, ...]:
    """The four Pauli conjugation channels (identity, X, Y, Z), built once:
    a Channel is frozen and its Kraus operators are read-only."""
    return tuple(unitary_channel(s) for s in PAULI)


def damping(q: float, gamma: float) -> Channel:
    """Generalized damping channel: q-mixture of damping and amplification.

    Kraus set {sqrt(q) A, sqrt(q) C, sqrt(1-q) B, sqrt(1-q) C^dag} with
    A = diag(1, sqrt(1-gamma)), B = diag(sqrt(1-gamma), 1), C = sqrt(gamma)|0><1|.
    """
    q = _check_range("q", q, 0.0, 1.0)
    gamma = _check_range("gamma", gamma, 0.0, 1.0)
    a = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    b = np.diag([np.sqrt(1.0 - gamma), 1.0]).astype(complex)
    c = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return _weighted([(q, a), (q, c), (1.0 - q, b), (1.0 - q, dagger(c))])


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
    return _weighted((wi, k) for wi, ch in zip(p, chs) for k in ch.kraus)


def tensor(a: Channel, b: Channel) -> Channel:
    """Tensor product channel acting on the product space."""
    return Channel(tuple(kron(ka, kb) for ka in a.kraus for kb in b.kraus))


def compose(outer: Channel, inner: Channel) -> Channel:
    """Composition outer after inner: rho -> outer(inner(rho))."""
    if outer.dim != inner.dim:
        raise DimMismatchError(f"dims {outer.dim} and {inner.dim} differ")
    return Channel(tuple(ko @ ki for ko in outer.kraus for ki in inner.kraus))


def channels_close(a: Channel, b: Channel, tol: float = 1e-8) -> bool:
    """Channel equality test: Frobenius distance of Choi operators <= tol.

    Kraus representations are non-unique, so equality is never decided on
    the Kraus lists themselves.
    """
    if a.dim != b.dim:
        return False
    return bool(np.linalg.norm(a.choi - b.choi) <= tol)


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
    except (RangeError, SimplexError, KrausError, DimMismatchError, NotUnitaryError) as exc:
        raise SpecParseError(f"invalid '{kind}' spec: {exc}") from exc
    raise SpecParseError(f"unknown channel kind {kind!r}")
