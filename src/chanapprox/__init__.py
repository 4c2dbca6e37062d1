"""Certified diamond-norm distances and optimal convex approximations
of quantum channels.

The package computes how well a target channel can be approximated by
convex mixtures of a given channel set, measured in the diamond norm,
with every reported distance carrying a primal/dual certificate:

- :mod:`chanapprox.linalg` — matrix primitives (trace norm, partial
  trace, PSD checks) shared by everything else.
- :mod:`chanapprox.channels` — Kraus-form channels, Choi matrices, and
  the JSON channel-spec parser.
- :mod:`chanapprox.diamond` — certified diamond-distance solver built on
  an interior-point semidefinite solver, plus closed-form special cases.
- :mod:`chanapprox.approx` — optimal convex-mixture approximation,
  closed-form covariant and Pauli families, damping-channel bounds, and
  the two-copy study.
- :mod:`chanapprox.cli` — the ``chanapprox`` command-line tool.
"""

from .approx import (
    ApproxResult,
    MultiCopyResult,
    approx_bounds,
    covariance_distance,
    covariance_distance_x,
    covariant_objective,
    damping_bounds,
    multi_copy_approx,
    optimal_convex_approx,
    pauli_distance_damping,
    pauli_distance_special,
)
from .channels import (
    Channel,
    apply_channel,
    channels_close,
    choi,
    compose,
    covariant,
    damping,
    identity,
    mix,
    parse_channel_spec,
    pauli_channel,
    pauli_unitaries,
    qubit_unitary_matrix,
    tensor,
    unitary_channel,
    unitary_qubit,
)
from .diamond import (
    DiamondResult,
    PolygonRadius,
    alternating_lower_bound,
    choi_trace_distance,
    d_i_unitary,
    diamond_sdp,
    diamond_unitary,
    discrimination_probability,
    fixed_input_bound,
    polygon_radius,
)
from .errors import (
    DimMismatchError,
    DimTooLargeError,
    InvalidStateError,
    KrausError,
    NoConvergenceError,
    NonSquareError,
    NotHermitianError,
    NotUnitaryError,
    RangeError,
    SimplexError,
    SpecParseError,
)
from .linalg import (
    HermEigen,
    dagger,
    herm_eig,
    is_hermitian,
    kron,
    partial_trace,
    spectral_norm,
    trace_norm,
)

__all__ = [
    "ApproxResult",
    "Channel",
    "DiamondResult",
    "DimMismatchError",
    "DimTooLargeError",
    "HermEigen",
    "InvalidStateError",
    "KrausError",
    "MultiCopyResult",
    "NoConvergenceError",
    "NonSquareError",
    "NotHermitianError",
    "NotUnitaryError",
    "PolygonRadius",
    "RangeError",
    "SimplexError",
    "SpecParseError",
    "alternating_lower_bound",
    "apply_channel",
    "approx_bounds",
    "channels_close",
    "choi",
    "choi_trace_distance",
    "compose",
    "covariance_distance",
    "covariance_distance_x",
    "covariant",
    "covariant_objective",
    "d_i_unitary",
    "dagger",
    "damping",
    "damping_bounds",
    "diamond_sdp",
    "diamond_unitary",
    "discrimination_probability",
    "fixed_input_bound",
    "herm_eig",
    "identity",
    "is_hermitian",
    "kron",
    "mix",
    "multi_copy_approx",
    "optimal_convex_approx",
    "parse_channel_spec",
    "partial_trace",
    "pauli_channel",
    "pauli_distance_damping",
    "pauli_distance_special",
    "pauli_unitaries",
    "polygon_radius",
    "qubit_unitary_matrix",
    "spectral_norm",
    "tensor",
    "trace_norm",
    "unitary_channel",
    "unitary_qubit",
]
