"""Command-line interface: certified channel distances, convex
approximations, and reproducible figure-data sweeps.

Output conventions
------------------
CSV output has a comma-separated header row followed by data rows whose
floats are printed with 12 significant digits, so identical invocations
produce byte-identical files.  Wall-clock times are never written to CSV.
JSON output is a record (or list of records) that echoes the inputs and
carries a ``convention`` field stating the Choi-matrix ordering, so a
record is interpretable without reading the source.

Every emitted distance row embeds its certificate gap.  A sweep row whose
gap exceeds the requested tolerance, or that violates a bound the sweep
promises (for example a distance outside its analytic bracket), aborts
the run with exit code 4 rather than writing unreliable data.

Exit codes: 0 success; 2 argument or channel-spec parse error; 3 solver
non-convergence; 4 invariant violation during a sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .approx import (
    covariance_distance_x,
    damping_bounds,
    multi_copy_approx,
    optimal_convex_approx,
    pauli_distance_damping,
)
from .channels import (
    identity,
    parse_channel_spec,
    pauli_unitaries,
    unitary_qubit,
)
from .channels import covariant as covariant_channel
from .diamond import diamond_sdp, discrimination_probability
from .errors import NoConvergenceError, SpecParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOCONVERGENCE = 3
EXIT_INVARIANT = 4

#: Convex-approximation routines certify to this floor; sweeps built on
#: them clamp the requested tolerance up to it.
_APPROX_TOL_FLOOR = 1e-6

_CONVENTION = (
    "Choi matrix R = (map (x) id)(|eta><eta|) with unnormalized "
    "|eta> = sum_i |ii> (Tr R = dim); the map acts on the first tensor "
    "factor, so R lives on output (x) reference"
)


class SweepInvariantError(RuntimeError):
    """A sweep row violated a promised bound or certificate threshold."""


@dataclass(frozen=True)
class SweepAxis:
    """One linearly spaced sweep axis.

    Invariants: ``count >= 2`` and ``start <= stop``; violations are
    reported as argument errors.
    """

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise SpecParseError(
                f"axis {self.name}: count must be at least 2, got {self.count}"
            )
        if not self.start <= self.stop:
            raise SpecParseError(
                f"axis {self.name}: start {self.start} exceeds stop {self.stop}"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """Validated configuration for a figure-data sweep.

    Invariant: ``tolerance`` is finite and ``>= 1e-9`` (the certification
    floor of the fixed-pair solver).
    """

    axes: tuple[SweepAxis, ...]
    tolerance: float
    workers: int

    def __post_init__(self) -> None:
        if not 1e-9 <= self.tolerance < np.inf:
            raise SpecParseError(
                f"tolerance must be finite and at least 1e-9, got {self.tolerance}"
            )
        if self.workers < 1:
            raise SpecParseError(f"workers must be positive, got {self.workers}")


@dataclass(frozen=True)
class ResultRecord:
    """One computed distance with its inputs, certificate, and timing."""

    label: str
    inputs: dict
    distance: float
    weights: tuple[float, ...] | None
    bounds: dict
    gap: float
    wall_time: float

    def to_json(self) -> dict:
        doc: dict = {"label": self.label, "inputs": self.inputs}
        doc["distance"] = self.distance
        if self.weights is not None:
            doc["weights"] = list(self.weights)
        doc["bounds"] = self.bounds
        doc["gap"] = self.gap
        doc["wall_time_s"] = self.wall_time
        doc["convention"] = _CONVENTION
        return doc


def _fmt(x) -> str:
    """Deterministic 12-significant-digit float formatting for CSV/text."""
    return format(float(x), ".12g")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _csv_text(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _check_row_gap(gap: float, tol: float, context: str) -> None:
    if gap > tol:
        raise SweepInvariantError(
            f"{context}: certificate gap {gap:.3e} exceeds tolerance {tol:.3e}"
        )


def _map_rows(worker, items, workers: int) -> list:
    """Evaluate ``worker`` over ``items`` preserving order.

    With ``workers > 1`` the rows are computed in a process pool;
    ``ProcessPoolExecutor.map`` preserves input order, so parallel and
    serial runs emit byte-identical output.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items, chunksize=chunk))


def _load_channel_spec(text: str):
    """Parse a channel-spec argument: inline JSON or a path to a JSON file.

    Returns ``(document, channel)``.  Any failure (unreadable file, bad
    JSON, unknown kind, invalid parameters) is a spec parse error.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        source, payload = "inline spec", stripped
    else:
        source = f"spec file {text!r}"
        try:
            with open(text, "r", encoding="utf-8") as fh:
                payload = fh.read()
        except OSError as exc:
            raise SpecParseError(f"cannot read {source}: {exc}") from exc
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{source}: invalid JSON: {exc}") from exc
    return doc, parse_channel_spec(doc)


# ---------------------------------------------------------------------------
# Row workers.  Module-level so they are picklable for --parallel.
# ---------------------------------------------------------------------------


def _fig1_row(item) -> tuple:
    """(x, analytic D, optimal p, certified SDP D, gap) for one shift x."""
    x, sdp_tol = item
    value, p_opt = covariance_distance_x(x)
    alpha = float(np.arcsin(np.clip(x / 2.0, -1.0, 1.0)))
    res = diamond_sdp(unitary_qubit(alpha, 0.0, 0.0), covariant_channel(p_opt), sdp_tol)
    return (x, value, p_opt, res.value, res.gap)


def _fig2_row(item) -> tuple:
    """(alpha, beta, Pauli-mixture distance, gap) for one unitary."""
    alpha, beta, delta, tol = item
    res = optimal_convex_approx(
        unitary_qubit(alpha, beta, delta), pauli_unitaries(), tol
    )
    return (alpha, beta, res.distance, res.witness.gap)


def _fig3_row(item) -> tuple:
    """(q, gamma, structured Pauli distance, gap) for one damping channel."""
    q, gamma, tol = item
    res = pauli_distance_damping(q, gamma, tol)
    return (q, gamma, res.distance, res.witness.gap)


def _fig4_row(item) -> tuple:
    """(gamma, distance, lower, upper, gap) for one damping strength."""
    q, gamma, tol = item
    res = pauli_distance_damping(q, gamma, tol)
    lower, upper = damping_bounds(q, gamma)
    return (gamma, res.distance, lower, upper, res.witness.gap)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_diamond(args) -> int:
    """Certified diamond distance between two channel specs."""
    doc_a, chan_a = _load_channel_spec(args.a)
    doc_b, chan_b = _load_channel_spec(args.b)
    start = time.perf_counter()
    res = diamond_sdp(chan_a, chan_b, args.tol)
    elapsed = time.perf_counter() - start
    record = ResultRecord(
        label="diamond",
        inputs={"a": doc_a, "b": doc_b, "tol": args.tol},
        distance=res.value,
        weights=None,
        bounds={"primal": res.primal, "dual": res.dual},
        gap=res.gap,
        wall_time=elapsed,
    )
    if args.format == "json":
        _emit(_json_text(record.to_json()), args.out)
    else:
        lines = [
            f"diamond distance: {_fmt(res.value)}",
            f"discrimination probability: {_fmt(discrimination_probability(res.value))}",
            f"certified bounds: [{_fmt(res.primal)}, {_fmt(res.dual)}]",
            f"certificate gap: {_fmt(res.gap)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_approx(args) -> int:
    """Best convex mixture of the given channels approximating the target."""
    doc_target, target = _load_channel_spec(args.target)
    docs = []
    members = []
    for spec in args.members:
        doc, chan = _load_channel_spec(spec)
        docs.append(doc)
        members.append(chan)
    tol = max(args.tol, _APPROX_TOL_FLOOR)
    start = time.perf_counter()
    res = optimal_convex_approx(target, members, tol)
    elapsed = time.perf_counter() - start
    record = ResultRecord(
        label="approx",
        inputs={"target": doc_target, "set": docs, "tol": tol},
        distance=res.distance,
        weights=tuple(float(w) for w in res.weights),
        bounds={
            "upper_bound_single": res.upper_bound_single,
            "lower_bound_choi": res.lower_bound_choi,
            "primal": res.witness.primal,
            "dual": res.witness.dual,
        },
        gap=res.witness.gap,
        wall_time=elapsed,
    )
    if args.format == "json":
        _emit(_json_text(record.to_json()), args.out)
    else:
        lines = [
            f"distance: {_fmt(res.distance)}",
            "weights: " + " ".join(_fmt(w) for w in res.weights),
            f"upper bound (best single member): {_fmt(res.upper_bound_single)}",
            f"lower bound (joint trace program): {_fmt(res.lower_bound_choi)}",
            f"certificate gap: {_fmt(res.witness.gap)}",
            f"iterations: {res.iterations}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_twocopy(args) -> int:
    """Two-copy study: correlated vs product vs tensored-single mixtures.

    Target is U = diag(e^{i pi/6}, e^{-i pi/6}) approximated over
    {identity, Z conjugation}, the setting whose three distances are
    approximately 1.281, 1.312, and 1.314.
    """
    tol = max(args.tol, _APPROX_TOL_FLOOR)
    target = unitary_qubit(0.0, np.pi / 6.0, 0.0)
    members = [identity(2), pauli_unitaries()[3]]
    start = time.perf_counter()
    mc = multi_copy_approx(target, members, 2, tol)
    elapsed = time.perf_counter() - start
    corr = mc.correlated
    if args.format == "json":
        corr_bounds = {
            "upper_bound_single": corr.upper_bound_single,
            "lower_bound_choi": corr.lower_bound_choi,
        }
        rows = (
            ("correlated", corr.witness, corr.weights, corr_bounds),
            ("product", mc.product_witness, np.concatenate(mc.product_weights), {}),
            ("tensored", mc.tensored_witness, mc.single.weights, {}),
        )
        records = [
            ResultRecord(
                label=f"twocopy-{name}",
                inputs={"copies": 2, "tol": tol},
                distance=res.value,
                weights=tuple(float(w) for w in weights),
                bounds={**extra, "primal": res.primal, "dual": res.dual},
                gap=res.gap,
                wall_time=elapsed,
            ).to_json()
            for name, res, weights, extra in rows
        ]
        _emit(_json_text(records), args.out)
    else:
        w_corr = " ".join(_fmt(w) for w in corr.weights)
        w_left = " ".join(_fmt(w) for w in mc.product_weights[0])
        w_right = " ".join(_fmt(w) for w in mc.product_weights[1])
        w_single = " ".join(_fmt(w) for w in mc.single.weights)
        lines = [
            f"correlated mixture distance: {_fmt(corr.distance)}",
            f"  weights (II IZ ZI ZZ): {w_corr}",
            f"product mixture distance: {_fmt(mc.product_value)}",
            f"  copy-1 weights: {w_left}",
            f"  copy-2 weights: {w_right}",
            f"tensored single-copy distance: {_fmt(mc.tensored_value)}",
            f"  single-copy weights: {w_single}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_fig1(args) -> int:
    """Covariant-approximation sweep: analytic curve vs certified SDP.

    Emits x, the closed-form distance and optimal mixing weight, the
    certified SDP distance at that weight, and the certificate gap, for
    x on a uniform grid over [0, 2].
    """
    (count,) = _parse_grid(args.grid, 1, default=(201,))
    config = SweepConfig(
        axes=(SweepAxis("x", 0.0, 2.0, count),),
        tolerance=args.tol,
        workers=_worker_count(args.parallel),
    )
    # Solve tighter than the row threshold so endpoint rows are exact to
    # well below the sweep tolerance.
    sdp_tol = max(1e-9, 0.01 * config.tolerance)
    items = [(float(x), sdp_tol) for x in config.axes[0].grid()]
    rows = _map_rows(_fig1_row, items, config.workers)
    for row in rows:
        _check_row_gap(row[4], config.tolerance, f"fig1 x={_fmt(row[0])}")
        if abs(row[1] - row[3]) > config.tolerance + 1e-5:
            raise SweepInvariantError(
                f"fig1 x={_fmt(row[0])}: analytic value {_fmt(row[1])} and "
                f"SDP value {_fmt(row[3])} disagree"
            )
    header = ("x", "distance_analytic", "p_opt", "distance_sdp", "gap")
    _emit_sweep(header, rows, args)
    return EXIT_OK


def cmd_fig2(args) -> int:
    """Pauli-mixture distance over a grid of qubit unitaries.

    Sweeps the two rotation angles alpha, beta over [0, pi/2] at fixed
    third angle delta (default pi/8) and emits the optimal mixture
    distance with its certificate gap.
    """
    na, nb = _parse_grid(args.grid, 2, default=(41, 41))
    config = SweepConfig(
        axes=(
            SweepAxis("alpha", 0.0, np.pi / 2.0, na),
            SweepAxis("beta", 0.0, np.pi / 2.0, nb),
        ),
        tolerance=max(args.tol, _APPROX_TOL_FLOOR),
        workers=_worker_count(args.parallel),
    )
    items = [
        (float(a), float(b), args.delta, config.tolerance)
        for a in config.axes[0].grid()
        for b in config.axes[1].grid()
    ]
    rows = _map_rows(_fig2_row, items, config.workers)
    for row in rows:
        _check_row_gap(
            row[3],
            config.tolerance,
            f"fig2 alpha={_fmt(row[0])} beta={_fmt(row[1])}",
        )
    header = ("alpha", "beta", "distance", "gap")
    _emit_sweep(header, rows, args)
    return EXIT_OK


def cmd_fig3(args) -> int:
    """Structured Pauli distance over the damping-channel parameter square.

    Sweeps q, gamma over [0, 1] and emits the distance of the closest
    Pauli channel with weights (1-2p, p, p, 0), with certificate gaps.
    """
    nq, ng = _parse_grid(args.grid, 2, default=(33, 33))
    config = SweepConfig(
        axes=(
            SweepAxis("q", 0.0, 1.0, nq),
            SweepAxis("gamma", 0.0, 1.0, ng),
        ),
        tolerance=max(args.tol, _APPROX_TOL_FLOOR),
        workers=_worker_count(args.parallel),
    )
    items = [
        (float(q), float(g), config.tolerance)
        for q in config.axes[0].grid()
        for g in config.axes[1].grid()
    ]
    rows = _map_rows(_fig3_row, items, config.workers)
    for row in rows:
        _check_row_gap(
            row[3], config.tolerance, f"fig3 q={_fmt(row[0])} gamma={_fmt(row[1])}"
        )
    header = ("q", "gamma", "distance", "gap")
    _emit_sweep(header, rows, args)
    return EXIT_OK


def cmd_fig4(args) -> int:
    """Distance vs damping strength at fixed q, with analytic bracket.

    Emits gamma, the structured Pauli distance, the closed-form lower and
    upper bounds, and the certificate gap.  Every row must satisfy
    lower <= distance <= upper; a violation aborts the sweep.
    """
    (count,) = _parse_grid(args.grid, 1, default=(101,))
    config = SweepConfig(
        axes=(SweepAxis("gamma", 0.0, 1.0, count),),
        tolerance=max(args.tol, _APPROX_TOL_FLOOR),
        workers=_worker_count(args.parallel),
    )
    items = [(args.q, float(g), config.tolerance) for g in config.axes[0].grid()]
    rows = _map_rows(_fig4_row, items, config.workers)
    for row in rows:
        gamma, dist, lower, upper, gap = row
        _check_row_gap(gap, config.tolerance, f"fig4 gamma={_fmt(gamma)}")
        if dist < lower - config.tolerance or dist > upper + config.tolerance:
            raise SweepInvariantError(
                f"fig4 gamma={_fmt(gamma)}: distance {_fmt(dist)} outside "
                f"bracket [{_fmt(lower)}, {_fmt(upper)}]"
            )
    header = ("gamma", "distance", "lower", "upper", "gap")
    _emit_sweep(header, rows, args)
    return EXIT_OK


def _emit_sweep(header: tuple[str, ...], rows, args) -> None:
    if args.format == "json":
        payload = [dict(zip(header, map(float, row))) for row in rows]
        doc = {"columns": list(header), "rows": payload, "convention": _CONVENTION}
        _emit(_json_text(doc), args.out)
    else:
        _emit(_csv_text(header, rows), args.out)


def _parse_grid(value: str | None, dims: int, default: tuple[int, ...]):
    """Parse --grid: ``N`` for one axis, ``NxM`` for two."""
    if value is None:
        return default
    parts = value.lower().split("x")
    if len(parts) != dims:
        raise SpecParseError(
            f"--grid expects {dims} integer(s) separated by 'x', got {value!r}"
        )
    try:
        counts = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise SpecParseError(f"--grid: {value!r} is not an integer grid") from exc
    return counts


def _worker_count(parallel) -> int:
    if parallel is None:
        return 1
    if parallel == "auto":
        return os.cpu_count() or 1
    try:
        n = int(parallel)
    except ValueError as exc:
        raise SpecParseError(f"--parallel: expected an integer, got {parallel!r}") from exc
    if n < 1:
        raise SpecParseError(f"--parallel: worker count must be positive, got {n}")
    return n


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_output_flags(sub, formats: tuple[str, ...], default_format: str) -> None:
    sub.add_argument(
        "--tol",
        type=float,
        default=1e-7,
        help="certificate tolerance (default 1e-7; mixture-optimization "
        "commands clamp it up to 1e-6)",
    )
    sub.add_argument(
        "--out",
        default=None,
        help="write output to this file instead of stdout",
    )
    sub.add_argument(
        "--format",
        choices=formats,
        default=default_format,
        help=f"output format (default {default_format})",
    )


def _add_sweep_flags(sub) -> None:
    sub.add_argument(
        "--grid",
        default=None,
        help="grid size: N for one sweep axis, NxM for two",
    )
    sub.add_argument(
        "--parallel",
        nargs="?",
        const="auto",
        default=None,
        help="compute rows in a process pool (optionally give a worker "
        "count; output is byte-identical to a serial run)",
    )


_SPEC_HELP = (
    "channel spec: inline JSON or a path to a JSON file, e.g. "
    '\'{"kind": "unitary", "alpha": 0.3, "beta": 0.0, "delta": 0.0}\''
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanapprox",
        description="Certified diamond-norm distances and optimal convex "
        "approximations of quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "diamond", help="certified diamond distance between two channels"
    )
    p.add_argument("a", help=_SPEC_HELP)
    p.add_argument("b", help=_SPEC_HELP)
    _add_output_flags(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_diamond)

    p = sub.add_parser(
        "approx",
        help="optimal convex mixture of a channel set approximating a target",
    )
    p.add_argument("target", help=_SPEC_HELP)
    p.add_argument("members", nargs="+", help="mixture member channel specs")
    _add_output_flags(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser(
        "twocopy",
        help="two-copy phase-gate study: correlated vs product vs tensored",
    )
    _add_output_flags(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_twocopy)

    p = sub.add_parser(
        "fig1",
        help="covariant-approximation curve: analytic vs certified SDP",
    )
    _add_output_flags(p, ("csv", "json"), "csv")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser(
        "fig2", help="Pauli-mixture distance over a grid of qubit unitaries"
    )
    p.add_argument(
        "--delta",
        type=float,
        default=np.pi / 8.0,
        help="fixed third rotation angle (default pi/8)",
    )
    _add_output_flags(p, ("csv", "json"), "csv")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser(
        "fig3",
        help="structured Pauli distance over the damping parameter square",
    )
    _add_output_flags(p, ("csv", "json"), "csv")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser(
        "fig4", help="damping distance vs gamma with analytic bracket"
    )
    p.add_argument(
        "--q",
        type=float,
        default=0.7,
        help="fixed rotation parameter of the damping channel (default 0.7)",
    )
    _add_output_flags(p, ("csv", "json"), "csv")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_fig4)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NOCONVERGENCE
    except SweepInvariantError as exc:
        print(f"error: sweep invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
