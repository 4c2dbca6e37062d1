"""Command-line interface: certified channel distances, convex
approximations, and reproducible figure-data sweeps.

Output conventions
------------------
CSV output has a comma-separated header row followed by data rows whose
floats are printed with 12 significant digits, so identical invocations
produce byte-identical files.  Wall-clock times are never written to CSV.
JSON output of ``diamond`` and ``approx`` is one record, and of
``twocopy`` a list of three: each echoes its inputs and gives the
distance, its bounds, certificate gap and wall time.  A sweep's JSON
holds its columns and rows.  Both carry a ``convention`` field stating
the Choi-matrix ordering, so the output is interpretable without reading
the source.

Every emitted distance row embeds its certificate gap.  A sweep row whose
gap exceeds the requested tolerance, or that violates a bound the sweep
promises (for example a distance outside its analytic bracket), aborts
the run with exit code 4 rather than writing unreliable data; a NaN gap
or distance fails these checks too.

Exit codes: 0 success; 2 argument or channel-spec parse error, or an
``--out`` path that cannot be written; 3 solver non-convergence; 4
invariant violation during a sweep.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import sdp
from .approx import (
    _APPROX_TOL_FLOOR,
    _pauli_set_steps,
    approx_bounds,
    covariance_distance_x,
    damping_bounds,
    multi_copy_approx,
    optimal_convex_approx,
    two_copy_problem,
)
from .approx import _damping_steps as pauli_distance_damping  # steps (see _fig3_row)
from .channels import (
    _ChoiDifferences,
    identity,
    parse_channel_spec,
    pauli_unitaries,
    unitary_qubit,
)
# covariant_channel is not called here; the name stays because
# perfbench/tracing.py wraps cli.covariant_channel
from .channels import covariant as covariant_channel  # noqa: F401
from .diamond import DiamondResult, diamond_sdp, discrimination_probability
from .errors import NoConvergenceError, SpecParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOCONVERGENCE = 3
EXIT_INVARIANT = 4

#: The most rows a sweep's --grid may have.
_MAX_ROWS = 1_000_000

_CONVENTION = (
    "Choi matrix R = (map (x) id)(|eta><eta|) with unnormalized "
    "|eta> = sum_i |ii> (Tr R = dim); the map acts on the first tensor "
    "factor, so R lives on output (x) reference"
)


class SweepInvariantError(RuntimeError):
    """A sweep row violated a promised bound or certificate threshold."""


def _record(label: str, inputs: dict, res, wall_time: float, weights=None, **bounds) -> dict:
    """The JSON record of the certified distance ``res`` (a ``DiamondResult``):
    its inputs, mixture weights if any, ``bounds`` followed by the
    certificate's primal and dual sides, its gap and its wall time."""
    doc: dict = {"label": label, "inputs": inputs, "distance": res.value}
    if weights is not None:
        doc["weights"] = [float(w) for w in weights]
    doc["bounds"] = {**bounds, "primal": res.primal, "dual": res.dual}
    doc.update(gap=res.gap, wall_time_s=wall_time, convention=_CONVENTION)
    return doc


def _fmt(x) -> str:
    """Deterministic 12-significant-digit float formatting for CSV/text."""
    return format(float(x), ".12g")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecParseError(f"cannot write {out!r}: {exc}") from exc


def _csv_text(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _map_rows(worker, items, workers: int) -> list:
    """The rows of the step generators ``worker(item)``, in order.

    The rows are solved together (``sdp._run_all``), in windows: a window
    builds the Choi differences its rows ask for in one stacked evaluation
    per channel family, and every solve they need joins a stacked solve of
    its program's shape. With ``workers > 1`` a
    process pool of at most one worker per row takes the items in
    contiguous chunks, one chunk per worker. A row's bits do not depend on
    the rows it is solved with, so parallel and serial runs emit
    byte-identical output.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return _solve_rows(worker, items)
    cuts = [len(items) * i // workers for i in range(workers + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(functools.partial(_solve_rows, worker), chunks)
        return [row for part in parts for row in part]


def _solve_rows(worker, items) -> list:
    return sdp._run_all([worker(item) for item in items])


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


# A row worker is a step generator (see ``sdp._run_all``): it yields the
# requests its row needs, receives their answers and returns the row. Its
# first request is its channels' Choi differences, from their family
# parameters (``channels._ChoiDifferences``): no row builds a ``Channel``.


def _fig1_row(item):
    """(x, analytic D, optimal p, certified SDP D, gap) for one shift x: the
    closed-form covariant approximation of the unitary at x, and the
    certified SDP distance at its optimal mixing weight. The row asks for
    the Choi difference of the two channels, which its window builds for
    all its rows in one stacked evaluation (``channels._ChoiDifferences``),
    and then takes the route of ``diamond_sdp``."""
    x, sdp_tol = item
    value, p_opt = covariance_distance_x(x)
    alpha = float(np.arcsin(np.clip(x / 2.0, -1.0, 1.0)))
    request = _ChoiDifferences(("unitary", (alpha, 0.0, 0.0)), [("covariant", (p_opt,))])
    deltas, kraus = yield request, None
    sol = yield from sdp._fixed_steps(deltas[0], 2, sdp_tol, kraus)
    res = DiamondResult._of_solution(sol)
    return (x, value, p_opt, res.value, res.gap)


def _fig2_row(item):
    """(alpha, beta, Pauli-mixture distance, gap) for one unitary: its
    distance to the closest mixture of the Pauli unitaries, whose Choi
    differences its window builds for all its rows in one stacked
    evaluation (``approx._pauli_set_steps``)."""
    alpha, beta, delta, tol = item
    res = yield from _pauli_set_steps((alpha, beta, delta), tol)
    return (alpha, beta, res.distance, res.witness.gap)


def _fig3_row(item):
    """(q, gamma, structured Pauli distance, gap) for one damping channel:
    its distance to the closest Pauli channel with weights (1-2p, p, p, 0).

    The fig3 and fig4 rows reach ``approx.pauli_distance_damping`` through
    this module's ``pauli_distance_damping``, bound to its step form.
    """
    q, gamma, tol = item
    res = yield from pauli_distance_damping(q, gamma, tol)
    return (q, gamma, res.distance, res.witness.gap)


def _fig4_row(item):
    """(gamma, distance, lower, upper, gap) for one damping strength, with
    the closed-form bracket [lower, upper] of the fig3 distance."""
    q, gamma, tol = item
    res = yield from pauli_distance_damping(q, gamma, tol)
    lower, upper = damping_bounds(q, gamma)
    return (gamma, res.distance, lower, upper, res.witness.gap)


def _fig1_check(row, tol: float) -> str | None:
    """The analytic and certified SDP distances of a fig1 row must agree."""
    if not (abs(row[1] - row[3]) <= tol):
        return f"analytic value {_fmt(row[1])} and SDP value {_fmt(row[3])} disagree"
    return None


def _fig4_check(row, tol: float) -> str | None:
    """A fig4 distance must lie inside its closed-form bracket."""
    gamma, dist, lower, upper, gap = row
    if not (lower - tol <= dist <= upper + tol):
        return f"distance {_fmt(dist)} outside bracket [{_fmt(lower)}, {_fmt(upper)}]"
    return None


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
    if args.format == "json":
        inputs = {"a": doc_a, "b": doc_b, "tol": args.tol}
        _emit(_json_text(_record("diamond", inputs, res, elapsed)), args.out)
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
    docs, members = zip(*map(_load_channel_spec, args.members))
    tol = max(args.tol, _APPROX_TOL_FLOOR)
    start = time.perf_counter()
    res = optimal_convex_approx(target, members, tol)
    upper, lower = approx_bounds(target, members, res.distance)
    elapsed = time.perf_counter() - start
    if args.format == "json":
        inputs = {"target": doc_target, "set": docs, "tol": tol}
        bounds = {"upper_bound_single": upper, "lower_bound_choi": lower}
        record = _record("approx", inputs, res.witness, elapsed, res.weights, **bounds)
        _emit(_json_text(record), args.out)
    else:
        lines = [
            f"distance: {_fmt(res.distance)}",
            "weights: " + " ".join(map(_fmt, res.weights)),
            f"upper bound (best single member): {_fmt(upper)}",
            f"lower bound (joint trace program): {_fmt(lower)}",
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
    corr = mc.correlated
    if args.format == "json":
        # Only the JSON records carry the correlated mixture's bounds.
        upper, lower = approx_bounds(*two_copy_problem(target, members), corr.distance)
        elapsed = time.perf_counter() - start
        corr_bounds = {"upper_bound_single": upper, "lower_bound_choi": lower}
        rows = (
            ("correlated", corr.witness, corr.weights, corr_bounds),
            ("product", mc.product_witness, np.concatenate(mc.product_weights), {}),
            ("tensored", mc.tensored_witness, mc.single.weights, {}),
        )
        records = [
            _record(f"twocopy-{name}", {"copies": 2, "tol": tol}, res, elapsed, weights, **extra)
            for name, res, weights, extra in rows
        ]
        _emit(_json_text(records), args.out)
    else:
        lines = [
            f"correlated mixture distance: {_fmt(corr.distance)}",
            f"  weights (II IZ ZI ZZ): {' '.join(map(_fmt, corr.weights))}",
            f"product mixture distance: {_fmt(mc.product_value)}",
            f"  copy-1 weights: {' '.join(map(_fmt, mc.product_weights[0]))}",
            f"  copy-2 weights: {' '.join(map(_fmt, mc.product_weights[1]))}",
            f"tensored single-copy distance: {_fmt(mc.tensored_value)}",
            f"  single-copy weights: {' '.join(map(_fmt, mc.single.weights))}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Figure sweeps, each described once: the subcommand help, the axes
# (name, start, stop), the header, the default --grid, the fixed flag
# (name, default, help) or None, whether the tolerance is clamped up to
# _APPROX_TOL_FLOOR, the builder of a row worker's item from the parsed
# arguments, a grid point and the tolerance, and the extra row check.
# ---------------------------------------------------------------------------

_SWEEPS = {
    "fig1": dict(
        help="covariant-approximation curve: analytic vs certified SDP",
        axes=(("x", 0.0, 2.0),),
        header=("x", "distance_analytic", "p_opt", "distance_sdp", "gap"),
        grid="201",
        flag=None,
        clamp=False,
        # Solve tighter than the row threshold so endpoint rows are exact to
        # well below the sweep tolerance.
        item=lambda args, point, tol: (*point, max(sdp._TOL_FLOOR, 0.01 * tol)),
        check=_fig1_check,
    ),
    "fig2": dict(
        help="Pauli-mixture distance over a grid of qubit unitaries",
        axes=(("alpha", 0.0, np.pi / 2.0), ("beta", 0.0, np.pi / 2.0)),
        header=("alpha", "beta", "distance", "gap"),
        grid="41x41",
        flag=("--delta", np.pi / 8.0, "fixed third rotation angle (default pi/8)"),
        clamp=True,
        item=lambda args, point, tol: (*point, args.delta, tol),
        check=None,
    ),
    "fig3": dict(
        help="structured Pauli distance over the damping parameter square",
        axes=(("q", 0.0, 1.0), ("gamma", 0.0, 1.0)),
        header=("q", "gamma", "distance", "gap"),
        grid="33x33",
        flag=None,
        clamp=True,
        item=lambda args, point, tol: (*point, tol),
        check=None,
    ),
    "fig4": dict(
        help="damping distance vs gamma with analytic bracket",
        axes=(("gamma", 0.0, 1.0),),
        header=("gamma", "distance", "lower", "upper", "gap"),
        grid="101",
        flag=("--q", 0.7, "fixed rotation parameter of the damping channel (default 0.7)"),
        clamp=True,
        item=lambda args, point, tol: (args.q, *point, tol),
        check=_fig4_check,
    ),
}


def _run_sweep(args) -> int:
    """Compute the rows of the sweep ``args.command`` over the ``--grid``,
    check them, then emit.

    Each axis needs at least 2 points, and the grid at most ``_MAX_ROWS``
    rows, checked before any row is made.  The row worker ``_figN_row`` is
    looked up in this module when the sweep runs, so a substitute bound to
    that name (the benchmark tracer's, a test's) computes the rows; it is a
    step generator whose rows start with the grid point and end with the
    certificate gap, and ``_map_rows`` solves the rows in batches.  The
    tolerance, after any clamp, must pass ``sdp._check_tol`` at the
    certification floor ``sdp._TOL_FLOOR`` (1e-9).  A gap not at most the
    tolerance (NaN included), or a violation named by the sweep's check,
    aborts the sweep before anything is written.
    """
    sweep = _SWEEPS[args.command]
    axes, header, check = sweep["axes"], sweep["header"], sweep["check"]
    counts = _parse_grid(args.grid, len(axes))
    for (name, *_), count in zip(axes, counts):
        if count < 2:
            raise SpecParseError(f"axis {name}: count must be at least 2, got {count}")
    if math.prod(counts) > _MAX_ROWS:
        raise SpecParseError(f"--grid {args.grid!r} has more than {_MAX_ROWS} rows")
    workers = _worker_count(args.parallel)
    tol = max(args.tol, _APPROX_TOL_FLOOR) if sweep["clamp"] else args.tol
    sdp._check_tol(tol)
    grids = [np.linspace(lo, hi, n).tolist() for (_, lo, hi), n in zip(axes, counts)]
    items = [sweep["item"](args, point, tol) for point in itertools.product(*grids)]
    rows = _map_rows(globals()[f"_{args.command}_row"], items, workers)
    for row in rows:
        if not (row[-1] <= tol):
            violation = f"certificate gap {row[-1]:.3e} exceeds tolerance {tol:.3e}"
        else:
            violation = None if check is None else check(row, tol)
        if violation:
            point = " ".join(f"{name}={_fmt(v)}" for (name, *_), v in zip(axes, row))
            raise SweepInvariantError(f"{args.command} {point}: {violation}")
    if args.format == "json":
        payload = [dict(zip(header, map(float, row))) for row in rows]
        doc = {"columns": list(header), "rows": payload, "convention": _CONVENTION}
        _emit(_json_text(doc), args.out)
    else:
        _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


def _parse_grid(value: str, dims: int):
    """Parse --grid: ``N`` for one axis, ``NxM`` for two."""
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
    """The pool size of ``--parallel``: 1 without it, and one worker per CPU
    for a bare ``--parallel``, which also caps a given count."""
    if parallel is None:
        return 1
    cpus = os.cpu_count() or 1
    if parallel == "auto":
        return cpus
    try:
        n = int(parallel)
    except ValueError as exc:
        raise SpecParseError(f"--parallel: expected an integer, got {parallel!r}") from exc
    if n < 1:
        raise SpecParseError(f"--parallel: worker count must be positive, got {n}")
    return min(n, cpus)


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

    for name, sweep in _SWEEPS.items():
        p = sub.add_parser(name, help=sweep["help"])
        if sweep["flag"]:
            flag, default, text = sweep["flag"]
            p.add_argument(flag, type=float, default=default, help=text)
        _add_output_flags(p, ("csv", "json"), "csv")
        p.add_argument(
            "--grid",
            default=sweep["grid"],
            help=f"grid size: N for one sweep axis, NxM for two (default {sweep['grid']})",
        )
        p.add_argument(
            "--parallel",
            nargs="?",
            const="auto",
            default=None,
            help="compute rows in a process pool, one worker per CPU (optionally "
            "give a worker count, capped at the number of CPUs and at the number "
            "of rows; output is byte-identical to a serial run)",
        )
        p.set_defaults(func=_run_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process for ``main``. Parsing
    leaves the parser unchanged. The subcommand functions (``cmd_diamond``
    and the rest) are bound when it is built, but each looks up the names
    it calls in this module when it runs, so such a name rebound after the
    first call (a test's substitute, the benchmark tracer's wrapper) still
    takes effect."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
