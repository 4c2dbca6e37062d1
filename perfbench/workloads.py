"""Seeded workloads, their closed-loop requests and the correctness checks.

Every workload is a stream of rounds; a round is a short list of requests
that the closed loop issues back to back. The library only ever sees the
generated channels and CLI arguments, never the seed.

Checks compare each certified result with an independent reference
(closed forms, analytic brackets, Choi lower bounds) and with the solver's
own two-sided certificate. A reference comparison allows the requested
certificate tolerance: the reported value is the midpoint of a bracket of
width at most ``tol``, so a correct program can sit up to ``tol`` away from
the exact number. Weights are only checked for membership of the simplex,
because the optima are flat. Nothing is compared with digests of earlier
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "chanapprox" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no chanapprox package under {SRC}")
sys.path.insert(0, str(SRC))

import chanapprox  # noqa: E402
from chanapprox import channels, cli, diamond  # noqa: E402
from chanapprox.approx import (  # noqa: E402
    covariance_distance_x,
    covariant_objective,
    damping_bounds,
)
from chanapprox.diamond import (  # noqa: E402
    DiamondResult,
    choi_trace_distance,
    d_i_unitary,
    diamond_unitary,
)
from chanapprox.errors import NoConvergenceError  # noqa: E402

#: Certificate tolerance of every direct ``diamond_sdp`` call.
TOL = 1e-7
#: Absolute error of a value in [0, 2] printed with 12 significant digits.
PRINT_SLACK = 1e-11
#: Roundoff allowance for ``primal <= dual``, which holds exactly in exact
#: arithmetic.
ROUNDOFF = 64 * np.finfo(float).eps
#: Two-copy reference distances (correlated, product, tensored).
TWOCOPY_REFERENCE = (1.281, 1.312, 1.314)
TWOCOPY_SLACK = 1e-3


@dataclass(frozen=True)
class Request:
    """One closed-loop request: ``kind`` names the pair or sweep family."""

    kind: str
    params: tuple


# ---------------------------------------------------------------------------
# Shared checks.


def bits(x: float) -> bytes:
    return struct.pack("<d", float(x))


def same_result(a: DiamondResult, b: DiamondResult) -> bool:
    """Bit-for-bit equality of two certified diamond results."""
    floats = ("value", "primal", "dual")
    arrays = ("witness_state", "witness_operator")
    return all(bits(getattr(a, f)) == bits(getattr(b, f)) for f in floats) and all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in arrays
    )


def certificate_failures(value, primal, dual, tol) -> list[str]:
    """The two-sided certificate checks every result must pass."""
    out = []
    slack = ROUNDOFF * max(1.0, abs(dual))
    if not 0.0 <= value <= 2.0:
        out.append(f"value {value!r} outside [0, 2]")
    if not primal <= dual + slack:
        out.append(f"primal {primal!r} above dual {dual!r}")
    if not primal - slack <= value <= dual + slack:
        out.append(f"value {value!r} outside its bracket [{primal!r}, {dual!r}]")
    if not dual - primal <= tol:
        out.append(f"gap {dual - primal!r} above tol {tol!r}")
    return out


def reference_failures(value, reference, tol, what) -> list[str]:
    if not abs(value - reference) <= tol:
        return [f"value {value!r} differs from {what} {reference!r} by more than {tol!r}"]
    return []


def simplex_failures(weights, what) -> list[str]:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or not np.all(w >= -1e-12) or not abs(w.sum() - 1.0) <= 1e-9:
        return [f"{what} weights {w.tolist()} not on the probability simplex"]
    return []


# ---------------------------------------------------------------------------
# Direct diamond_sdp workloads.


def _angles(rng) -> tuple[float, float, float]:
    return (
        float(rng.uniform(0.0, np.pi / 2)),
        float(rng.uniform(0.0, 2 * np.pi)),
        float(rng.uniform(0.0, 2 * np.pi)),
    )


def _qubit(angles) -> np.ndarray:
    return channels.qubit_unitary_matrix(*angles)


class DiamondWorkload:
    """Closed loop of certified ``diamond_sdp`` calls on seeded channel pairs."""

    kinds: tuple[str, ...] = ()
    #: Whether the two-copy study is part of the workload's own traffic.
    includes_twocopy = False

    def __init__(self, seed: int):
        loop, warm = np.random.SeedSequence(seed).spawn(2)
        self._rng = np.random.default_rng(loop)
        self._warm_rng = np.random.default_rng(warm)

    def rounds(self):
        while True:
            yield [Request(k, self._draw(k, self._rng)) for k in self.kinds]

    def warm_up(self) -> None:
        """First certified call of every program shape the loop uses."""
        for kind in self.kinds:
            self.call(Request(kind, self._draw(kind, self._warm_rng)))

    def results_in(self, request: Request) -> int:
        return 1

    def call(self, request: Request):
        a, b = self._channels(request)
        try:
            return diamond.diamond_sdp(a, b, TOL)
        except NoConvergenceError as exc:
            return exc

    def check(self, request: Request, outcome) -> list[str]:
        if isinstance(outcome, NoConvergenceError):
            return [f"{request.kind}: NoConvergenceError: {outcome}"]
        res = outcome
        found = certificate_failures(res.value, res.primal, res.dual, TOL)
        found += self._reference(request, res)
        return [f"{request.kind} {request.params}: " + "; ".join(found)] if found else []

    def same(self, first, second) -> bool:
        return (
            isinstance(first, DiamondResult)
            and isinstance(second, DiamondResult)
            and same_result(first, second)
        )

    def determinism_requests(self, first_round):
        return [(r, r) for r in first_round]

    def _reference(self, request, res) -> list[str]:
        """Pairs without a closed form: the Choi trace distance is a lower
        bound on the diamond distance, so it may not exceed the dual."""
        a, b = self._channels(request)
        lower = choi_trace_distance(a, b)
        if not lower <= res.dual + ROUNDOFF:
            return [f"Choi trace distance {lower!r} above dual {res.dual!r}"]
        return []


class QubitDiamond(DiamondWorkload):
    """d=2 pairs: unitary pairs, unitary vs covariant, damping vs Pauli mixture."""

    kinds = ("unitary", "covariant", "damping")
    probe_kernels = ("calls",)

    def _draw(self, kind, rng):
        if kind == "unitary":
            return (_angles(rng), _angles(rng))
        if kind == "covariant":
            return (_angles(rng), float(rng.uniform(0.0, 1.0)))
        q, gamma = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
        return (q, gamma, tuple(float(v) for v in rng.dirichlet(np.ones(4))))

    def _channels(self, request):
        p = request.params
        if request.kind == "unitary":
            return channels.unitary_qubit(*p[0]), channels.unitary_qubit(*p[1])
        if request.kind == "covariant":
            return channels.unitary_qubit(*p[0]), channels.covariant(p[1])
        return channels.damping(p[0], p[1]), channels.pauli_channel(p[2])

    def _reference(self, request, res) -> list[str]:
        p = request.params
        if request.kind == "unitary":
            ref = diamond_unitary(_qubit(p[0]), _qubit(p[1]))
            return reference_failures(res.value, ref, TOL, "diamond_unitary")
        if request.kind == "covariant":
            x = d_i_unitary(p[0][0], p[0][1])
            ref = covariant_objective(x, p[1])
            return reference_failures(res.value, ref, TOL, "covariant_objective")
        return super()._reference(request, res)


class TwoQubit(DiamondWorkload):
    """d=4 tensor-product pairs: unitary products and noisy products."""

    kinds = ("unitary-product", "noisy-product")
    probe_kernels = ("calls", "solve", "assemble")
    includes_twocopy = True

    def _draw(self, kind, rng):
        if kind == "unitary-product":
            # The second product differs from the first by rotations small
            # enough that the eigenvalue polygon excludes the origin, so the
            # distance stays below 2 and the closed form's polygon branch runs.
            thetas = tuple(float(t) for t in rng.uniform(0.05, 0.7, size=2))
            return (_angles(rng), _angles(rng), thetas)
        q, gamma = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
        p = float(rng.uniform(0.0, 0.5))
        w1, w2 = (tuple(float(v) for v in rng.dirichlet(np.full(4, 4.0))) for _ in range(2))
        return (q, gamma, p, w1, w2)

    @staticmethod
    def _unitaries(params):
        u1, u2 = _qubit(params[0]), _qubit(params[1])
        r1 = _qubit((params[2][0], 0.0, 0.0))
        r2 = _qubit((0.0, params[2][1], 0.0))
        return u1, u2, u1 @ r1, u2 @ r2

    def _channels(self, request):
        p = request.params
        if request.kind == "unitary-product":
            u1, u2, v1, v2 = (channels.unitary_channel(u) for u in self._unitaries(p))
            return channels.tensor(u1, u2), channels.tensor(v1, v2)
        a = channels.tensor(channels.damping(p[0], p[1]), channels.covariant(p[2]))
        b = channels.tensor(channels.pauli_channel(p[3]), channels.pauli_channel(p[4]))
        return a, b

    def _reference(self, request, res) -> list[str]:
        if request.kind == "unitary-product":
            u1, u2, v1, v2 = self._unitaries(request.params)
            ref = diamond_unitary(np.kron(u1, u2), np.kron(v1, v2))
            return reference_failures(res.value, ref, TOL, "diamond_unitary")
        return super()._reference(request, res)


# ---------------------------------------------------------------------------
# CLI sweeps.

#: Per-sweep tolerance passed as ``--tol``; the mixture sweeps certify to 1e-6.
SWEEP_TOL = {"fig1": 1e-7, "fig2": 1e-6, "fig3": 1e-6, "fig4": 1e-6}
#: Grids of small sweeps. fig1, fig2 and fig4 take about a second each. The
#: fig3 grid is 3x3 so that its rows include interior points of the (q, gamma)
#: square: a 2x2 grid solves only the fully damped corners, which take more
#: IPM iterations per solve than the rows of a full-size fig3 sweep do. A 3x3
#: fig3 sweep takes about 2.5 s; since every run issues whole rounds, a quarter
#: of the latency samples are fig3 ones, so p50 falls among the one-second
#: sweeps and p90 among the fig3 sweeps, away from the boundary between them.
SWEEP_GRID = {"fig1": "90", "fig2": "4x4", "fig3": "3x3", "fig4": "3"}
SWEEP_HEADER = {
    "fig1": ["x", "distance_analytic", "p_opt", "distance_sdp", "gap"],
    "fig2": ["alpha", "beta", "distance", "gap"],
    "fig3": ["q", "gamma", "distance", "gap"],
    "fig4": ["gamma", "distance", "lower", "upper", "gap"],
}


def _grid(spec: str, *spans: float) -> list[tuple[float, ...]]:
    counts = [int(c) for c in spec.split("x")]
    axes = [np.linspace(0.0, stop, n) for stop, n in zip(spans, counts)]
    if len(axes) == 1:
        return [(float(v),) for v in axes[0]]
    return [(float(a), float(b)) for a in axes[0] for b in axes[1]]


class QubitSweeps:
    """Serial in-process ``chanapprox.cli.main`` figure sweeps."""

    kinds = ("fig1", "fig2", "fig3", "fig4")
    probe_kernels = ("calls",)
    includes_twocopy = False

    def __init__(self, seed: int, out_dir: Path):
        self._rng = np.random.default_rng(seed)
        self._out = Path(out_dir) / "sweep.csv"

    def rounds(self):
        while True:
            yield [Request(k, self._draw(k)) for k in self.kinds]

    def _draw(self, kind):
        argv = [kind, "--grid", SWEEP_GRID[kind], "--tol", repr(SWEEP_TOL[kind])]
        if kind == "fig2":
            argv += ["--delta", repr(float(self._rng.uniform(0.0, 2 * np.pi)))]
        if kind == "fig4":
            argv += ["--q", repr(float(self._rng.uniform(0.0, 1.0)))]
        return tuple(argv)

    def warm_up(self) -> None:
        """First certified call of every program shape the sweeps use:
        fixed, joint-minimax and trace-minimax programs at n=4."""
        chanapprox.optimal_convex_approx(
            channels.unitary_qubit(0.3, 0.2, 0.1), channels.pauli_unitaries(), 1e-6
        )

    def results_in(self, request: Request) -> int:
        return len(self._expected_points(request))

    def call(self, request: Request):
        rc = cli.main([*request.params, "--out", str(self._out)])
        text = self._out.read_bytes() if rc == 0 else b""
        return rc, text

    def same(self, first, second) -> bool:
        return first[0] == 0 and first == second

    def determinism_requests(self, first_round):
        # fig1 and fig3 take no seeded argument, so every round repeats them
        # and the loop itself checks serial repeats; fig2 is rerun in a pool.
        fig2 = next(r for r in first_round if r.kind == "fig2")
        return [(fig2, Request("fig2", fig2.params + ("--parallel", "2")))]

    @staticmethod
    def _arg(request, flag):
        return float(request.params[request.params.index(flag) + 1])

    def _expected_points(self, request):
        grid = SWEEP_GRID[request.kind]
        if request.kind == "fig1":
            return _grid(grid, 2.0)
        if request.kind == "fig2":
            return _grid(grid, np.pi / 2, np.pi / 2)
        if request.kind == "fig3":
            return _grid(grid, 1.0, 1.0)
        return _grid(grid, 1.0)

    def check(self, request: Request, outcome) -> list[str]:
        rc, text = outcome
        points = self._expected_points(request)
        head = f"{' '.join(request.params)}"
        if rc != 0:
            return [f"{head}: exit code {rc}"] * len(points)
        lines = text.decode("ascii").splitlines()
        if not lines or lines[0].split(",") != SWEEP_HEADER[request.kind]:
            return [f"{head}: unexpected header"] * len(points)
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        if len(rows) != len(points):
            return [f"{head}: {len(rows)} rows, expected {len(points)}"] * len(points)
        tol = SWEEP_TOL[request.kind]
        failures = []
        for point, row in zip(points, rows):
            found = self._row_failures(request, point, row, tol)
            if found:
                failures.append(f"{head} row {point}: " + "; ".join(found))
        return failures

    def _row_failures(self, request, point, row, tol) -> list[str]:
        kind = request.kind
        found = []
        coords = row[: len(point)]
        if any(abs(c - p) > PRINT_SLACK for c, p in zip(coords, point)):
            found.append(f"coordinates {coords} differ from grid point {point}")
        gap = row[-1]
        if not -PRINT_SLACK <= gap <= tol:
            found.append(f"gap {gap!r} outside [0, {tol!r}]")
        slack = tol + PRINT_SLACK
        if kind == "fig1":
            exact = covariance_distance_x(point[0])[0]
            found += reference_failures(row[1], exact, PRINT_SLACK, "covariance_distance_x")
            found += reference_failures(row[3], exact, slack, "covariance_distance_x")
            dist = row[3]
        elif kind == "fig2":
            alpha, beta = point
            dist = row[2]
            u = _qubit((alpha, beta, self._arg(request, "--delta")))
            single = min(diamond_unitary(u, p) for p in channels.PAULI)
            if alpha == 0.0:
                found += reference_failures(dist, abs(np.sin(2 * beta)), slack, "|sin 2 beta|")
            if not dist <= min(single, 1.5) + slack:
                found.append(f"distance {dist!r} above min(best single Pauli {single!r}, 1.5)")
        else:
            if kind == "fig3":
                q, gamma = point
                dist = row[2]
            else:
                q, gamma = self._arg(request, "--q"), point[0]
                dist = row[1]
            lower, upper = damping_bounds(q, gamma)
            if kind == "fig4":
                found += reference_failures(row[2], lower, PRINT_SLACK, "damping lower bound")
                found += reference_failures(row[3], upper, PRINT_SLACK, "damping upper bound")
            if not lower - slack <= dist <= upper + slack:
                found.append(f"distance {dist!r} outside damping_bounds [{lower!r}, {upper!r}]")
        if not -PRINT_SLACK <= dist <= 2.0 + PRINT_SLACK:
            found.append(f"distance {dist!r} outside [0, 2]")
        return found


# ---------------------------------------------------------------------------
# Two-copy study.


def run_twocopy():
    """One ``chanapprox twocopy --format json`` call; returns (rc, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["twocopy", "--format", "json"])
    return rc, buf.getvalue()


def twocopy_failures(rc: int, text: str) -> list[str]:
    if rc != 0:
        return [f"twocopy: exit code {rc}"]
    records = {r["label"]: r for r in json.loads(text)}
    labels = ("twocopy-correlated", "twocopy-product", "twocopy-tensored")
    if set(records) != set(labels):
        return [f"twocopy: labels {sorted(records)}"]
    found = []
    values = [records[label]["distance"] for label in labels]
    for label, value, ref in zip(labels, values, TWOCOPY_REFERENCE):
        rec = records[label]
        tol = rec["inputs"]["tol"]
        found += reference_failures(value, ref, TWOCOPY_SLACK, f"{label} reference")
        if not 0.0 <= value <= 2.0:
            found.append(f"{label} distance {value!r} outside [0, 2]")
        if not -ROUNDOFF <= rec["gap"] <= tol:
            found.append(f"{label} gap {rec['gap']!r} outside [0, {tol!r}]")
        weights = rec["weights"]
        halves = [weights[:2], weights[2:]] if label == "twocopy-product" else [weights]
        for w in halves:
            found += simplex_failures(w, label)
    tol = records[labels[0]]["inputs"]["tol"]
    if not (values[0] <= values[1] + tol and values[1] <= values[2] + tol):
        found.append(f"twocopy ordering correlated <= product <= tensored fails: {values}")
    return ["twocopy: " + "; ".join(found)] if found else []


def make(name: str, seed: int, out_dir: Path):
    if name == "qubit-diamond":
        return QubitDiamond(seed)
    if name == "two-qubit":
        return TwoQubit(seed)
    if name == "qubit-sweeps":
        return QubitSweeps(seed, out_dir)
    raise SystemExit(f"perfbench: unknown workload {name!r}")

