"""Per-layer spans recorded from outside the library.

The tracer swaps timing wrappers into the module namespaces at runtime, so
no library file changes. A name is wrapped in the namespace of the module
that calls it: ``cli`` binds its own ``optimal_convex_approx`` through
``from .approx import ...``, so that binding is wrapped in ``chanapprox.cli``;
``sdp._solve_ipm`` is looked up on the module object, so it is wrapped there.

Each span records its layer, name, start, end, parent span and request id,
plus, for ``sdp._solve_ipm``, the program kind, its size n and the
iteration count. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from chanapprox import approx, channels, cli, diamond, sdp
from chanapprox.errors import NoConvergenceError

#: (module, attribute, layer) for every wrapped name.
WRAPPED = (
    (cli, "main", "cli"),
    (cli, "_fig1_row", "cli"),
    (cli, "_fig2_row", "cli"),
    (cli, "_fig3_row", "cli"),
    (cli, "_fig4_row", "cli"),
    (cli, "optimal_convex_approx", "approx"),
    (cli, "pauli_distance_damping", "approx"),
    (cli, "multi_copy_approx", "approx"),
    (approx, "optimal_convex_approx", "approx"),
    (cli, "diamond_sdp", "diamond"),
    (diamond, "diamond_sdp", "diamond"),
    (diamond, "_diamond_of_delta", "diamond"),
    (approx, "_diamond_of_delta", "diamond"),
    (sdp, "_solve_ipm", "sdp"),
    (sdp, "solve_fixed", "sdp"),
    (diamond, "choi", "channels"),
    (approx, "choi", "channels"),
    (approx, "mix", "channels"),
    (approx, "tensor", "channels"),
    (approx, "damping", "channels"),
    (approx, "pauli_unitaries", "channels"),
    (approx, "prob_vector", "channels"),
    (cli, "unitary_qubit", "channels"),
    (cli, "covariant_channel", "channels"),
    (cli, "pauli_unitaries", "channels"),
    (cli, "identity", "channels"),
    (channels, "unitary_qubit", "channels"),
    (channels, "unitary_channel", "channels"),
    (channels, "covariant", "channels"),
    (channels, "damping", "channels"),
    (channels, "pauli_channel", "channels"),
    (channels, "tensor", "channels"),
    (channels, "prob_vector", "channels"),
    (diamond, "trace_norm", "linalg"),
    (approx, "trace_norm", "linalg"),
    (channels, "dagger", "linalg"),
    (channels, "kron", "linalg"),
)

LAYERS = ("cli", "approx", "diamond", "sdp", "channels", "linalg")
SDP_KINDS = ("fixed", "minimax", "trace", "dual")
SDP_SIZES = (4, 16)
FIGS = ("fig1", "fig2", "fig3", "fig4")
ROW_NAMES = tuple(f"_{fig}_row" for fig in FIGS)

# Span fields.
LAYER, NAME, START, END, PARENT, REQUEST, TAG, ITERS, ERROR = range(9)


def program_kind(prog) -> str:
    if isinstance(prog, sdp._DualProgram):
        return "dual"
    if not prog.minimax:
        return "fixed"
    return "minimax" if prog.ref else "trace"


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, layer in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.request, "", 0, ""]
            if name == "main":
                span[TAG] = str(args[0][0]) if args and args[0] else ""
            elif name == "_solve_ipm":
                span[TAG] = f"{program_kind(args[0])}-n{args[0].n}"
            spans.append(span)
            stack.append(idx)
            span[START] = self.clock()
            try:
                out = fn(*args, **kwargs)
            except NoConvergenceError:
                span[ERROR] = "NoConvergenceError"
                raise
            finally:
                span[END] = self.clock()
                stack.pop()
            if name == "_solve_ipm":
                span[ITERS] = out.iterations
            return out

        return traced

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "layer": s[LAYER],
                    "name": s[NAME],
                    "start": s[START] - t0,
                    "end": s[END] - t0,
                    "parent": s[PARENT],
                    "request": s[REQUEST],
                }
                if s[TAG]:
                    rec["tag"] = s[TAG]
                if s[ITERS]:
                    rec["iterations"] = s[ITERS]
                if s[ERROR]:
                    rec["error"] = s[ERROR]
                fh.write(json.dumps(rec) + "\n")


def _root_of(spans, test) -> list[int]:
    """For every span, the outermost enclosing span (itself included) that
    satisfies ``test``, or -1. Parents always precede their children."""
    out = []
    for s in spans:
        parent = out[s[PARENT]] if s[PARENT] >= 0 else -1
        out.append(parent if parent >= 0 else (len(out) if test(s) else -1))
    return out


def layer_metrics(spans, busy_s: float, scales) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and layer self-time shares.

    ``busy_s`` is the unscaled time the client spent waiting on requests;
    ``scales[r]`` is the host-speed factor of request ``r``, which puts
    span durations on the reference scale of ``speed.py``.
    """
    dur = [(s[END] - s[START]) * scales[s[REQUEST]] for s in spans]
    raw = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    busy = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        self_s[s[LAYER]] += dur[i] - child[i]
        if s[PARENT] < 0 or spans[s[PARENT]][LAYER] != s[LAYER]:
            busy[s[LAYER]] += dur[i]
            calls[s[LAYER]] += 1

    m: dict[str, float] = {}
    solves = [i for i, s in enumerate(spans) if s[NAME] == "_solve_ipm"]
    for kind in SDP_KINDS:
        for n in SDP_SIZES:
            mine = [i for i in solves if spans[i][TAG] == f"{kind}-n{n}"]
            t = float(sum(dur[i] for i in mine))
            iters = sum(spans[i][ITERS] for i in mine)
            key = f"sdp.{kind}-n{n}"
            m[f"{key}.ms_per_iter"] = 1e3 * t / iters if iters else 0.0
            m[f"{key}.iters_per_solve"] = iters / len(mine) if mine else 0.0
            m[f"{key}.solves"] = len(mine)
            m[f"{key}.busy_s"] = t
    n_fixed = sum(1 for i in solves if spans[i][TAG].startswith("fixed-"))
    n_dual = sum(1 for i in solves if spans[i][TAG].startswith("dual-"))
    m["sdp.fallback_frac"] = n_dual / n_fixed if n_fixed else 0.0
    m["sdp.nonconverged"] = sum(
        1
        for s in spans
        if s[LAYER] == "sdp"
        and s[ERROR]
        and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != "sdp")
    )

    approx_root = _root_of(spans, lambda s: s[LAYER] == "approx")
    under_approx = sum(1 for i in solves if approx_root[i] >= 0)
    m["approx.calls"] = calls["approx"]
    m["approx.busy_s"] = busy["approx"]
    m["approx.self_s"] = self_s["approx"]
    m["approx.solves_per_result"] = under_approx / calls["approx"] if calls["approx"] else 0.0
    m["diamond.calls"] = calls["diamond"]
    m["diamond.busy_s"] = busy["diamond"]
    m["diamond.self_s"] = self_s["diamond"]
    m["cli.busy_s"] = busy["cli"]
    m["cli.self_s"] = self_s["cli"]

    # Rows on the grid edge (x = 0, gamma = 0) are answered without a solve,
    # so solves are averaged over the rows that ran the solver.
    row_root = _root_of(spans, lambda s: s[NAME] in ROW_NAMES)
    fixed_in_row = defaultdict(int)
    for i in solves:
        if spans[i][TAG].startswith("fixed-") and row_root[i] >= 0:
            fixed_in_row[row_root[i]] += 1
    for fig in FIGS:
        mains = [i for i, s in enumerate(spans) if s[NAME] == "main" and s[TAG] == fig]
        rows = [i for i, s in enumerate(spans) if s[NAME] == f"_{fig}_row"]
        solved = [fixed_in_row[i] for i in rows if fixed_in_row[i]]
        t = sum(dur[i] for i in mains)
        m[f"cli.{fig}.rows_per_s"] = len(rows) / t if t else 0.0
        m[f"cli.{fig}.fixed_solves_per_solved_row"] = (
            sum(solved) / len(solved) if solved else 0.0
        )
    m["channels.busy_s"] = busy["channels"]
    m["linalg.busy_s"] = busy["linalg"]
    # Shares compare raw span times with the raw time spent in requests.
    covered = sum(raw[i] for i, s in enumerate(spans) if s[PARENT] < 0)
    m["trace.layer_self_frac"] = covered / busy_s if busy_s else 0.0
    scaled_busy = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] < 0)
    shares = {
        layer: self_s[layer] / scaled_busy if scaled_busy else 0.0 for layer in LAYERS
    }
    return m, shares
