"""Certified-result benchmark for chanapprox.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):

- ``qubit-diamond``: ``diamond_sdp(a, b, 1e-7)`` on seeded qubit pairs;
- ``qubit-sweeps``: serial in-process ``chanapprox.cli.main`` fig1-fig4
  sweeps on small grids, one CSV row per result;
- ``two-qubit``: ``diamond_sdp`` at d=4 on seeded tensor-product pairs.

Each workload is one client in a closed loop: a single process without
extra threads that waits for every certified answer before it sends the
next request. NumPy's BLAS threading is left as installed and recorded.
The loop stops at the first round boundary after ``--seconds``. Every
result is checked after the timed region (see ``workloads.py``); a failed
check, a ``NoConvergenceError``, a non-zero CLI exit code or a determinism
mismatch counts as a failed result.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median over fresh processes of ``import chanapprox`` plus
  the first certified call of each program shape the loop uses;
- ``results_per_s``: certified results (calls, or CSV rows on
  ``qubit-sweeps``) per second of request time;
- ``latency_p50_ms``, ``latency_p90_ms``: per request, a ``diamond_sdp``
  call or a sweep command;
- ``twocopy_s``: one ``chanapprox twocopy --format json`` study, run after
  the loop on every workload;
- ``peak_rss_mb``: peak resident memory of this process, read before the
  two-copy study unless that study is part of the workload (``two-qubit``).

Times are read on the client's own clock and scaled to a reference host
speed by the probe in ``speed.py``, which samples the host's speed from
inside the timed region; the raw figures are in the report.

``--trace 1`` runs the loop with the span wrappers of ``tracing.py``
installed, replays a prefix of it without them to measure the tracing
overhead, and prints the per-layer metrics instead.

The line before the last one is a JSON report with the environment, raw
figures, sample counts and failures; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
#: Fresh interpreters per set-up measurement. One set-up takes well under a
#: second, so a single sample is noisy; the median of many is steady.
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 120
#: Requests needed before latency_p90_ms has ten samples beyond it.
P90_MIN_SAMPLES = 100


class Tally:
    """Attempted and failed results, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(attempted, len(failures))
        self.messages.extend(failures[: max(0, 20 - len(self.messages))])


def closed_loop(workload, seconds: float, clock=time.perf_counter, tracer=None):
    """Issue whole rounds until ``seconds`` of wall time have passed.

    Returns a list of (request, outcome, c0, c1) with the request's start
    and end on ``clock``.
    """
    done = []
    start = time.perf_counter()
    for rnd in workload.rounds():
        for request in rnd:
            if tracer is not None:
                tracer.request = len(done)
            c0 = clock()
            outcome = workload.call(request)
            done.append((request, outcome, c0, clock()))
        if time.perf_counter() - start >= seconds:
            return done


def check_all(workload, done, tally: Tally) -> int:
    """Check every outcome; return the number of results that passed."""
    passed = 0
    for request, outcome, *_ in done:
        n = workload.results_in(request)
        failures = workload.check(request, outcome)
        tally.add(n, failures)
        passed += n - min(n, len(failures))
    return passed


def check_determinism(workload, done, tally: Tally) -> None:
    """Every repeated request must give a bit-identical outcome.

    Requests the loop itself repeated are compared with their first
    occurrence; the workload names further repeats of its first round
    (serial, or a sweep with ``--parallel 2``), which run here.
    """
    first = {}
    for request, outcome, *_ in done:
        if request in first:
            same = workload.same(first[request], outcome)
            tally.add(1, [] if same else [f"determinism: {request.kind} repeat differs"])
        else:
            first[request] = outcome
    for original, repeat in workload.determinism_requests([r for r, *_ in done[: len(workload.kinds)]]):
        same = workload.same(first[original], workload.call(repeat))
        tally.add(1, [] if same else [f"determinism: {repeat.kind} {repeat.params} differs"])


def twocopy(workloads, tally: Tally, clock) -> tuple[float, float]:
    """One checked two-copy study; returns its start and end on ``clock``."""
    c0 = clock()
    rc, text = workloads.run_twocopy()
    c1 = clock()
    tally.add(1, workloads.twocopy_failures(rc, text))
    return c0, c1


def setup_samples(name: str, seed: int, kernels) -> list[tuple[float, float]]:
    """(seconds, host-speed scale) of ``SETUP_REPEATS`` fresh interpreters.

    The scale is the mean of two probe samples that bracket the interval:
    one taken here just before the interpreter starts, one taken by the
    interpreter right after its set-up.
    """
    import speed

    probe = speed.SpeedProbe()
    out = []
    for i in range(SETUP_REPEATS):
        before = probe.factor(probe.sample(scale=speed.SETUP_SAMPLE_SCALE), kernels)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed + i), str(OUT)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        seconds, after = proc.stdout.split()
        out.append((float(seconds), (before + float(after)) / 2))
    return out


def quantiles_ms(latencies) -> tuple[float, float]:
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return 1e3 * q[4], 1e3 * q[8]


def timed_run(workloads, workload, args, tally: Tally):
    import speed

    setups = setup_samples(args.workload, args.seed, workload.probe_kernels)
    workload.warm_up()
    probe = speed.SpeedProbe()
    with probe:
        done = closed_loop(workload, args.seconds, probe.clock)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        study = twocopy(workloads, tally, probe.clock)
    if workload.includes_twocopy:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passed = check_all(workload, done, tally)
    check_determinism(workload, done, tally)
    raw = [c1 - c0 for *_, c0, c1 in done]
    scaled = [(c1 - c0) * probe.scale(c0, c1, workload.probe_kernels) for *_, c0, c1 in done]
    p50, p90 = quantiles_ms(scaled)
    metrics = {
        "setup_s": (statistics.median(s * f for s, f in setups), "s"),
        "results_per_s": (passed / sum(scaled), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "twocopy_s": ((study[1] - study[0]) * probe.scale(*study), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    raw_p50, raw_p90 = quantiles_ms(raw)
    report = {
        "raw": {
            "setup_s": statistics.median(s for s, _ in setups),
            "results_per_s": passed / sum(raw),
            "latency_p50_ms": raw_p50,
            "latency_p90_ms": raw_p90,
            "twocopy_s": study[1] - study[0],
        },
        "setup_samples": setups,
        "host_speed_scale": sum(scaled) / sum(raw),
        "probe_s": probe.spent,
        "requests": len(done),
        "latency_samples": len(done),
        "latency_p90_valid": len(done) >= P90_MIN_SAMPLES,
    }
    return metrics, report


def traced_run(workloads, workload, args, tally: Tally):
    import speed
    import tracing

    workload.warm_up()
    probe = speed.SpeedProbe()
    with probe:
        with tracing.Tracer(probe.clock) as tracer:
            done = closed_loop(workload, args.seconds, probe.clock, tracer)
            intervals = [(c0, c1) for *_, c0, c1 in done]
            if workload.includes_twocopy:
                tracer.request = len(done)
                intervals.append(twocopy(workloads, tally, probe.clock))
        # Replay a prefix of the traced requests untraced: the ratio of the
        # two scaled times is the tracing overhead, and the replay is the
        # traced run's bit-for-bit determinism check.
        replayed = []
        start = time.perf_counter()
        for request, outcome, *_ in done:
            c0 = probe.clock()
            again = workload.call(request)
            replayed.append((c0, probe.clock()))
            same = workload.same(outcome, again)
            tally.add(1, [] if same else [f"determinism: replay of {request.kind} differs"])
            if time.perf_counter() - start >= args.seconds / 3:
                break
    check_all(workload, done, tally)
    scales = [probe.scale(c0, c1, workload.probe_kernels) for c0, c1 in intervals]
    busy = sum(c1 - c0 for c0, c1 in intervals)
    metrics, shares = tracing.layer_metrics(tracer.spans, busy, scales)
    traced_t = sum((c1 - c0) * f for (c0, c1), f in zip(intervals[: len(replayed)], scales))
    replay_t = sum((c1 - c0) * probe.scale(c0, c1, workload.probe_kernels) for c0, c1 in replayed)
    metrics["trace.overhead_frac"] = traced_t / replay_t - 1.0
    spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_file)
    units = per_layer_units()
    metrics = {k: (v, units[k]) for k, v in metrics.items()}
    report = {
        "requests": len(done),
        "traced_busy_s": busy,
        "layer_self_share": shares,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(BENCH.parent)),
    }
    return metrics, report


def per_layer_units() -> dict:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    root = BENCH.parent
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(root),
        "src_lines": src_lines,
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np
    import workloads

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.make(args.workload, args.seed, Path(tmp))
        run = traced_run if args.trace else timed_run
        metrics, report = run(workloads, workload, args, tally)
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        attempted=tally.attempted,
        failed=tally.failed,
        fail_frac=tally.failed / tally.attempted,
        failures=tally.messages,
        environment=environment(np),
    )
    for message in tally.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps(report))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
