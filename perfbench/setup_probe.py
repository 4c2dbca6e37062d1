"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <out_dir>

Prints the seconds from before ``import chanapprox`` to the end of the
first certified call of every program shape the workload uses (those
calls fill the ``lru_cache``'d basis stacks in ``chanapprox.sdp``), then
the host-speed scale factor measured right after.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (imports chanapprox from the checkout's src)

workload = workloads.make(sys.argv[1], int(sys.argv[2]), sys.argv[3])
workload.warm_up()
elapsed = time.perf_counter() - start

import speed  # noqa: E402

probe = speed.SpeedProbe()
print(elapsed, probe.factor(probe.sample(scale=speed.SETUP_SAMPLE_SCALE), workload.probe_kernels))
