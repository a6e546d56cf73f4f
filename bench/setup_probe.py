"""Time one workload's set-up in a fresh process: import `u1rotor` and build its models.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Prints one JSON line: the set-up's CPU seconds (user + system), its wall
seconds and the path u1rotor was imported from.  `run.py` runs this
several times per run and reports the median CPU time.
"""

import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402  (imports neither numpy nor u1rotor)

# The build only names files under this directory; it writes nothing.
workdir = os.path.join(os.path.dirname(BENCH), ".bench_out")
start, start_cpu = time.perf_counter(), time.process_time()
workloads.build(sys.argv[1], int(sys.argv[2]), workdir)
setup_s, setup_wall_s = time.process_time() - start_cpu, time.perf_counter() - start

print(json.dumps({
    "setup_s": setup_s, "setup_wall_s": setup_wall_s, "module": sys.modules["u1rotor"].__file__,
}))
