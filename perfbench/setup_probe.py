"""Child process that measures one set-up: import hypkin and hypkin.cli, then
build and validate() the workload's motions.

    PYTHONPATH=src:. python3 perfbench/setup_probe.py MOTIONS.json

Prints the set-up time in seconds; reading the motion file is not counted.
"""

import sys
import time

t0 = time.perf_counter()
import hypkin  # noqa: E402,F401
import hypkin.cli  # noqa: E402,F401

t1 = time.perf_counter()
import json  # noqa: E402

from perfbench.workloads import build_motion  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    specs = json.load(fh)
t2 = time.perf_counter()
for cfg in specs:
    build_motion(cfg).validate()
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
