"""Time one cold set-up of a workload in this fresh process.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed> <package>

Prints the seconds spent importing ``package`` and running the workload's
``setup``, scaled to the reference loop run just before and just after it
(see ``hostspeed``).  The package is imported before the benchmark's
workload module, so that every module it needs is loaded and timed here, as
in a real process.  ``run.py`` starts one of these per set-up sample,
passing the workload's ``package``.
"""

import sys
from time import perf_counter

from hostspeed import REFERENCE_S, reference_s

REFERENCE_LOOPS = 4

name, seed, package = sys.argv[1], int(sys.argv[2]), sys.argv[3]

reference_s()  # warm the loop up
before = reference_s(REFERENCE_LOOPS)
start = perf_counter()
__import__(package)
imported = perf_counter()

from workloads import WORKLOADS  # noqa: E402  (the benchmark's modules, untimed)

workload = WORKLOADS[name]()
try:
    begin = perf_counter()
    workload.setup(seed)
    end = perf_counter()
finally:
    workload.close()
after = reference_s(REFERENCE_LOOPS)
print(repr((imported - start + end - begin) * 2 * REFERENCE_S / (before + after)))
