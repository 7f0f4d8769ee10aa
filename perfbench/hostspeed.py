"""A fixed reference loop that measures the host's speed beside the benchmark.

The benchmark shares a few cores of a busy host.  On such a host the same
Python code runs up to about 1.8 times slower for milliseconds to minutes at a
time, as neighbours come and go, and whole runs fall into a slow or a fast
state.  Process CPU time slows down with wall time, so it does not help.
The slowdown hits this loop and the program alike, so the benchmark runs the
loop next to every timed piece of work and reports each time scaled to the
loop's nominal duration::

    scaled = measured * REFERENCE_S / (reference loop's time around it)

that is, the time the work would take on a host where one loop takes
``REFERENCE_S``.  The loop makes only ints, floats and strings, no
containers, so it never starts the garbage collector: a change to the
program's heap does not move it.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.0025  # nominal seconds of one loop, near its typical time on a 2-vCPU x86 VM

_INTS = tuple((k * 7919) % 1009 for k in range(500))
_STRS = tuple(str(k) for k in _INTS)
_ROUNDS = 7


def reference_loop() -> int:
    """Integer arithmetic and short-lived strings, as the program does."""
    acc = 0
    for _ in range(_ROUNDS):
        for k, s in zip(_INTS, _STRS):
            acc = (acc + k * k) % 1000003
            acc += len(f"{s},{k * 3}") + int(k * 0.5)
    return acc


def reference_s(loops: int = 1) -> float:
    """Seconds per loop, over ``loops`` runs of the reference loop."""
    start = perf_counter()
    for _ in range(loops):
        reference_loop()
    return (perf_counter() - start) / loops
