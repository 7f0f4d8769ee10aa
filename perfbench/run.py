#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of cherngeo.

Run from the repository root::

    python3 perfbench/run.py --workload search-sparse --seed 1 --seconds 25 --trace 0

The package is imported from ``src/``; it need not be installed.  With
``--trace 0`` the workload runs as a closed loop for ``--seconds`` (and at
least MIN_OPS operations), it is set up SETUP_SAMPLES times, each in a fresh
``setup_probe.py`` process, and the end-to-end metrics are reported.  Every
time in them is scaled to a reference loop run beside the timed work, so
that the shared host's swings in speed cancel out (see ``hostspeed``).  With
``--trace 1`` a fixed, seed-determined set of operations runs twice, once
plain and once with every layer function wrapped, and the per-layer metrics
are reported; the spans go to ``perfbench/out/``.

The last line of stdout is the result, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the seed, the commit, the Python version, nproc and any failures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_S, reference_s
from tracing import LAYERS, Tracer
from workloads import OUT, ROOT, SRC, WORKLOADS

MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
REF_WINDOW = 3  # reference runs on each side of an operation that scale it
SETUP_SAMPLES = 16  # cold set-ups per timed run, each in its own process
PROBE_SAMPLES = 5  # interpreter and import probes per traced run
PROBE_TIMEOUT_S = 120

# Functions whose call count and inclusive time are per-layer metrics.
TRACED_FUNCTIONS = (
    "invariants.validate_block",
    "fibersum.halic_construction",
    "fibersum.halic_construction_via_oracle",
    "algebra.chern_numbers_of_product",
    "algebra.evaluate",
    "geography.classify_geography_point",
)
TIMED_FUNCTIONS = (
    "fibersum.cross_section_of_surfaces",
    "geography.candidate_blocks",
    "plot.grid_csv",
    "plot.geography_svg",
    "cli.main",
    "catalog.load_catalog",
)


def commit_of(root: Path) -> str | None:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cherngeo").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_python(args: list[str], env: dict | None = None) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=PROBE_TIMEOUT_S,
        check=True,
        text=True,
    )
    return proc.stdout


def cold_setups(workload, seed: int, samples: int) -> list[float]:
    """Reference seconds of ``samples`` cold set-ups, each timed in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = [str(Path(__file__).with_name("setup_probe.py")), workload.name, str(seed),
             workload.package]
    return [float(run_python(probe, env)) for _ in range(samples)]


def run_ops(workload, ops, op, first_index: int, failures: dict, tracer=None, done=None):
    """Run ``ops`` in order, each between two runs of the reference loop.

    Stops at the end of ``ops`` or when ``done(number run)`` is true.  Returns
    (latencies in reference seconds, work units); see ``hostspeed``.
    """
    elapsed, refs, work = array("d"), array("d", [reference_s()]), 0
    for k, (x, units) in enumerate(ops):
        i = first_index + k
        if tracer is not None:
            with tracer.operation(i, workload.name):
                out, seconds, error = _timed_call(op, x)
        else:
            out, seconds, error = _timed_call(op, x)
        refs.append(reference_s())
        elapsed.append(seconds)
        work += units
        problem = error or workload.check(i, x, out)
        if problem:
            failures[i] = problem
        if done is not None and done(len(elapsed)):
            break
    return scaled(elapsed, refs), work


def scaled(elapsed, refs):
    """Each time scaled by the REF_WINDOW reference runs on either side of it.

    ``refs[i]`` ran just before operation ``i`` and ``refs[i + 1]`` just
    after it.  A single reference run is too short to stand for the host's
    speed over a whole operation, so each operation uses the mean of several.
    """
    out = array("d")
    for i, seconds in enumerate(elapsed):
        near = refs[max(0, i + 1 - REF_WINDOW): i + 1 + REF_WINDOW]
        out.append(seconds * REFERENCE_S * len(near) / sum(near))
    return out


def _timed_call(op, x):
    start = perf_counter()
    try:
        out = op(x)
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, perf_counter() - start, f"raised {exc!r}"
    return out, perf_counter() - start, None


def timed_loop(workload, args, failures: dict):
    """Closed loop for ``--seconds`` and at least MIN_OPS operations.

    Returns (latencies in reference seconds, work units).
    """
    inputs = workload.inputs()
    gc.collect()
    begin = perf_counter()

    def done(count: int) -> bool:
        return count >= MIN_OPS and perf_counter() - begin >= args.seconds

    return run_ops(workload, inputs, workload.op, 0, failures, done=done)


def end_to_end(workload, args, failures: dict):
    # Half the set-ups run before the loop and half after it, so that their
    # median spans the run rather than one moment of the machine's load.
    setups = cold_setups(workload, args.seed, SETUP_SAMPLES // 2)
    latencies, work = timed_loop(workload, args, failures)
    setups += cold_setups(workload, args.seed, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    peak_rss_mb = workload.peak_rss_mb()
    failures.update(workload.finish())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (work / sum(latencies), "1/s"),
        "op_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms.p90": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return len(latencies), metrics, {"setup_samples_s": setups}


def cli_probes() -> tuple[float, float]:
    """Median ms of a bare interpreter and of ``import cherngeo.cli`` on top of it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, imported = [], []
    for _ in range(PROBE_SAMPLES):
        start = perf_counter()
        run_python(["-c", "pass"], env)
        bare.append(perf_counter() - start)
        start = perf_counter()
        run_python(["-c", "import cherngeo.cli"], env)
        imported.append(perf_counter() - start)
    interpreter = statistics.median(bare)
    return interpreter * 1e3, (statistics.median(imported) - interpreter) * 1e3


def per_layer(workload, args, failures: dict):
    ops = list(itertools.islice(workload.inputs(), workload.traced_ops))
    gc.collect()
    plain, _ = run_ops(workload, ops, workload.traced_op, 0, failures)
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        traced, _ = run_ops(workload, ops, workload.traced_op, len(ops), failures, tracer)
    finally:
        tracer.uninstall()
    failures.update(workload.finish())
    interpreter_ms, import_ms = cli_probes()

    metrics = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = (tracer.count(name), "count")
        metrics[f"{name}.ms"] = (tracer.ms(name), "ms")
    for name in TIMED_FUNCTIONS:
        metrics[f"{name}.ms"] = (tracer.ms(name), "ms")
    pairs = tracer.edge_count("geography.search_realizations", "fibersum.halic_construction")
    hits = tracer.counters.get("geography.hits", 0)
    searches = tracer.count("geography.search_realizations")
    scans = tracer.edge_count("geography.search_realizations", "geography.candidate_blocks")
    metrics.update({
        "geography.pairs_examined": (pairs, "count"),
        "geography.hits": (hits, "count"),
        "geography.hit_ratio": (hits / pairs if pairs else 0.0, "ratio"),
        "geography.obstructed": (searches - scans, "count"),
        "geography.search_realizations.self_ms": (
            tracer.self_ms("geography.search_realizations"), "ms"),
        "algebra.expressions_built": (tracer.counters["algebra.expressions_built"], "count"),
        "plot.bytes_out": (tracer.counters.get("plot.bytes_out", 0), "bytes"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "trace.overhead_ratio": (sum(traced) / sum(plain), "ratio"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (tracer.layer_self_ms(layer), "ms")

    trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.dump(trace_file, {"workload": workload.name, "seed": args.seed, "ops": len(ops)})
    return 2 * len(ops), metrics, {"trace_file": str(trace_file.relative_to(ROOT))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cherngeo" / "__init__.py").is_file():
        print(f"error: no cherngeo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    failures: dict[int, str] = {}
    try:
        workload.setup(args.seed)
        if args.trace:
            attempted, metrics, extra = per_layer(workload, args, failures)
        else:
            attempted, metrics, extra = end_to_end(workload, args, failures)
    finally:
        workload.close()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(ROOT),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "op_samples": attempted,
        "fail_ratio": len(failures) / attempted,
        "failures": [f"op {i}: {m}" for i, m in sorted(failures.items())[:5]],
        **extra,
    }
    print(json.dumps(info))
    for i, message in sorted(failures.items())[:5]:
        print(f"failure: op {i}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
