#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and summarise each metric.

Run from the repository root::

    python3 perfbench/steady.py --workload search-sparse --runs 10 > set1.txt
    python3 perfbench/steady.py --workload search-sparse --runs 10 --against set1.txt

Each run is a separate ``perfbench/run.py`` process with its own seed
(``--seed``, ``--seed + 1``, ...), or the same seed with ``--same-seed``.
For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  With ``--trace 0``
each spread is compared with a third of the metric's bound in
``BENCHMARK.json``.  ``--against`` takes the output of an earlier set and
compares each median with that set's: a median that is worse by more than
the metric's bound, as a share of the earlier median, fails.  With
``--trace 1 --same-seed`` it checks that every count repeats exactly.
The last line of the output is a JSON summary, and the exit code is 0 only
if every check passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """The result of one run.py process, and its wall time in s."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect output\n{proc.stdout}")
    return result, perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, help="output of an earlier set to compare with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    earlier = {}
    if args.against:
        earlier = json.loads(args.against.read_text().splitlines()[-1])["metrics"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for k in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + k
        result, wall = run_once(args.workload, seed, args.seconds, args.trace)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"run {k + 1}/{args.runs} seed {seed}: {result['attempted']} ops in {wall:.1f} s",
              file=sys.stderr)

    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    steady = True
    summary = {}
    print(f"{'metric':42} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound/3':>8}"
          f" {'worse':>8}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = metrics[name]["bound"] if name in metrics else 0.0
        verdict, worse = [], float("nan")
        if args.trace == 0 and name in metrics:
            verdict.append("ok" if spread < bound / 3 else "WIDE")
            steady = steady and spread < bound / 3
        if name in earlier and name in metrics:
            before = earlier[name]["median"]
            sign = 1 if metrics[name]["better"] == "lower" else -1
            worse = sign * (median - before) / before
            verdict.append("holds" if worse <= bound else "MOVED")
            steady = steady and worse <= bound
        if args.trace == 1 and args.same_seed and units[name] in ("count", "bytes"):
            verdict.append("repeats" if len(set(vals)) == 1 else "DIFFERS")
            steady = steady and len(set(vals)) == 1
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "worse": worse, "unit": units[name], "values": vals}
        print(f"{name:42} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{bound / 3:8.4f} {worse:8.4f} {' '.join(verdict)}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "steady": steady,
                      "metrics": summary}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
