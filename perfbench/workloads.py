"""The four seeded workloads of the cherngeo benchmark.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has returned.  A workload object

* ``setup(seed)`` imports ``package`` and builds what the program needs to
  run the operations; this is the set-up time the benchmark reports as
  ``setup_s``;
* ``inputs()`` prepares the benchmark's own data for choosing and checking
  inputs, untimed, and returns an endless, seed-determined iterator of
  ``(operation input, work units)``;
* ``op(x)`` is one timed operation; ``traced_op(x)`` is its in-process form
  for the traced run;
* ``check(i, x, out)`` runs after an operation's clock has stopped and returns
  a failure message or ``None``; ``finish()`` runs after the loop and returns
  ``{operation index: message}`` for failures only a whole-run check can find.

The program sees only the generated inputs, never the seed.  No workload
module imports ``cherngeo`` at import time: ``setup_probe.py`` imports
``package`` before this module, so that the timed import is a cold one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"


def digest(data: bytes) -> str:
    """Short content digest used for recorded outputs."""
    return hashlib.sha256(data).hexdigest()[:16]


def block_specs(chi_h, c1_sq, genus):
    """Search candidates of the default families plus a generic grid.

    One ``(constructor, args, chi_h, c1^2, fiber genus)`` per block, in the
    order ``geography.candidate_blocks`` enumerates them for the default
    ``SearchBounds`` (E(1..5), S2xS2, E(1..5)_K with knot genus 0..4) and
    ``GenericGrid(chi_h, c1_sq, genus)``.  Written here from the families'
    definitions so that the checks do not rely on the enumeration they check.
    """
    specs = [("elliptic_surface", (m,), m, 0, 1) for m in range(1, 6)]
    specs.append(("ruled_spheres", (), 1, 8, 0))
    specs += [
        ("knot_surgered_elliptic", (k, g), k, 0, 2 * g + k - 1)
        for k in range(1, 6)
        for g in range(5)
    ]
    for chi in range(chi_h[0], chi_h[1] + 1):
        for q in range(c1_sq[0], c1_sq[1] + 1):
            for g in range(genus[0], genus[1] + 1):
                n = 12 * chi - q - 2 * (2 - 2 * g)  # Euler number fixes the nodal fibers
                if n >= 0:
                    specs.append(("generic_block", (chi, q, g, n, n > 2 * g), chi, q, g))
    return specs


def build_blocks(catalog, specs):
    return [getattr(catalog, ctor)(*args) for ctor, args, *_ in specs]


def fiber_sum_triple(s1, s2):
    """(c3, c1^3, c1c2) of the fiber sum of two specs, from the linear form.

    With f = 1 - g, A = c1c2/24 and B = c1^3/6 are bilinear in (chi_h, c1^2, f)
    and c3 = 24A - 2B.  Used only to choose targets, never to check results.
    """
    chi1, q1, f1 = s1[2], s1[3], 1 - s1[4]
    chi2, q2, f2 = s2[2], s2[3], 1 - s2[4]
    a = f2 * chi1 + f1 * chi2 - f1 * f2
    b = f2 * q1 + f1 * q2 - 8 * f1 * f2
    return (24 * a - 2 * b, 6 * b, 24 * a)


class Workload:
    name = ""
    package = "cherngeo"  # imported by setup(); setup_probe.py times its cold import
    traced_ops = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def inputs(self):
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def traced_op(self, x):
        return self.op(x)

    def check(self, i: int, x, out) -> str | None:
        return None

    def finish(self) -> dict[int, str]:
        return {}

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class SearchSparse(Workload):
    """Realization searches over the named families plus a 0..8 generic grid.

    334 blocks, 55,945 unordered pairs per query.  Per group of eight
    queries: five image points of low multiplicity, two off-plane targets that
    pass every divisibility check but break 3*c3 = 3*c1c2 - c1^3, and one
    obstructed target.  Nearly all time is the closed-form pair scan.
    """

    name = "search-sparse"
    traced_ops = 8
    GRID = ((0, 8), (0, 8), (0, 3))
    MAX_HITS = 16  # image targets realized by at most this many pairs
    MIX = ("image",) * 5 + ("off-plane",) * 2 + ("obstructed",)

    def setup(self, seed):
        from cherngeo import catalog, fibersum, geography, invariants

        self.geography, self.fibersum = geography, fibersum
        self.triple_type = invariants.ChernTriple
        self.bounds = geography.SearchBounds(generic=geography.GenericGrid(*self.GRID))
        self.specs = block_specs(*self.GRID)
        self.blocks = build_blocks(catalog, self.specs)
        self.rng = random.Random(seed)

    def inputs(self):
        specs = self.specs
        self.index = {b.name: i for i, b in enumerate(self.blocks)}
        self.pairs = len(specs) * (len(specs) + 1) // 2
        self.image_counts = Counter(
            fiber_sum_triple(s1, s2) for i, s1 in enumerate(specs) for s2 in specs[i:]
        )
        self.records = []
        image = sorted(t for t, n in self.image_counts.items() if n <= self.MAX_HITS)
        return self._targets(image)

    def _targets(self, image):
        rng = self.rng
        while True:
            mix = list(self.MIX)
            rng.shuffle(mix)
            for kind in mix:
                c3, c1_cubed, c1c2 = rng.choice(image)
                if kind == "off-plane":
                    c3 += 2 * rng.choice((-3, -2, -1, 1, 2, 3))
                elif kind == "obstructed":
                    which = rng.randrange(3)
                    if which == 0:
                        c3 += 1  # odd
                    elif which == 1:
                        c1_cubed += 2  # even, not divisible by 6
                    else:
                        c1c2 += 12  # not divisible by 24
                yield (kind, self.triple_type(c3, c1_cubed, c1c2)), self.pairs

    def op(self, x):
        return self.geography.search_realizations(x[1], self.bounds)

    def check(self, i, x, out):
        kind, target = x
        found = []
        for r in out:
            j1, j2 = self.index.get(r.block1.name), self.index.get(r.block2.name)
            if j1 is None or j2 is None:
                return f"unknown block in ({r.block1.name}, {r.block2.name})"
            if r.block1 != self.blocks[j1] or r.block2 != self.blocks[j2]:
                return f"block record differs for ({r.block1.name}, {r.block2.name})"
            if r.triple != target:
                return f"realization triple {r.triple} is not the target {target}"
            found.append((j1, j2))
        self.records.append((i, kind, target, found))
        return None

    def finish(self):
        """Brute-force tally of the public closed form over every candidate pair."""
        wanted = {target for _, _, target, _ in self.records}
        expected: dict = {}
        blocks, closed_form = self.blocks, self.fibersum.halic_construction
        for i, b1 in enumerate(blocks):
            for j in range(i, len(blocks)):
                t = closed_form(b1, blocks[j], check=False)
                if t in wanted:
                    expected.setdefault(t, []).append((i, j))
        failures = {}
        for i, kind, target, found in self.records:
            want = expected.get(target, [])
            key = (target.c3, target.c1_cubed, target.c1c2)
            if found != want:
                failures[i] = (
                    f"{kind} target {key}: {len(found)} pairs differ from the brute-force "
                    f"tally's {len(want)} (pairs, order and unordered-pair dedup compared)"
                )
            elif len(want) != (self.image_counts[key] if kind == "image" else 0):
                failures[i] = f"{kind} target {key}: closed form realizes it {len(want)} times"
        return failures


class OracleCheck(Workload):
    """The ``fibersum --oracle`` audit on random pairs of 835 blocks.

    Blocks are the named families plus the generic grid chi_h 0..12 x
    c1^2 0..12 x genus 0..4.  One operation audits a batch of pairs: closed
    form, symbolic oracle, their equality, and the divisibility check.
    Batch sizes vary, so that the median latency does not sit between two
    narrow modes; each pass of 49 batches takes every size once, in an
    order the seed shuffles, so that every run has nearly the same mix.
    """

    name = "oracle-check"
    traced_ops = 32
    GRID = ((0, 12), (0, 12), (0, 4))
    BATCH = (8, 56)  # pairs per operation; 32 on average

    def setup(self, seed):
        from cherngeo import catalog, fibersum, geography

        self.fibersum, self.geography = fibersum, geography
        self.blocks = build_blocks(catalog, block_specs(*self.GRID))
        self.rng = random.Random(seed)

    def inputs(self):
        rng, blocks, n = self.rng, self.blocks, len(self.blocks)
        sizes = list(range(self.BATCH[0], self.BATCH[1] + 1))
        while True:
            rng.shuffle(sizes)
            for size in sizes:
                pairs = [(blocks[rng.randrange(n)], blocks[rng.randrange(n)]) for _ in range(size)]
                yield pairs, size

    def op(self, batch):
        fibersum, geography = self.fibersum, self.geography
        out = []
        for b1, b2 in batch:
            closed = fibersum.halic_construction(b1, b2)
            symbolic = fibersum.halic_construction_via_oracle(b1, b2)
            report = geography.halic_divisibility_check(closed)
            out.append((closed == symbolic, report.all_pass))
        return out

    def check(self, i, batch, out):
        if len(out) != len(batch):
            return f"{len(out)} results for {len(batch)} pairs"
        for (b1, b2), (agreed, divisible) in zip(batch, out):
            if not agreed:
                return f"closed form and oracle disagree on ({b1.name}, {b2.name})"
            if not divisible:
                return f"divisibility check fails on ({b1.name}, {b2.name})"
        return None


PLOT_POOL = 128  # windows whose outputs digests.json records


def plot_windows() -> list[tuple[int, int, int, int]]:
    """The fixed pool of (chi_lo, chi_hi, c1sq_lo, c1sq_hi) windows plot-grid draws from.

    3 to 25 values of chi_h by 11 to 241 of c1^2: 33 to 6,025 points.
    """
    rng = random.Random(0)
    windows = []
    for _ in range(PLOT_POOL):
        chi_lo, c1sq_lo = rng.randint(-2, 30), rng.randint(-20, 200)
        windows.append(
            (chi_lo, chi_lo + rng.randint(2, 24), c1sq_lo, c1sq_lo + rng.randint(10, 240))
        )
    return windows


def plot_window(plot, window) -> tuple[str, str]:
    """CSV grid and SVG chart of one window."""
    chi_range, c1sq_range = window[:2], window[2:]
    return plot.grid_csv(chi_range, c1sq_range), plot.geography_svg(chi_range, c1sq_range)


class PlotGrid(Workload):
    """CSV grids and SVG charts of seeded windows of the (chi_h, c1^2) plane.

    Each pass renders every window of ``plot_windows()`` once, in an order
    the seed shuffles, so every run renders nearly the same mix.  One
    operation renders a window with ``grid_csv`` and ``geography_svg``.  Only the classifier
    and ``plot`` run: no search and no oracle.
    """

    name = "plot-grid"
    traced_ops = 64

    def setup(self, seed):
        from cherngeo import plot

        self.plot = plot
        self.rng = random.Random(seed)

    def inputs(self):
        with open(DIGESTS, encoding="utf-8") as fh:
            records = json.load(fh)["plot-grid"]
        self.expected = {tuple(r["window"]): (r["csv"], r["svg"]) for r in records}
        return self._windows(plot_windows())

    def _windows(self, pool):
        while True:
            self.rng.shuffle(pool)
            for window in pool:
                yield window, (window[1] - window[0] + 1) * (window[3] - window[2] + 1)

    def op(self, window):
        return plot_window(self.plot, window)

    def check(self, i, window, out):
        want = self.expected.get(window)
        got = tuple(digest(text.encode("utf-8")) for text in out)
        if got != want:
            return f"window {window}: digests {got}; recorded {want}"
        return None


# README commands; "{catalog}" stands for a catalog file the benchmark writes.
CLI_SCRIPT = (
    ("block", "elliptic", "--m", "2"),
    ("block", "generic", "--chi", "1", "--c1sq", "8", "--genus", "0", "--n", "0", "--format", "json"),
    ("product", "ruled-spheres", "--surface-genus", "0"),
    ("fibersum", "elliptic", "--m", "3", "ruled-spheres"),
    ("fibersum", "elliptic", "--m", "2", "knot-elliptic", "--k", "2", "--knot-genus", "0", "--oracle"),
    ("search", "--target", "24,0,24", "--max-m", "5"),
    ("classify", "--chi", "2", "--c1sq", "0"),
    ("plot", "--chi", "0..10", "--c1sq", "-5..95", "--format", "csv"),
    ("plot", "--chi", "0..10", "--c1sq", "-5..95", "--format", "svg"),
    ("catalog", "--catalog", "{catalog}", "--format", "json"),
    ("catalog",),
)

CLI_CATALOG = [
    {"family": "elliptic", "m": 2},
    {"family": "knot-surgered-elliptic", "k": 2, "knot_genus": 0},
    {"family": "ruled-spheres"},
    {"name": "X", "chi_h": 1, "c1_sq": 8, "fiber_genus": 0, "singular_fibers": 0,
     "simply_connected": True},
]


def write_cli_catalog(path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CLI_CATALOG, fh)


def cli_argv(argv, catalog_path: Path) -> list[str]:
    return [str(catalog_path) if a == "{catalog}" else a for a in argv]


def cli_process(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of one ``python -m cherngeo.cli`` process."""
    proc = subprocess.run(
        [sys.executable, "-m", "cherngeo.cli", *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    return proc.returncode, proc.stdout


# Runs a command and prints its peak RSS in KiB.  A child's peak counts the
# memory of the process that spawned it, so the spawner has to be smaller
# than the CLI process: a bare interpreter, not the benchmark.
_RSS_PROBE = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=["
    "(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),"
    "(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])\n"
    "print(os.wait4(pid, 0)[2].ru_maxrss)\n"
)


def cli_peak_rss_kib(argv: list[str]) -> int:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _RSS_PROBE, sys.executable, "-m", "cherngeo.cli", *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        timeout=120,
        check=True,
        text=True,
    )
    return int(proc.stdout)


class CliCold(Workload):
    """README commands, each in a fresh ``python -m cherngeo.cli`` process.

    The seed shuffles each pass over the script.  Peak memory is that of the
    largest CLI process, measured once per command after the timed loop.
    """

    name = "cli-cold"
    package = "cherngeo.cli"
    traced_ops = len(CLI_SCRIPT)

    def setup(self, seed):
        from cherngeo import cli

        self.cli = cli
        self.catalog_path = OUT / f"catalog-{os.getpid()}-{id(self):x}.json"
        write_cli_catalog(self.catalog_path)
        self.rng = random.Random(seed)

    def close(self):
        with contextlib.suppress(AttributeError, FileNotFoundError):
            self.catalog_path.unlink()

    def inputs(self):
        with open(DIGESTS, encoding="utf-8") as fh:
            records = json.load(fh)["cli-cold"]
        self.expected = {tuple(r["argv"]): (r["exit"], r["stdout"]) for r in records}
        return self._commands()

    def _commands(self):
        script = list(CLI_SCRIPT)
        while True:
            self.rng.shuffle(script)
            for argv in script:
                yield (argv, cli_argv(argv, self.catalog_path)), 1

    def op(self, x):
        return cli_process(x[1])

    def peak_rss_mb(self) -> float:
        return max(cli_peak_rss_kib(cli_argv(a, self.catalog_path)) for a in CLI_SCRIPT) / 1024

    def traced_op(self, x):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(x[1]))
            except SystemExit as exc:  # argparse usage errors exit
                code = exc.code
        return code, out.getvalue().encode("utf-8")

    def check(self, i, x, out):
        want = self.expected.get(x[0])
        if want is None:
            return f"no recorded output for {' '.join(x[0])}"
        code, stdout = out
        if (code, digest(stdout)) != want:
            return f"{' '.join(x[0])}: exit {code}, stdout digest {digest(stdout)}; recorded {want}"
        return None


WORKLOADS = {w.name: w for w in (SearchSparse, OracleCheck, PlotGrid, CliCold)}
