"""Layer-attributed benchmark of the MI300A zero-copy reproduction.

One command runs one workload, checks its outputs and prints every metric
by name and unit; the last line of standard output is the result object::

    python3 perfbench/run.py --workload fig3-qmcpack --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no wrappers installed:

* ``wall_s`` — host seconds for one pass over the workload's cells after
  set-up: the run repeats the pass while ``--seconds`` last (at least
  ``MIN_PASSES`` times) and sums each cell's fastest repetition.  Other
  tenants of the host only ever take speed away, in bursts of seconds to
  minutes, so a cell's fastest repetition is its least disturbed one;
* ``setup_s`` — host seconds from a fresh interpreter to the first cell
  being ready (median of several probe processes, see ``probe.py``);
* ``kernels_per_s`` — simulated kernel launches per second of
  ``wall_s`` (on ``check-ci``: the kernels the cost and place
  differentials measure);
* ``peak_rss_mb`` — peak resident MiB of this process after set-up and
  one pass, the peak a user running the workload once sees;
* ``success_rate`` — 1 - failed/attempted operations.

With ``--trace 1`` it runs one untraced pass, installs the layer tracer
(``tracer.py``) and reports the per-layer metrics of ``layers.py`` for
the traced passes, including ``trace_overhead_s`` (traced minus untraced
pass wall time).  The layer self times plus ``unattributed.self_s`` must
add up to the traced wall time within ``ACCOUNTING_TOLERANCE``.  A suite
with a ``checked_engine`` (the macro engine on ``fig3-qmcpack``) then
runs one traced pass under that engine: its statistics must equal the
untraced pass cell by cell, and the metrics of that engine's layer
(``ENGINE_LAYERS``) come from it, with its own accounting check.

A line before the result carries the provenance (host CPU count and
affinity, Python and numpy versions, git revision and dirty flag, engine,
fidelity, seed), the simulated-statistics digest, the error rate, the
paper error and the wall time of every pass.  The exit status is 1 when
any check fails, and 2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up probes per run; setup_s is their median
SETUP_SAMPLES = 7
#: fewest timed passes per run, so every cell has repetitions to pick from
MIN_PASSES = 2
#: largest allowed gap between the summed layer self times and the
#: traced wall time, as a share of the traced wall time
ACCOUNTING_TOLERANCE = 0.005
#: engine -> prefix of the per-layer metrics its checked pass reports
ENGINE_LAYERS = {"macro": "sim.macro."}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from suites import SCALES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="bench",
                        help="'smoke' shrinks every workload for the smoke test")
    return parser.parse_args(argv)


def _git(*args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(suite, args) -> Dict[str, object]:
    import numpy

    rev = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": rev,
        "git_dirty": None if dirty is None else bool(dirty),
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        **suite.provenance(),
    }


def measure_setup(args) -> float:
    """Median seconds from launching a fresh interpreter to set-up done."""
    samples = []
    cmd = [sys.executable, os.path.join(HERE, "probe.py"),
           "--workload", args.workload, "--scale", args.scale]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit status {code}")
        samples.append(elapsed)
    return statistics.median(samples)


def timed_passes(suite, seed: int, seconds: float):
    """Run passes until ``seconds`` are used up (at least ``MIN_PASSES``);
    a further pass starts only while it is expected to end less than half
    a pass late.  Also returns the peak resident MiB after the first pass."""
    walls, results = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(suite.run_pass(seed))
        walls.append(time.perf_counter() - t0)
        if len(walls) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if (len(walls) >= MIN_PASSES and
                time.perf_counter() - start + statistics.median(walls) / 2 >= seconds):
            return walls, results, peak_rss_mb


def fastest_pass_s(results) -> float:
    """Sum over cells of each cell's fastest repetition."""
    return sum(min(res.cell_s[label] for res in results) for label in results[0].cell_s)


class Verdict:
    """Accumulates operations and the checks that make a run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.problems: List[str] = []

    def add_pass(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.errors.extend(res.errors)

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def check_repeat(verdict: Verdict, results, what: str) -> None:
    digests = {r.digest for r in results}
    verdict.require(len(digests) == 1, f"{what}: digest differs between passes")
    verdict.require(len({r.kernels for r in results}) == 1,
                    f"{what}: kernel count differs between passes")


def engine_identity(verdict: Verdict, ref, res, engine: str) -> None:
    """Another engine must reproduce the fast engine's statistics for
    every cell: one comparison per cell is one operation."""
    for label in sorted(ref.records.keys() | res.records.keys()):
        verdict.attempted += 1
        if ref.records.get(label) != res.records.get(label):
            verdict.failed += 1
            verdict.errors.append(f"{label}: {engine} statistics differ from the fast engine")


def end_to_end(suite, args, verdict: Verdict):
    setup_s = measure_setup(args)
    suite.setup()
    walls, results, peak_rss_mb = timed_passes(suite, args.seed, args.seconds)
    for res in results:
        verdict.add_pass(res)
    check_repeat(verdict, results, "untraced")
    wall = fastest_pass_s(results)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "kernels_per_s": (results[0].kernels / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "success_rate": (1 - verdict.failed / max(verdict.attempted, 1), "ratio"),
    }
    return metrics, results[0], walls


def accounted(verdict: Verdict, values: Dict[str, float], traced: float, what: str) -> None:
    total = sum(v for k, v in values.items() if k.endswith("self_s"))
    verdict.require(
        abs(total - traced) <= ACCOUNTING_TOLERANCE * traced,
        f"{what}: layer self times sum to {total:.4f} s, traced wall is {traced:.4f} s")


def per_layer(suite, args, verdict: Verdict):
    import layers
    from tracer import Tracer

    suite.setup()
    start = time.perf_counter()
    base = suite.run_pass(args.seed)
    untraced = time.perf_counter() - start
    verdict.add_pass(base)

    tracer = Tracer(SRC)
    tracer.install(layers.observers(tracer), layers.transforms(tracer))

    def traced_pass(engine: Optional[str] = None):
        before = tracer.snapshot()
        t0 = time.perf_counter()
        res = suite.run_pass(args.seed, engine=engine)
        wall = time.perf_counter() - t0
        return res, wall, layers.layer_metrics(before, tracer.snapshot())

    walls, per_pass, results = [], [], []
    engine_pass = None
    try:
        while True:
            res, wall, metrics = traced_pass()
            walls.append(wall)
            results.append(res)
            per_pass.append(metrics)
            if time.perf_counter() - start + statistics.median(walls) / 2 >= args.seconds:
                break
        if suite.checked_engine is not None:
            suite.prepare_engine(suite.checked_engine)
            engine_pass = traced_pass(suite.checked_engine)
    finally:
        tracer.uninstall()
    for res in results:
        verdict.add_pass(res)
    check_repeat(verdict, [base] + results, "traced vs untraced")

    values: Dict[str, float] = {}
    for name in per_pass[0]:
        seen = [m[name] for m in per_pass]
        if name.endswith(("self_s", "host_us_per_event")):
            values[name] = statistics.fmean(seen)
        else:
            verdict.require(len(set(seen)) == 1,
                            f"count {name} differs between traced passes: {seen}")
            values[name] = seen[0]
    traced = statistics.fmean(walls)
    accounted(verdict, values, traced, "traced passes")
    if engine_pass is not None:
        engine = suite.checked_engine
        res, wall, metrics = engine_pass
        verdict.add_pass(res)
        engine_identity(verdict, base, res, engine)
        accounted(verdict, metrics, wall, f"{engine} pass")
        prefix = ENGINE_LAYERS[engine]
        values.update({k: v for k, v in metrics.items() if k.startswith(prefix)})
    values["traced_wall_s"] = traced
    values["trace_overhead_s"] = traced - untraced
    values["experiments.paper_err"] = base.paper_err
    values["experiments.paper_refs"] = base.paper_refs
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, base, [untraced] + walls


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from suites import make_suite

    verdict = Verdict()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    # the program's own scratch files (the MapFix sandboxes) stay in the checkout
    tempfile.tempdir = workdir
    try:
        suite = make_suite(args.workload, args.scale, workdir)
        run = per_layer if args.trace else end_to_end
        metrics, first, walls = run(suite, args, verdict)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import repro

    verdict.require(os.path.abspath(repro.__file__).startswith(SRC + os.sep),
                    f"imported repro from {repro.__file__}, not from {SRC}")
    info = {
        "provenance": provenance(suite, args),
        "digest": first.digest,
        "error_rate": verdict.failed / max(verdict.attempted, 1),
        "paper_err": first.paper_err if first.paper_refs else None,
        "pass_wall_s": walls,
        "cell_s": first.cell_s,
        "problems": verdict.problems,
        "errors": verdict.errors[:20],
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
