"""The benchmark's workloads: which cells a pass runs and how it is checked.

Every workload is a list of *cells* run in one process with no worker
pool.  A pass runs every cell once.  Simulation cells run in an order
permuted by the seed, which is also the cells' simulation seed; results
do not depend on either, so the digest is taken in canonical label
order.  All simulation cells run with the noise model off (the
``fig3 --quick`` path), so every simulated statistic repeats exactly and
the macro engine may engage.

* ``fig3-qmcpack`` — QMCPack NiO S8 at 1, 2, 4 and 8 host threads under
  Copy, USM, Implicit Z-C and Eager Maps (TEST fidelity, fast engine):
  the paper's Fig. 3 grid, loading the scheduler, the device lock and the
  GPU queues under 8-way contention.  Its traced run also runs the cells
  once under ``engine="macro"`` (``checked_engine``): that pass gives the
  macro engine's layer metrics, and its statistics must equal the fast
  engine's cell by cell.
* ``table2-specaccel`` — the five SPECaccel proxies under the four
  configurations (BENCH fidelity, one repetition, total time): single
  threaded, first-touch fault storms and reallocation churn; the only
  workload with paper reference numbers (``PAPER_TABLE2``).
* ``check-ci`` — the commands of the CI check jobs at ``--jobs 1``,
  through ``repro.cli.main``; static analyses, the multi-socket place
  differential and MapFix instead of the simulation hot path.  The
  per-workload commands run once per bundled workload rather than once
  on ``all``: ``check all`` checks every workload independently and in
  turn, so this is the same work, in cells short enough to repeat.

A failed operation is a cell that raises, a cell whose functional
outputs differ from the Copy cell of its group, a macro-engine cell whose
statistics differ from the fast engine's, a check command whose exit
status or differential ``ok`` flag fails, or a MapFix corpus entry that
misses its pinned expected status.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

SCALES = ("bench", "smoke")


@dataclass
class PassResult:
    """What one pass over a workload's cells produced."""

    attempted: int = 0
    failed: int = 0
    kernels: int = 0
    errors: List[str] = field(default_factory=list)
    #: label -> deterministic statistics of that cell
    records: Dict[str, object] = field(default_factory=dict)
    paper_err: float = 0.0
    paper_refs: int = 0
    #: label -> host seconds the cell took (diagnostic, not digested)
    cell_s: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps([self.records[k] for k in sorted(self.records)],
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _hash_outputs(outputs: Dict[str, object]) -> str:
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode())
        try:
            arr = np.asarray(value)
        except (TypeError, ValueError):
            arr = None
        if arr is not None and arr.dtype != object:
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _functional(key: str) -> bool:
    """Outputs named ``*_us``/``*_faults`` are telemetry that is meant to
    differ between configurations (the convention of ``repro.check``)."""
    return not (key.endswith("_us") or key.endswith("_faults"))


def _same_outputs(a: Dict[str, object], b: Dict[str, object]) -> bool:
    import numpy as np

    keys = {k for k in a if _functional(k)} | {k for k in b if _functional(k)}
    for key in keys:
        if key not in a or key not in b:
            return False
        if not np.array_equal(np.asarray(a[key]), np.asarray(b[key])):
            return False
    return True


# ---------------------------------------------------------------------------
# simulation workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimCell:
    label: str
    group: str                      #: cells of a group are checked against its Copy cell
    factory: Callable[[], object]   #: builds a fresh workload instance
    config: object                  #: RuntimeConfig


class SimSuite:
    """Cells run through ``repro.experiments.execute``."""

    engine = "fast"
    #: fidelity preset of the cells, set when they are built
    fidelity = ""
    #: engine whose statistics the traced run checks against this suite's
    checked_engine: Optional[str] = None

    def __init__(self, name: str, scale: str):
        self.name = name
        self.scale = scale
        self.cells: List[SimCell] = []

    def setup(self) -> None:
        """Import the program, build the cells and one instance of each
        workload, and fill the per-process memos the first cell would
        otherwise pay for."""
        import repro.experiments  # noqa: F401  (the public entry point)

        self.cells = self._build_cells()
        self._instances = [cell.factory() for cell in self.cells]

    def prepare_engine(self, engine: str) -> None:
        """Fill the memos another engine needs before its first pass."""
        if engine == "macro":
            from repro.sim.macro import declared_period

            for inst in self._instances:
                declared_period(inst)

    def _build_cells(self) -> List[SimCell]:  # pragma: no cover - interface
        raise NotImplementedError

    def provenance(self) -> Dict[str, str]:
        return {"engine": self.engine, "fidelity": self.fidelity}

    def run_pass(self, seed: int, engine: Optional[str] = None) -> PassResult:
        import repro.experiments as rx
        from repro.core.config import RuntimeConfig

        engine = engine or self.engine
        order = list(self.cells)
        random.Random(seed).shuffle(order)
        out = PassResult()
        runs = {}
        for cell in order:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                # looked up per call, so a traced run sees the wrapped entry point
                run = rx.execute(cell.factory(), cell.config, seed=seed, engine=engine)
            except Exception as exc:  # a failing cell is a counted failure
                out.fail(f"{cell.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                out.cell_s[cell.label] = time.perf_counter() - t0
            runs[cell.label] = run
            out.kernels += run.ledger.n_kernels
            out.records[cell.label] = {
                "label": cell.label,
                "elapsed_us": run.elapsed_us,
                "steady_us": run.steady_us,
                "sim_events": run.sim_events,
                "hsa": {n: [s.count, s.total_us] for n, s in
                        sorted(run.hsa_trace.stats.items())},
                "ledger": run.ledger.summary(),
                "outputs": _hash_outputs(run.outputs),
            }
        copy_of = {c.group: c.label for c in self.cells
                   if c.config is RuntimeConfig.COPY}
        for cell in self.cells:
            ref = runs.get(copy_of.get(cell.group))
            if cell.label not in runs or cell.config is RuntimeConfig.COPY:
                continue
            if ref is None:
                out.fail(f"{cell.label}: no Copy run to compare against")
            elif not _same_outputs(runs[cell.label].outputs, ref.outputs):
                out.fail(f"{cell.label}: functional outputs differ from Copy")
        self._score(out, runs)
        return out

    def _score(self, out: PassResult, runs) -> None:
        """Workload-specific accuracy figures (none by default)."""


class Fig3Suite(SimSuite):
    checked_engine = "macro"

    def _build_cells(self) -> List[SimCell]:
        from repro.core.config import ALL_CONFIGS
        from repro.workloads.base import Fidelity
        from repro.workloads.qmcpack import QmcPackNio

        size, threads = (8, (1, 2, 4, 8)) if self.scale == "bench" else (2, (1, 2))
        self.fidelity = Fidelity.TEST.value
        return [
            SimCell(f"qmcpack-S{size}-t{t}/{cfg.value}", f"t{t}",
                    partial(QmcPackNio, size=size, n_threads=t, fidelity=Fidelity.TEST), cfg)
            for t in threads for cfg in ALL_CONFIGS
        ]


class Table2Suite(SimSuite):
    def _build_cells(self) -> List[SimCell]:
        from repro.core.config import ALL_CONFIGS
        from repro.workloads.base import Fidelity
        from repro.workloads.specaccel import ALL_BENCHMARKS

        if self.scale == "bench":
            names, fidelity = ("stencil", "lbm", "ep", "spC", "bt"), Fidelity.BENCH
        else:
            names, fidelity = ("stencil", "ep"), Fidelity.TEST
        self.fidelity = fidelity.value
        return [
            SimCell(f"{name}/{cfg.value}", name,
                    partial(ALL_BENCHMARKS[name], fidelity=fidelity), cfg)
            for name in names for cfg in ALL_CONFIGS
        ]

    def _score(self, out: PassResult, runs) -> None:
        """Largest relative error of the Copy/zero-copy total-time ratios
        against the paper's Table II."""
        from repro.core.config import RuntimeConfig
        from repro.experiments import PAPER_TABLE2

        worst = 0.0
        for cell in self.cells:
            ref = PAPER_TABLE2.get(cell.group, {}).get(cell.config)
            copy = runs.get(f"{cell.group}/{RuntimeConfig.COPY.value}")
            run = runs.get(cell.label)
            if ref is None or copy is None or run is None:
                continue
            ratio = copy.elapsed_us / run.elapsed_us
            worst = max(worst, abs(ratio - ref) / ref)
            out.paper_refs += 1
        out.paper_err = worst


# ---------------------------------------------------------------------------
# the CI check path
# ---------------------------------------------------------------------------


class CheckSuite:
    """The CI ``mapcheck``/``check-static``/``check-fix`` commands."""

    engine = "fast"
    checked_engine: Optional[str] = None

    def __init__(self, name: str, scale: str, workdir: str):
        self.name = name
        self.scale = scale
        self.workdir = workdir

    def provenance(self) -> Dict[str, str]:
        return {"engine": self.engine, "fidelity": "test"}

    def setup(self) -> None:
        """Import the CLI and the check packages it loads on first use,
        and build the registry and corpus workloads once."""
        import repro.check.corpus as corpus
        import repro.check.sarif  # noqa: F401
        import repro.check.static.cost  # noqa: F401
        import repro.check.static.fix  # noqa: F401
        import repro.check.static.place  # noqa: F401
        import repro.check.static.race  # noqa: F401
        import repro.cli  # noqa: F401
        from repro.check.registry import make_workload
        from repro.workloads.base import Fidelity
        from repro.check import workload_names

        for name in workload_names():
            make_workload(name, Fidelity.TEST)
        for cls in {**corpus.CORPUS, **corpus.PERF_CORPUS}.values():
            cls()

    @property
    def race_target(self) -> str:
        return "all" if self.scale == "bench" else "triad"

    @property
    def fix_target(self) -> str:
        return "all" if self.scale == "bench" else "leak"

    def _commands(self, out_dir: str) -> List[Tuple[str, List[str], Optional[str]]]:
        from repro.check import workload_names

        targets = sorted(workload_names()) if self.scale == "bench" else ["triad"]

        def path(name: str) -> str:
            return os.path.join(out_dir, name)

        def per_target(label: str, argv: List[str], out_flag: Optional[str] = None):
            for t in targets:
                out = [out_flag, path(f"{label}-{t}.json")] if out_flag else []
                yield (f"{label}/{t}", ["check", t, *argv, *out],
                       out[1] if out else None)

        return [
            *per_target("static-perf", ["--static", "--perf"]),
            *per_target("perf-json", ["--static", "--perf", "--no-sim"], "--perf-json"),
            ("race-json", ["check", self.race_target, "--static", "--no-sim",
                           "--race-json", path("race.json")], path("race.json")),
            *per_target("place-json", ["--static", "--no-sim"], "--place-json"),
            ("fix-dry-run", ["check", self.fix_target, "--fix-dry-run",
                             "--fix-json", path("fix.json")], path("fix.json")),
        ]

    def run_pass(self, seed: int, engine: Optional[str] = None) -> PassResult:
        """The commands take no seed, and they run in the CI jobs' order:
        in one process, what an earlier command leaves in memory moves the
        later ones' time and the peak resident size."""
        import repro.cli

        out = PassResult()
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=self.workdir)
        try:
            for label, argv, json_path in self._commands(out_dir):
                t0 = time.perf_counter()
                self._run_command(out, label, argv + ["--jobs", "1"], json_path,
                                  repro.cli.main)
                out.cell_s[label] = time.perf_counter() - t0
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out

    def _run_command(self, out: PassResult, label: str, argv: List[str],
                     json_path: Optional[str], main) -> None:
        out.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
        except (Exception, SystemExit) as exc:  # a failing command is a counted failure
            out.fail(f"{label}: {type(exc).__name__}: {exc}")
            return
        record = {"rc": rc, "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
        payload = None
        if json_path is not None:
            with open(json_path) as fh:
                payload = json.load(fh)
            record["json"] = hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode()).hexdigest()
        out.records[label] = record
        # the fix JSON of a single corpus entry is that entry's result,
        # which carries a status but no differential ``ok`` flag
        single_fix = label == "fix-dry-run" and self.fix_target != "all"
        if rc != 0:
            out.fail(f"{label}: exit status {rc}")
        elif payload is not None and not single_fix and payload.get("ok") is not True:
            out.fail(f"{label}: differential not ok")
        if label.startswith(("perf-json/", "place-json/")) and payload is not None:
            out.kernels += sum(c["measured"].get("kernels", 0) for c in payload["cells"])
        if label == "fix-dry-run" and payload is not None:
            entries = {self.fix_target: payload} if single_fix else payload["workloads"]
            self._fix_entries(out, entries)

    @staticmethod
    def _fix_entries(out: PassResult, entries: Dict[str, dict]) -> None:
        """Every corpus entry is an operation: it must land on its pinned
        remediation class."""
        from repro.check.static.fix.differential import EXPECTED_STATUS

        for short, res in entries.items():
            out.attempted += 1
            expected = EXPECTED_STATUS.get(short)
            if res.get("status") != expected:
                out.fail(f"fix {short}: status {res.get('status')!r}, expected {expected!r}")


WORKLOADS = ("fig3-qmcpack", "table2-specaccel", "check-ci")


def make_suite(name: str, scale: str, workdir: str):
    if name == "fig3-qmcpack":
        return Fig3Suite(name, scale)
    if name == "table2-specaccel":
        return Table2Suite(name, scale)
    if name == "check-ci":
        return CheckSuite(name, scale, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
