"""Per-layer metrics of the traced run and what each one should move.

``LAYER_MAP`` is the prediction table every later performance change is
judged against: for each layer, its metrics, the end-to-end metric and
workload a change to that layer should move, and the workloads on which
it should stay flat.  ``PER_LAYER`` lists every metric with its unit and
direction, in the order ``BENCHMARK.json`` names them.

Counts are read at the layer boundaries the tracer wraps (call counts of
entry points) and from the public result objects those entry points
return: ``RunResult`` (``sim_events``, ``ledger``, ``hsa_trace``,
``peak_hbm_bytes``), the runtime's ``MacroStats``, ``CardResult`` and
the check and fix differential results.  All of them are deterministic.
Units starting with ``sim-`` are quantities of the simulated machine
(microseconds, bytes, MiB of HBM); ``s`` and ``us`` are host time.
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracer import LAYERS

MIB = 1024 * 1024

#: (layer, metrics, moves end-to-end metric on workload, stays flat on)
LAYER_MAP: Tuple[Tuple[str, Tuple[str, ...], str, str], ...] = (
    ("sim", ("sim.self_s", "sim.events", "sim.host_us_per_event"),
     "wall_s, kernels_per_s on fig3-qmcpack, table2-specaccel", "check-ci"),
    ("sim.resources", ("sim.resources.self_s", "sim.resources.acquires"),
     "wall_s on fig3-qmcpack (4-8 threads)", "table2-specaccel"),
    ("sim.macro", ("sim.macro.self_s", "sim.macro.ops_seen", "sim.macro.ops_replayed",
                   "sim.macro.replay_share", "sim.macro.divergences"),
     "- (its self time in the macro pass of fig3-qmcpack's traced run)",
     "wall_s on fig3-qmcpack (the fast engine bypasses it)"),
    ("core", ("core.self_s", "core.map_enters", "core.map_exits"),
     "wall_s on fig3-qmcpack", "check-ci"),
    ("omp", ("omp.self_s", "omp.kernels", "omp.wait_us"),
     "wall_s on fig3-qmcpack", "check-ci"),
    ("hsa", ("hsa.self_s", "hsa.async_copies", "hsa.signal_waits", "hsa.pool_allocs",
             "hsa.async_handlers", "hsa.copy_bytes", "hsa.queue_wait_us"),
     "wall_s on Copy cells of fig3-qmcpack, table2-specaccel", "check-ci"),
    ("driver", ("driver.self_s", "driver.fault_calls", "driver.faulted_pages",
                "driver.prefault_calls", "driver.mi_us"),
     "wall_s on table2-specaccel", "fig3-qmcpack"),
    ("memory", ("memory.self_s", "memory.pt_queries", "memory.pt_installs",
                "memory.pt_evicts", "memory.peak_hbm_mb"),
     "wall_s on check-ci (lookups, per-socket pools), table2-specaccel "
     "(installs/evicts)", "-"),
    ("trace", ("trace.self_s", "trace.records"),
     "peak_rss_mb on table2-specaccel", "-"),
    ("workloads", ("workloads.self_s",), "- (must stay flat)", "all"),
    ("experiments", ("experiments.self_s", "experiments.cells",
                     "experiments.paper_err", "experiments.paper_refs"),
     "setup_s, wall_s on all", "-"),
    ("multisocket", ("multisocket.self_s", "multisocket.card_cells",
                     "multisocket.remote_pages"),
     "wall_s on check-ci", "fig3-qmcpack, table2-specaccel"),
    ("check", ("check.dynamic.self_s", "check.extract.self_s", "check.interp.self_s",
               "check.cost.self_s", "check.race.self_s", "check.place.self_s",
               "check.fix.self_s", "check.findings", "check.fix.attempts",
               "check.fix.accept_ratio"),
     "wall_s on check-ci", "fig3-qmcpack, table2-specaccel"),
    ("harness", ("traced_wall_s", "trace_overhead_s", "unattributed.self_s"), "-", "-"),
)

#: host time is in ``s``/``us``; quantities of the simulated machine carry
#: a ``sim-`` unit (simulated microseconds, bytes, MiB of HBM)
_UNITS = {
    "self_s": ("s", "lower"),
    "host_us_per_event": ("us", "lower"),
    "replay_share": ("ratio", "higher"),
    "accept_ratio": ("ratio", "higher"),
    "ops_replayed": ("count", "higher"),
    "paper_err": ("ratio", "lower"),
    "paper_refs": ("count", "higher"),
    "peak_hbm_mb": ("sim-MiB", "lower"),
    "copy_bytes": ("sim-B", "lower"),
    "traced_wall_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def _unit(name: str) -> Tuple[str, str]:
    tail = name.rsplit(".", 1)[-1]
    if tail in _UNITS:
        return _UNITS[tail]
    if tail.endswith("_us"):
        return "sim-us", "lower"
    return "count", "lower"


#: (name, unit, better) for every per-layer metric
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (name, *_unit(name)) for _, names, _, _ in LAYER_MAP for name in names
)

#: per-layer metrics ``run.py`` fills in itself rather than from the tracer
DERIVED = ("experiments.paper_err", "experiments.paper_refs", "traced_wall_s",
           "trace_overhead_s")

_PT_QUERIES = ("lookup", "present", "missing_pages", "present_pages", "coverage",
               "missing_runs", "present_runs", "frames_for")


def observers(tracer) -> Dict[str, object]:
    """Post-call hooks reading counts from the public result objects."""
    c, peak = tracer.counters, tracer.maxima

    def add_trace(tr) -> None:
        c["hsa.async_copies"] += tr.count("memory_async_copy")
        c["hsa.signal_waits"] += tr.count("signal_wait_scacquire")
        c["hsa.pool_allocs"] += tr.count("memory_pool_allocate")
        c["hsa.async_handlers"] += tr.count("signal_async_handler")

    def add_ledger(lg) -> None:
        c["omp.kernels"] += lg.n_kernels
        c["omp.wait_us"] += lg.wait_us
        c["hsa.copy_bytes"] += lg.h2d_bytes + lg.d2h_bytes + lg.shadow_bytes
        c["driver.faulted_pages"] += lg.n_faulted_pages
        c["driver.mi_us"] += lg.mi_us

    def runtime_run(result, args, kwargs) -> None:
        runtime = args[0]
        c["sim.events"] += result.sim_events
        add_ledger(result.ledger)
        add_trace(result.hsa_trace)
        peak["memory.peak_hbm_mb"] = max(peak["memory.peak_hbm_mb"],
                                         result.peak_hbm_bytes / MIB)
        if runtime.macro is not None:
            st = runtime.macro.stats
            c["sim.macro.ops_seen"] += st.ops_seen
            c["sim.macro.ops_replayed"] += st.ops_replayed
            c["sim.macro.divergences"] += st.divergences

    def card_run(result, args, kwargs) -> None:
        c["multisocket.card_cells"] += 1
        c["sim.events"] += result.sim_events
        for lg in result.per_socket_ledgers:
            add_ledger(lg)
        for tr in result.per_socket_traces:
            add_trace(tr)
        for sock in result.per_socket_counters:
            c["multisocket.remote_pages"] += (sock.get("remote_fault_pages", 0)
                                              + sock.get("remote_kernel_pages", 0))

    def kernel_record(result, args, kwargs) -> None:
        c["hsa.queue_wait_us"] += args[1].queue_wait_us

    def check_all(result, args, kwargs) -> None:
        c["check.findings"] += sum(len(r.findings) for r in result)

    def fix_differential(result, args, kwargs) -> None:
        for res in result.results.values():
            c["check.fix.attempts"] += len(res.fixes) + len(res.rejected)
            c["check.fix.accepted"] += len(res.fixes)
            if res.report is not None:
                c["check.findings"] += len(res.report.findings)

    return {
        "repro.omp.runtime:OpenMPRuntime.run": runtime_run,
        "repro.multisocket.card:ApuCard.run_workload": card_run,
        "repro.trace.kernel_trace:KernelTrace.record": kernel_record,
        "repro.check.runner:check_all": check_all,
        "repro.check.static.fix.differential:fix_differential": fix_differential,
    }


def transforms(tracer) -> Dict[str, object]:
    """Argument rewrites so that code one layer hands to another runs under
    the layer that defines it: kernel bodies passed to ``OmpThread.target``,
    and the multi-socket card's cost adjusters stored on the runtime and
    the driver."""
    push, pop, layer_of_file = tracer.push, tracer.pop, tracer.layer_of_file

    def kernel(fn):
        layer = layer_of_file(fn.__code__.co_filename) if hasattr(fn, "__code__") \
            else "workloads"

        def traced_kernel(*a, **k):
            push(layer)
            try:
                return fn(*a, **k)
            finally:
                pop()
        return traced_kernel

    def target(args, kwargs):
        # OmpThread.target(self, name, compute_us, maps, fn, ...)
        runtime = args[0].rt
        if runtime.kernel_cost_adjuster is not None:
            runtime.kernel_cost_adjuster = tracer.wrap_hook(runtime.kernel_cost_adjuster)
        if kwargs.get("fn") is not None:
            kwargs = dict(kwargs, fn=kernel(kwargs["fn"]))
        elif len(args) > 4 and args[4] is not None:
            args = args[:4] + (kernel(args[4]),) + args[5:]
        return args, kwargs

    def service_faults(args, kwargs):
        kfd = args[0]
        if kfd.fault_cost_adjuster is not None:
            kfd.fault_cost_adjuster = tracer.wrap_hook(kfd.fault_cost_adjuster)
        return args, kwargs

    return {
        "repro.omp.api:OmpThread.target": target,
        "repro.driver.kfd:Kfd.service_xnack_faults": service_faults,
    }


def layer_metrics(before: dict, after: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from two tracer snapshots."""
    def delta(section: str, key: str) -> float:
        return after[section].get(key, 0) - before[section].get(key, 0)

    calls = {k: after["calls"][k] - before["calls"].get(k, 0) for k in after["calls"]}

    def count_method(prefix: str, *methods: str) -> int:
        total = 0
        for key, n in calls.items():
            module, qual = key.split(":", 1)
            if module.startswith(prefix) and qual.rsplit(".", 1)[-1] in methods:
                total += n
        return total

    out: Dict[str, float] = {name: 0 for name, _, _ in PER_LAYER if name not in DERIVED}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = delta("self_s", layer)
    out["unattributed.self_s"] = delta("self_s", "unattributed")
    out.update(after["counters"])
    out["sim.host_us_per_event"] = (
        out["sim.self_s"] * 1e6 / out["sim.events"] if out["sim.events"] else 0.0)
    out["sim.resources.acquires"] = count_method("repro.sim.resources", "acquire",
                                                 "try_acquire")
    seen = out.get("sim.macro.ops_seen", 0)
    out["sim.macro.replay_share"] = out.get("sim.macro.ops_replayed", 0) / seen if seen else 0.0
    out["core.map_enters"] = count_method("repro.core.policies", "map_enter_all")
    out["core.map_exits"] = count_method("repro.core.policies", "map_exit_all")
    out["driver.fault_calls"] = count_method("repro.driver", "service_xnack_faults")
    out["driver.prefault_calls"] = count_method("repro.driver", "prefault")
    out["memory.pt_queries"] = count_method("repro.memory.pagetable", *_PT_QUERIES)
    out["memory.pt_installs"] = count_method("repro.memory.pagetable", "install",
                                             "install_range")
    out["memory.pt_evicts"] = count_method("repro.memory.pagetable", "evict", "evict_range",
                                           "evict_range_frames")
    out["memory.peak_hbm_mb"] = after["maxima"].get("memory.peak_hbm_mb", 0.0)
    out["trace.records"] = count_method("repro.trace", "record")
    out["experiments.cells"] = count_method("repro.experiments.runner", "execute")
    attempts = out.get("check.fix.attempts", 0)
    out["check.fix.accept_ratio"] = (
        out.pop("check.fix.accepted", 0) / attempts if attempts else 0.0)
    return out
