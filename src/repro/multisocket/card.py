"""Multi-socket APU card model (paper §III.A + Inter-APU deep dive).

"APU sockets can be composed together in a multi-socket accelerator card,
where either CPU or GPU threads on a socket can access memory located in
a different socket.  GPUs in different sockets are seen by OpenMP as
multiple devices."  The paper's experiments are single-socket; this
module implements the composition it describes, so the two programming
patterns of §III.A can be studied:

* one OpenMP program with careful CPU/GPU affinity (a CPU thread on a
  socket offloads to that socket's GPU), or
* sloppy affinity, where kernels read remote-socket HBM and pay a NUMA
  penalty.

Model: one shared process address space (one CPU page table, one
simulation clock), per-socket HBM frame pools behind a pluggable
page-placement policy (first-touch, interleave, pinned-home — see
:mod:`repro.multisocket.topology`), and one GPU device (page table,
driver, HSA runtime, OpenMP runtime) per socket.  A kernel's compute
time is scaled by the fraction of its mapped pages whose frames live on
a remote socket (``remote_access_penalty``), and XNACK faults that
resolve to a remote socket's frames pay an extra per-page stall derived
from the :class:`~repro.multisocket.topology.Topology` link parameters
(via the driver's ``fault_cost_adjuster`` hook).

The card keeps per-socket telemetry — remote fault pages, remote/local
kernel page visits — that the static MapPlace analysis
(:mod:`repro.check.static.place`) predicts and the place differential
checks.  The kernel adjuster splits each mapped buffer range into
local and remote pages once per CPU page-table epoch (memoized per
range, invalidated when the table's ``(install_count, evict_count)``
stamp moves), so a launch costs O(clauses), not O(pages).  A 1-socket
card under the default first-touch placement is bit-identical to a
plain :class:`~repro.core.system.ApuSystem` run (pinned by
``tests/test_multisocket.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.config import RuntimeConfig
from ..core.params import CostModel
from ..driver.kfd import Kfd
from ..hsa.api import HsaRuntime
from ..memory.layout import HOST_HEAP_BASE, HOST_STACK_BASE, AddressRange
from ..memory.os_alloc import OsAllocator
from ..memory.pagetable import PageTable
from ..omp.api import OmpThread
from ..omp.mapping import MapClause
from ..omp.runtime import OpenMPRuntime
from ..sim import Environment, RngHub
from ..trace.hsa_trace import HsaTrace
from ..trace.kernel_trace import RunLedger
from .topology import (
    PlacementPolicy,
    PlacementView,
    Topology,
    _SocketMemory,
    frame_owner,
    make_placement,
)

__all__ = ["ApuCard", "SocketSystem", "CardResult", "frame_owner"]

#: VA window stride between sockets' OS allocators (they share one
#: process address space but carve disjoint arenas, like NUMA-aware
#: allocators do)
_VA_STRIDE = 1 << 42


@dataclass
class SocketSystem:
    """ApuSystem-shaped view of one socket (duck-typed for OpenMPRuntime)."""

    env: Environment
    cost: CostModel
    rng_hub: RngHub
    physical: _SocketMemory
    cpu_pt: PageTable
    gpu_pt: PageTable
    driver: Kfd
    os_alloc: OsAllocator
    hsa_trace: HsaTrace
    hsa: HsaRuntime


@dataclass
class CardResult:
    """Outcome of one multi-socket run."""

    n_sockets: int
    config: RuntimeConfig
    elapsed_us: float
    per_socket_traces: List[HsaTrace]
    per_socket_kernels: List[int]
    remote_page_fraction: float  #: mean over kernel launches
    per_socket_ledgers: List[RunLedger] = field(default_factory=list)
    #: per-socket counter dicts (driver counters + remote telemetry);
    #: the measured side of the MapPlace differential
    per_socket_counters: List[Dict[str, int]] = field(default_factory=list)
    outputs: Dict[str, object] = field(default_factory=dict)
    sim_events: int = 0

    def merged_trace(self) -> HsaTrace:
        out = HsaTrace()
        for tr in self.per_socket_traces:
            out = out.merge(tr)
        return out

    @property
    def remote_kernel_bytes(self) -> int:
        return sum(c.get("remote_kernel_bytes", 0) for c in self.per_socket_counters)


class ApuCard:
    """An N-socket MI300A card in one shared address space.

    ``topology`` (when given) wins over the ``n_sockets`` count;
    ``placement`` is a :class:`PlacementPolicy` or spec string
    (default first-touch, which reproduces the historical behavior);
    ``remote_access_penalty`` defaults to the topology's value.
    """

    def __init__(
        self,
        n_sockets: int = 2,
        cost: Optional[CostModel] = None,
        seed: int = 0,
        hbm_per_socket: Optional[int] = None,
        remote_access_penalty: Optional[float] = None,
        topology: Optional[Topology] = None,
        placement: Union[PlacementPolicy, str, None] = None,
    ):
        if topology is None:
            topology = Topology(n_sockets=n_sockets)
        if topology.n_sockets < 1:
            raise ValueError(f"n_sockets must be >= 1, got {topology.n_sockets}")
        if isinstance(placement, str) or placement is None:
            placement = make_placement(placement or "first-touch")
        self.cost = cost or CostModel()
        self.topology = topology
        self.placement = placement
        self.n_sockets = topology.n_sockets
        self.remote_access_penalty = (
            topology.remote_access_penalty
            if remote_access_penalty is None
            else remote_access_penalty
        )
        self.env = Environment()
        self.rng_hub = RngHub(seed)
        # one process: one CPU page table shared by every socket's cores
        self.cpu_pt = PageTable(self.cost.page_size, "cpu-pt")
        hbm = hbm_per_socket or self.cost.hbm_bytes
        # per-socket HBM pools first, so every socket's PlacementView can
        # route allocations across all of them
        pools = [
            _SocketMemory(s, hbm, self.cost.page_size)
            for s in range(self.n_sockets)
        ]
        self._reset_telemetry()
        self.sockets: List[SocketSystem] = []
        for s in range(self.n_sockets):
            physical = pools[s]
            gpu_pt = PageTable(self.cost.page_size, f"gpu-pt[{s}]")
            # the device pool (Copy's shadow allocations) stays on the
            # socket's own HBM: only host memory is placement-routed
            driver = Kfd(self.cost, physical, self.cpu_pt, gpu_pt)
            driver.fault_cost_adjuster = self._make_fault_adjuster(s)
            os_alloc = OsAllocator(
                PlacementView(s, pools, self.placement),
                self.cpu_pt,
                on_unmap=self._shootdown_all,
                heap_base=HOST_HEAP_BASE + s * _VA_STRIDE,
                stack_base=HOST_STACK_BASE + s * _VA_STRIDE,
            )
            trace = HsaTrace()
            hsa = HsaRuntime(
                self.env, self.cost, driver, trace, self.rng_hub.fork("socket", s)
            )
            self.sockets.append(
                SocketSystem(
                    env=self.env, cost=self.cost, rng_hub=self.rng_hub,
                    physical=physical, cpu_pt=self.cpu_pt, gpu_pt=gpu_pt,
                    driver=driver, os_alloc=os_alloc, hsa_trace=trace, hsa=hsa,
                )
            )
        self._runtimes: List[OpenMPRuntime] = []

    def _reset_telemetry(self) -> None:
        """Zero the per-socket telemetry (the measured side of MapPlace)."""
        self.remote_fault_pages = [0] * self.n_sockets
        self.remote_kernel_pages = [0] * self.n_sockets
        self.local_kernel_pages = [0] * self.n_sockets
        self._remote_samples: List[float] = []

    def _shootdown_all(self, rng: AddressRange) -> None:
        """Host unmap invalidates every socket's GPU translations."""
        for sock in self.sockets:
            sock.driver.mmu_unmap(rng)

    # ------------------------------------------------------------------
    def _make_fault_adjuster(self, socket: int) -> Callable:
        """XNACK services that resolve to a remote socket's frames pay
        the Infinity Fabric surcharge (link round trip + page transfer
        over the link) on top of the base fault cost."""
        extra = self.topology.fault_extra_us_per_page(self.cost.page_size)

        def adjust(installed_frames: Sequence[int], stall_us: float) -> float:
            n_remote = sum(1 for f in installed_frames if frame_owner(f) != socket)
            if n_remote:
                self.remote_fault_pages[socket] += n_remote
                stall_us += n_remote * extra
            return stall_us

        return adjust

    def _make_adjuster(self, socket: int) -> Callable:
        pt = self.cpu_pt
        #: (start, nbytes) -> (local, remote) translated pages, valid for
        #: one page-table epoch: any install or evict moves the stamp
        split: Dict[Tuple[int, int], Tuple[int, int]] = {}
        stamp = None

        def adjust(maps: Sequence[MapClause], compute_us: float) -> float:
            nonlocal stamp
            now = (pt.install_count, pt.evict_count)
            if now != stamp:
                split.clear()
                stamp = now
            remote = local = 0
            for clause in maps:
                rng = clause.buffer.range
                key = (rng.start, rng.nbytes)
                hit = split.get(key)
                if hit is None:
                    frames = pt.frames_for(rng)
                    n_local = sum(1 for f in frames if frame_owner(f) == socket)
                    hit = split[key] = (n_local, len(frames) - n_local)
                local += hit[0]
                remote += hit[1]
            self.remote_kernel_pages[socket] += remote
            self.local_kernel_pages[socket] += local
            total = remote + local
            if total == 0:
                return compute_us
            frac = remote / total
            self._remote_samples.append(frac)
            return compute_us * (1.0 + self.remote_access_penalty * frac)

        return adjust

    # ------------------------------------------------------------------
    def _setup(self, config: RuntimeConfig) -> List[OpenMPRuntime]:
        """Fresh per-socket OpenMP runtimes with kernel adjusters installed."""
        self._runtimes = [
            OpenMPRuntime(sock, config) for sock in self.sockets
        ]
        # telemetry is per run, like the fresh runtimes' ledgers
        self._reset_telemetry()
        for s, rt in enumerate(self._runtimes):
            rt.kernel_cost_adjuster = self._make_adjuster(s)
        return self._runtimes

    def run(
        self,
        thread_plan: Sequence[Tuple[int, Callable]],
        config: RuntimeConfig = RuntimeConfig.IMPLICIT_ZERO_COPY,
    ) -> CardResult:
        """Run ``(socket, body)`` pairs: each body is an OpenMP host
        thread pinned to a socket, offloading to that socket's GPU."""
        self._setup(config)
        return self._run(thread_plan, config)

    def run_workload(
        self,
        workload,
        config: RuntimeConfig = RuntimeConfig.IMPLICIT_ZERO_COPY,
        plan: Optional[Sequence[int]] = None,
    ) -> CardResult:
        """Run a registry :class:`~repro.workloads.base.Workload` on the
        card: ``plan[tid]`` pins host thread ``tid`` to a socket
        (default: everything on socket 0, the executing socket of the
        MapPlace differential).  Workload ``prepare`` (declare-target
        globals) flows through the first planned socket's runtime, so
        global allocations see the placement policy too.
        """
        if plan is None:
            plan = [0] * max(1, workload.n_threads)
        plan = list(plan)
        if not plan:
            raise ValueError("empty socket plan")
        self._setup(config)
        prepare = getattr(workload, "prepare", None)
        if prepare is not None:
            prepare(self._runtimes[plan[0]])
        body = workload.make_body()
        result = self._run([(s, body) for s in plan], config)
        result.outputs = dict(workload.outputs.values)
        return result

    def _run(
        self,
        thread_plan: Sequence[Tuple[int, Callable]],
        config: RuntimeConfig,
    ) -> CardResult:
        for socket, _ in thread_plan:
            if not 0 <= socket < self.n_sockets:
                raise ValueError(f"no socket {socket} on a {self.n_sockets}-socket card")
        env = self.env
        t0 = env.now
        # the drivers outlive a run: report this run's share of their counters
        base = [self._driver_counters(sock.driver) for sock in self.sockets]
        threads_per_socket: Dict[int, int] = {}
        for socket, _ in thread_plan:
            threads_per_socket[socket] = threads_per_socket.get(socket, 0) + 1

        def _main():
            # sockets boot their devices concurrently
            def _boot(s, rt):
                yield from rt._init_device()
                for _ in range(threads_per_socket.get(s, 0)):
                    yield from rt._init_thread_resources()

            boots = [
                env.process(_boot(s, rt), name=f"boot-socket{s}")
                for s, rt in enumerate(self._runtimes)
            ]
            for b in boots:
                yield b
            procs = []
            for tid, (socket, body) in enumerate(thread_plan):
                th = OmpThread(self._runtimes[socket], tid)
                procs.append(env.process(body(th, tid), name=f"sock{socket}-t{tid}"))
            for p in procs:
                yield p

        env.run(env.process(_main(), name="card-main"))
        samples = self._remote_samples
        return CardResult(
            n_sockets=self.n_sockets,
            config=config,
            elapsed_us=env.now - t0,
            per_socket_traces=[s.hsa_trace for s in self.sockets],
            per_socket_kernels=[rt.ledger.n_kernels for rt in self._runtimes],
            remote_page_fraction=(sum(samples) / len(samples)) if samples else 0.0,
            per_socket_ledgers=[rt.ledger for rt in self._runtimes],
            per_socket_counters=self._counters(base),
            sim_events=env.processed_events,
        )

    @staticmethod
    def _driver_counters(driver: Kfd) -> Dict[str, int]:
        return {
            "pages_prefaulted": driver.pages_prefaulted,
            "pages_faulted": driver.xnack_faults_serviced,
            "pages_bulk_mapped": driver.pages_bulk_mapped,
        }

    def _counters(self, base: List[Dict[str, int]]) -> List[Dict[str, int]]:
        out: List[Dict[str, int]] = []
        for s, sock in enumerate(self.sockets):
            counters = {
                k: v - base[s][k]
                for k, v in self._driver_counters(sock.driver).items()
            }
            counters.update({
                "remote_fault_pages": self.remote_fault_pages[s],
                "remote_kernel_pages": self.remote_kernel_pages[s],
                "local_kernel_pages": self.local_kernel_pages[s],
                "remote_kernel_bytes":
                    self.remote_kernel_pages[s] * self.cost.page_size,
            })
            out.append(counters)
        return out
