"""Tests for the multi-socket APU card model (repro.multisocket)."""

import numpy as np
import pytest

from repro.core import RuntimeConfig
from repro.core.config import ALL_CONFIGS
from repro.memory import MIB, PAGE_2M
from repro.memory.physical import OutOfMemoryError
from repro.multisocket import (
    ApuCard,
    FirstTouch,
    Interleave,
    PinnedHome,
    PlacementView,
    Topology,
    frame_owner,
)
from repro.multisocket.topology import _SocketMemory
from repro.omp import MapClause, MapKind


def simple_body(nbytes=8 * MIB, kernels=3, compute_us=100.0):
    def body(th, tid):
        x = yield from th.alloc(f"x{tid}", nbytes, payload=np.ones(8))
        yield from th.target_enter_data([MapClause(x, MapKind.TO)])
        for _ in range(kernels):
            yield from th.target(
                "k", compute_us,
                maps=[MapClause(x, MapKind.ALLOC)],
                fn=lambda a, g: a[f"x{tid}"].__imul__(2.0),
            )
        yield from th.target_exit_data([MapClause(x, MapKind.FROM)])
        return x.payload.copy()

    return body


def test_card_validation():
    with pytest.raises(ValueError):
        ApuCard(n_sockets=0)
    card = ApuCard(n_sockets=2)
    with pytest.raises(ValueError):
        card.run([(5, simple_body())])


def test_each_socket_has_its_own_device():
    card = ApuCard(n_sockets=2)
    res = card.run([(0, simple_body()), (1, simple_body())])
    assert res.per_socket_kernels == [3, 3]
    # each socket's GPU saw its own init images (3 copies each)
    for tr in res.per_socket_traces:
        assert tr.count("memory_async_copy") >= 3
    merged = res.merged_trace()
    assert merged.count("memory_async_copy") == sum(
        tr.count("memory_async_copy") for tr in res.per_socket_traces
    )


def test_numa_first_touch_places_frames_locally():
    card = ApuCard(n_sockets=2)
    owners = {}

    def body(th, tid):
        x = yield from th.alloc(f"x{tid}", 4 * PAGE_2M, payload=np.zeros(4))
        pte = card.cpu_pt.lookup(next(x.range.pages(PAGE_2M)))
        owners[tid] = frame_owner(pte.frame)
        yield from th.target("k", 10.0, maps=[MapClause(x, MapKind.TOFROM)])

    card.run([(0, body), (1, body)])
    assert owners == {0: 0, 1: 1}


def test_good_affinity_pays_no_remote_penalty():
    card = ApuCard(n_sockets=2)
    res = card.run([(0, simple_body()), (1, simple_body())])
    assert res.remote_page_fraction == 0.0


def test_cross_socket_offload_pays_penalty():
    """A thread whose memory is on socket 0 offloading to socket 1's GPU
    reads remote HBM for every page."""
    card = ApuCard(n_sockets=2)

    def bad_affinity(th, tid):
        # allocate via socket 0's arena regardless of where we offload
        rng = card.sockets[0].os_alloc.alloc(4 * PAGE_2M)
        from repro.memory.buffers import HostBuffer

        x = HostBuffer("x", rng, payload=np.ones(8))
        yield from th.target("k", 1000.0, maps=[MapClause(x, MapKind.TOFROM)])

    res = card.run([(1, bad_affinity)])
    assert res.remote_page_fraction == 1.0


def test_remote_penalty_slows_kernels():
    def run(plan_socket):
        card = ApuCard(n_sockets=2, remote_access_penalty=0.5)

        def body(th, tid):
            rng = card.sockets[0].os_alloc.alloc(4 * PAGE_2M)
            from repro.memory.buffers import HostBuffer

            x = HostBuffer("x", rng, payload=np.ones(8))
            for _ in range(10):
                yield from th.target(
                    "k", 1000.0, maps=[MapClause(x, MapKind.TOFROM)]
                )

        return card.run([(plan_socket, body)]).elapsed_us

    local, remote = run(0), run(1)
    # 10 kernels x 1000 us x 0.5 penalty, exactly
    assert remote - local == pytest.approx(10 * 1000.0 * 0.5, rel=0.05)


def test_host_free_shoots_down_every_socket():
    card = ApuCard(n_sockets=2)
    shootdowns = {}

    def body(th, tid):
        x = yield from th.alloc("x", 2 * PAGE_2M, payload=np.zeros(4))
        yield from th.target("k", 10.0, maps=[MapClause(x, MapKind.TOFROM)])
        yield from th.free(x)
        shootdowns[tid] = [s.driver.shootdowns for s in card.sockets]

    card.run([(0, body)], config=RuntimeConfig.IMPLICIT_ZERO_COPY)
    # socket 0 had translations to drop; socket 1's shootdown is a no-op
    # but was attempted (coherent invalidation goes card-wide)
    assert shootdowns[0][0] == 2


def test_functional_equivalence_across_sockets_and_configs():
    outs = {}
    for cfg in (RuntimeConfig.COPY, RuntimeConfig.IMPLICIT_ZERO_COPY):
        card = ApuCard(n_sockets=2)
        results = {}

        def body(th, tid, results=results):
            results[tid] = yield from simple_body()(th, tid)

        card.run([(0, body), (1, body)], config=cfg)
        outs[cfg] = results
    for tid in (0, 1):
        assert np.array_equal(
            outs[RuntimeConfig.COPY][tid],
            outs[RuntimeConfig.IMPLICIT_ZERO_COPY][tid],
        )


def test_sockets_run_concurrently():
    """Two sockets' kernels overlap: the card is genuinely parallel."""

    def run(n_sockets, plan):
        card = ApuCard(n_sockets=n_sockets)
        return card.run(plan).elapsed_us

    one = run(1, [(0, simple_body(kernels=10, compute_us=2000.0)),
                  (0, simple_body(kernels=10, compute_us=2000.0))])
    two = run(2, [(0, simple_body(kernels=10, compute_us=2000.0)),
                  (1, simple_body(kernels=10, compute_us=2000.0))])
    # same total work; two sockets at least as fast (more GPU capacity)
    assert two <= one + 1.0


# ---------------------------------------------------------------------------
# degenerate pin: a 1-socket card IS a plain ApuSystem
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
def test_one_socket_card_matches_plain_system(config):
    from repro.check.registry import make_workload
    from repro.core.params import CostModel
    from repro.core.system import ApuSystem
    from repro.omp.runtime import OpenMPRuntime
    from repro.workloads import Fidelity

    card = ApuCard(n_sockets=1, seed=0)
    card_res = card.run_workload(make_workload("triad", Fidelity.TEST), config)

    plain_wl = make_workload("triad", Fidelity.TEST)
    system = ApuSystem(cost=CostModel(), seed=0)
    runtime = OpenMPRuntime(system, config)
    prepare = getattr(plain_wl, "prepare", None)
    if prepare is not None:
        prepare(runtime)
    runtime.run(
        plain_wl.make_body(),
        n_threads=plain_wl.n_threads,
        outputs=plain_wl.outputs.values,
    )

    tr_card, tr_plain = card_res.per_socket_traces[0], system.hsa_trace
    assert {n: tr_card.count(n) for n in tr_card.names()} == {
        n: tr_plain.count(n) for n in tr_plain.names()
    }
    assert {n: tr_card.total_us(n) for n in tr_card.names()} == {
        n: tr_plain.total_us(n) for n in tr_plain.names()
    }
    assert card_res.per_socket_ledgers[0].summary() == runtime.ledger.summary()
    assert set(card_res.outputs) == set(plain_wl.outputs.values)
    for key, val in plain_wl.outputs.values.items():
        assert np.array_equal(card_res.outputs[key], val), key
    assert card_res.remote_page_fraction == 0.0


# ---------------------------------------------------------------------------
# placement policies through the card
# ---------------------------------------------------------------------------


def _page_owners(card, buf, n_pages):
    return [
        frame_owner(card.cpu_pt.lookup(page).frame)
        for page in list(buf.range.pages(PAGE_2M))[:n_pages]
    ]


def test_interleave_stripes_pages_across_sockets():
    card = ApuCard(n_sockets=2, placement="interleave")
    owners = {}

    def body(th, tid):
        x = yield from th.alloc("x", 4 * PAGE_2M, payload=np.zeros(4))
        owners["x"] = _page_owners(card, x, 4)
        yield from th.target("k", 10.0, maps=[MapClause(x, MapKind.TOFROM)])

    res = card.run([(0, body)])
    assert owners["x"] == [0, 1, 0, 1]
    # half of the kernel's pages were remote to socket 0
    assert res.remote_page_fraction == 0.5
    assert res.per_socket_counters[0]["remote_kernel_pages"] == 2
    assert res.per_socket_counters[0]["local_kernel_pages"] == 2


def test_pinned_home_places_everything_remote():
    card = ApuCard(n_sockets=2, placement="pinned:1")
    owners = {}

    def body(th, tid):
        x = yield from th.alloc("x", 4 * PAGE_2M, payload=np.zeros(4))
        owners["x"] = _page_owners(card, x, 4)
        yield from th.target("k", 10.0, maps=[MapClause(x, MapKind.TOFROM)])

    res = card.run([(0, body)])
    assert owners["x"] == [1, 1, 1, 1]
    assert res.remote_page_fraction == 1.0
    assert res.per_socket_counters[0]["remote_kernel_pages"] == 4


def test_remote_fault_surcharge_slows_zero_copy():
    def run(placement):
        card = ApuCard(n_sockets=2, placement=placement)

        def body(th, tid):
            x = yield from th.alloc("x", 8 * PAGE_2M, payload=np.ones(8))
            yield from th.target(
                "k", 100.0,
                maps=[MapClause(x, MapKind.ALLOC)],
                fn=lambda a, g: None,
            )

        return card.run([(0, body)], config=RuntimeConfig.IMPLICIT_ZERO_COPY)

    local, remote = run("first-touch"), run("pinned:1")
    assert local.per_socket_counters[0]["remote_fault_pages"] == 0
    assert remote.per_socket_counters[0]["remote_fault_pages"] == 8
    assert remote.elapsed_us > local.elapsed_us


def test_fault_surcharge_derived_from_link_parameters():
    topo = Topology(n_sockets=2, link_bandwidth_gbps=64.0, link_latency_us=0.8)
    expected = 2 * 0.8 + PAGE_2M / (64.0 * 1e3)
    assert topo.fault_extra_us_per_page(PAGE_2M) == pytest.approx(expected)
    override = Topology(n_sockets=2, remote_fault_extra_us_per_page=5.0)
    assert override.fault_extra_us_per_page(PAGE_2M) == 5.0


def test_noise_streams_are_per_socket_seeded():
    from repro.core.params import CostModel

    def run(seed):
        card = ApuCard(
            n_sockets=2, cost=CostModel().with_noise(), seed=seed
        )
        return card.run([(0, simple_body()), (1, simple_body())]).elapsed_us

    assert run(3) == run(3)
    assert run(3) != run(4)


# ---------------------------------------------------------------------------
# frame ownership: tagged pools, routed frees, spill and exhaustion
# ---------------------------------------------------------------------------


def _pools(n=2, frames=4):
    return [_SocketMemory(s, frames * PAGE_2M, PAGE_2M) for s in range(n)]


def test_placement_view_preserves_ownership_tags():
    pools = _pools()
    view = PlacementView(0, pools, Interleave())
    frames = view.alloc_frames(5)
    assert [frame_owner(f) for f in frames] == [0, 1, 0, 1, 0]
    # frees route each frame back to its owner, even from another socket
    other = PlacementView(1, pools, Interleave())
    other.free_frames(frames)
    assert all(p.frames_in_use == 0 for p in pools)


def test_socket_pool_rejects_foreign_frames():
    pools = _pools()
    foreign = pools[1].alloc_frame()
    with pytest.raises(ValueError):
        pools[0].free_frame(foreign)
    own = pools[0].alloc_frame()
    with pytest.raises(ValueError):
        pools[0].free_frames([own, foreign])
    # validation precedes mutation: nothing was freed
    assert pools[0].frames_in_use == 1 and pools[1].frames_in_use == 1
    with pytest.raises(ValueError):
        PlacementView(0, pools, FirstTouch()).free_frames([5 * (1 << 30)])


def test_first_touch_spills_then_exhausts():
    pools = _pools(n=2, frames=4)
    view = PlacementView(0, pools, FirstTouch())
    frames = view.alloc_frames(6)
    # own socket drained first, overflow lands on the neighbour
    assert [frame_owner(f) for f in frames] == [0, 0, 0, 0, 1, 1]
    with pytest.raises(OutOfMemoryError):
        view.alloc_frames(3)  # only 2 frames remain card-wide
    view.free_frames(frames)
    assert view.frames_free == 8 and view.frames_in_use == 0


def test_pinned_never_spills():
    pools = _pools(n=2, frames=4)
    view = PlacementView(0, pools, PinnedHome(1))
    view.alloc_frames(4)
    with pytest.raises(OutOfMemoryError):
        view.alloc_frames(1)  # home full; pinned must not spill
    assert pools[0].frames_free == 4  # the other socket was never touched


# ---------------------------------------------------------------------------
# kernel page telemetry: per run, and per range equal to per page
# ---------------------------------------------------------------------------


def test_consecutive_runs_report_per_run_telemetry():
    from repro.workloads import Fidelity, TriadStream

    card = ApuCard(n_sockets=2, placement="interleave")
    first, second = (
        card.run_workload(TriadStream(fidelity=Fidelity.TEST),
                          RuntimeConfig.IMPLICIT_ZERO_COPY)
        for _ in range(2)
    )
    assert first.per_socket_kernels == second.per_socket_kernels
    assert first.per_socket_counters[0]["remote_kernel_pages"] > 0
    assert second.per_socket_counters == first.per_socket_counters
    assert second.remote_page_fraction == first.remote_page_fraction


def _recount_pages(card, maps, socket):
    """Reference (local, remote) split: one CPU page-table lookup per
    page of every clause."""
    local = remote = 0
    for clause in maps:
        for page in clause.buffer.range.pages(card.cost.page_size):
            pte = card.cpu_pt.lookup(page)
            if pte is None:
                continue
            if frame_owner(pte.frame) == socket:
                local += 1
            else:
                remote += 1
    return local, remote


class _RecountingCard(ApuCard):
    """Checks every kernel's page accounting against the per-page recount."""

    launches = 0

    def _setup(self, config):
        runtimes = super()._setup(config)
        for s, rt in enumerate(runtimes):
            rt.kernel_cost_adjuster = self._recounting(s, rt.kernel_cost_adjuster)
        return runtimes

    def _recounting(self, socket, adjust):
        def checked(maps, compute_us):
            local, remote = _recount_pages(self, maps, socket)
            before = (self.local_kernel_pages[socket],
                      self.remote_kernel_pages[socket])
            out = adjust(maps, compute_us)
            assert (self.local_kernel_pages[socket] - before[0],
                    self.remote_kernel_pages[socket] - before[1]) == (local, remote)
            self.launches += 1
            return out

        return checked


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.value)
@pytest.mark.parametrize("n_sockets,placement",
                         [(2, "interleave"), (4, "pinned:1")])
@pytest.mark.parametrize("name", ["fault-storm", "alloc-churn"])
def test_range_split_matches_per_page_recount(name, n_sockets, placement, config):
    from repro.check.corpus import PERF_CORPUS
    from repro.check.registry import make_workload
    from repro.workloads import Fidelity

    workload = (PERF_CORPUS[name]() if name in PERF_CORPUS
                else make_workload(name, Fidelity.TEST))
    card = _RecountingCard(n_sockets=n_sockets, placement=placement)
    res = card.run_workload(workload, config)
    assert card.launches == sum(res.per_socket_kernels) > 0
    counters = res.per_socket_counters[0]
    assert counters["local_kernel_pages"] + counters["remote_kernel_pages"] > 0
    if placement.startswith("pinned"):
        assert counters["local_kernel_pages"] == 0


def test_range_split_follows_page_table_epoch():
    # live host buffers never lose pages and freed virtual ranges are
    # never reused, so only a direct call can show a stale split
    from types import SimpleNamespace

    card = ApuCard(n_sockets=2, placement="interleave")
    adjust = card._make_adjuster(0)
    rng = card.sockets[0].os_alloc.alloc(4 * PAGE_2M)
    maps = [SimpleNamespace(buffer=SimpleNamespace(range=rng))]

    def launch():
        expected = _recount_pages(card, maps, 0)
        before = (card.local_kernel_pages[0], card.remote_kernel_pages[0])
        adjust(maps, 10.0)
        got = (card.local_kernel_pages[0] - before[0],
               card.remote_kernel_pages[0] - before[1])
        assert got == expected
        return got

    assert launch() == launch() == (2, 2)
    card.sockets[0].os_alloc.free(rng)
    assert launch() == (0, 0)
