"""Interval-run edge cases for the range-based page table.

The run engine must be observably indistinguishable from the historical
flat-dict table (kept as ``FlatPageTable``): same per-page counters, same
per-origin histograms, same error contracts.  These tests pin the tricky
extent arithmetic — merging, splitting, unaligned ends — plus the
randomized differential.
"""

import pytest

from repro.experiments.bench import pagetable_parity
from repro.memory import (
    PAGE_2M,
    AddressRange,
    FlatPageTable,
    MapOrigin,
    PageTable,
)

P = PAGE_2M


def rng_pages(first_page: int, n: int) -> AddressRange:
    return AddressRange(first_page * P, n * P)


# ---------------------------------------------------------------------------
# batched install + coalescing
# ---------------------------------------------------------------------------


def test_install_range_batched():
    pt = PageTable(P)
    n = pt.install_range(rng_pages(2, 4), [10, 11, 12, 13], MapOrigin.PREFAULT)
    assert n == 4
    assert len(pt) == 4
    assert pt.install_count == 4
    assert pt.run_count == 1
    assert pt.lookup(3 * P).frame == 11


def test_adjacent_runs_merge():
    pt = PageTable(P)
    pt.install_range(rng_pages(0, 2), [1, 2], MapOrigin.BULK_ALLOC)
    pt.install_range(rng_pages(2, 2), [3, 4], MapOrigin.BULK_ALLOC)
    assert pt.run_count == 1
    assert pt.frames_for(rng_pages(0, 4)) == [1, 2, 3, 4]
    # filling a hole merges three extents into one
    pt2 = PageTable(P)
    pt2.install_range(rng_pages(0, 1), [1], MapOrigin.PREFAULT)
    pt2.install_range(rng_pages(2, 1), [3], MapOrigin.PREFAULT)
    assert pt2.run_count == 2
    pt2.install_range(rng_pages(1, 1), [2], MapOrigin.PREFAULT)
    assert pt2.run_count == 1
    assert pt2.frames_for(rng_pages(0, 3)) == [1, 2, 3]


def test_adjacent_runs_with_different_origins_stay_separate():
    pt = PageTable(P)
    pt.install_range(rng_pages(0, 2), [1, 2], MapOrigin.XNACK_REPLAY)
    pt.install_range(rng_pages(2, 2), [3, 4], MapOrigin.PREFAULT)
    assert pt.run_count == 2
    hist = pt.origins_histogram()
    assert hist[MapOrigin.XNACK_REPLAY] == 2
    assert hist[MapOrigin.PREFAULT] == 2


def test_install_range_overlap_rejected_atomically():
    pt = PageTable(P)
    pt.install_range(rng_pages(3, 2), [1, 2], MapOrigin.OS_TOUCH)
    with pytest.raises(KeyError):
        pt.install_range(rng_pages(1, 4), [9, 9, 9, 9], MapOrigin.OS_TOUCH)
    # nothing was half-installed
    assert len(pt) == 2
    assert pt.missing_pages(rng_pages(1, 2)) == [1 * P, 2 * P]


def test_install_range_frame_count_mismatch():
    pt = PageTable(P)
    with pytest.raises(ValueError):
        pt.install_range(rng_pages(0, 3), [1, 2], MapOrigin.OS_TOUCH)


def test_unaligned_range_ends_round_to_pages():
    pt = PageTable(P)
    # 2.5 pages starting mid-page 1 -> covers pages 1..3 inclusive
    rng = AddressRange(P + 100, 2 * P + P // 2)
    assert rng.n_pages(P) == 3
    pt.install_range(rng, [7, 8, 9], MapOrigin.OS_TOUCH)
    assert pt.present_pages(rng_pages(0, 5)) == [P, 2 * P, 3 * P]
    assert pt.coverage(rng) == (3, 0)
    # a sub-page probe still sees the covering page
    assert pt.coverage(AddressRange(3 * P + 5, 10)) == (1, 0)


def test_zero_length_range_is_a_noop():
    pt = PageTable(P)
    assert pt.install_range(AddressRange(0, 0), [], MapOrigin.OS_TOUCH) == 0
    assert pt.evict_range(AddressRange(0, 0)) == []
    assert pt.missing_runs(AddressRange(0, 0)) == []
    assert pt.coverage(AddressRange(0, 0)) == (0, 0)


# ---------------------------------------------------------------------------
# partial evict / splitting
# ---------------------------------------------------------------------------


def test_partial_evict_splits_run():
    pt = PageTable(P)
    pt.install_range(rng_pages(0, 5), [0, 1, 2, 3, 4], MapOrigin.BULK_ALLOC)
    evicted = pt.evict_range(rng_pages(2, 1))
    assert [e.frame for e in evicted] == [2]
    assert pt.run_count == 2
    assert pt.missing_pages(rng_pages(0, 5)) == [2 * P]
    assert pt.frames_for(rng_pages(0, 5)) == [0, 1, 3, 4]
    assert pt.evict_count == 1
    assert len(pt) == 4


def test_evict_range_spanning_multiple_runs():
    pt = PageTable(P)
    pt.install_range(rng_pages(0, 2), [0, 1], MapOrigin.XNACK_REPLAY)
    pt.install_range(rng_pages(4, 2), [4, 5], MapOrigin.PREFAULT)
    evicted = pt.evict_range(rng_pages(1, 4))  # tail of run 1, head of run 2
    assert [(e.frame, e.origin) for e in evicted] == [
        (1, MapOrigin.XNACK_REPLAY),
        (4, MapOrigin.PREFAULT),
    ]
    assert len(pt) == 2
    assert pt.frames_for(rng_pages(0, 6)) == [0, 5]


def test_evict_range_frames_batched():
    pt = PageTable(P)
    pt.install_range(rng_pages(0, 4), [9, 8, 7, 6], MapOrigin.BULK_ALLOC)
    n, frames = pt.evict_range_frames(rng_pages(1, 2))
    assert (n, frames) == (2, [8, 7])
    assert pt.evict_count == 2


def test_reinstall_after_evict():
    pt = PageTable(P)
    pt.install_range(rng_pages(0, 3), [1, 2, 3], MapOrigin.PREFAULT)
    pt.evict_range(rng_pages(1, 1))
    pt.install_range(rng_pages(1, 1), [99], MapOrigin.XNACK_REPLAY)
    assert pt.lookup(P).frame == 99
    assert pt.lookup(P).origin is MapOrigin.XNACK_REPLAY
    # split left/right extents kept their origin; the table re-coalesces
    # only same-origin neighbours
    assert pt.run_count == 3
    hist = pt.origins_histogram()
    assert hist[MapOrigin.PREFAULT] == 2
    assert hist[MapOrigin.XNACK_REPLAY] == 1
    assert pt.install_count == 4
    assert pt.evict_count == 1


# ---------------------------------------------------------------------------
# run-shaped queries
# ---------------------------------------------------------------------------


def test_missing_runs_coalesced():
    pt = PageTable(P)
    pt.install_range(rng_pages(2, 2), [1, 2], MapOrigin.OS_TOUCH)
    pt.install_range(rng_pages(6, 1), [3], MapOrigin.OS_TOUCH)
    gaps = pt.missing_runs(rng_pages(0, 8))
    assert [(g.start // P, g.n_pages(P)) for g in gaps] == [
        (0, 2),
        (4, 2),
        (7, 1),
    ]


def test_present_runs_clipped_to_probe():
    pt = PageTable(P)
    pt.install_range(rng_pages(0, 6), [0, 1, 2, 3, 4, 5], MapOrigin.PREFAULT)
    spans = pt.present_runs(rng_pages(2, 2))
    assert spans == [(2 * P, [2, 3], MapOrigin.PREFAULT)]


def test_unaligned_page_probe_misses():
    pt = PageTable(P)
    pt.install(0, 1, MapOrigin.OS_TOUCH)
    assert pt.lookup(123) is None
    assert not pt.present(123)
    with pytest.raises(KeyError):
        pt.evict(123)


# ---------------------------------------------------------------------------
# differential parity with the flat reference table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_randomized_parity_with_flat_table(seed):
    # each step also asserts the (install_count, evict_count) stamp moves
    # exactly when the table's contents do (per-range memos rely on it)
    assert pagetable_parity(seed=seed, rounds=250)


def test_histogram_parity_after_identical_op_sequence():
    runs, flat = PageTable(P), FlatPageTable(P)
    for pt in (runs, flat):
        pt.install_range(rng_pages(0, 4), [0, 1, 2, 3], MapOrigin.BULK_ALLOC)
        pt.install_range(rng_pages(4, 2), [4, 5], MapOrigin.XNACK_REPLAY)
        pt.evict_range(rng_pages(1, 2))
        pt.install_range(rng_pages(1, 1), [9], MapOrigin.PREFAULT)
    assert runs.origins_histogram() == flat.origins_histogram()
    assert runs.install_count == flat.install_count == 7
    assert runs.evict_count == flat.evict_count == 2
    assert sorted(runs.pages()) == sorted(flat.pages())
