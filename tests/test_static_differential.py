"""Static/dynamic differential harness (the tentpole acceptance gate).

Two sides, both load-bearing:

* recall — on the faulty corpus, every dynamic finding whose defect
  family has a static counterpart rule is matched by a static finding
  with the same family and buffer;
* precision — on the 11 clean registry workloads, MapFlow emits zero
  findings, and does so without instantiating :class:`ApuSystem` (the
  harness poisons the constructor, so one simulation event fails the
  test loudly).
"""

import pytest

from repro.check.corpus import CORPUS, LeakWorkload
from repro.check.registry import (
    RULE_FAMILIES,
    dynamic_counterparts,
    static_counterparts,
)
from repro.check.static import (
    race_differential,
    static_dynamic_differential,
    static_report,
)
from repro.check.static.differential import _forbid_simulation


def test_full_differential_passes():
    result = static_dynamic_differential()
    assert result.ok, result.render()
    # every in-scope dynamic rule family actually appears: the corpus
    # exercises refcount, leak, inflight-unmap and missing-map
    families = {r.family for r in result.records}
    assert families == {
        "refcount", "leak", "inflight-unmap", "missing-map",
        # MapRace pulled the dynamic race detector into static scope:
        # MC-R01/MC-R02 findings now have MC-S21/MC-S20 counterparts
        "map-race", "host-write-race",
    }
    # and each record names the static rule that answered it
    assert {r.static_rule for r in result.records} == {
        "MC-S10", "MC-S12", "MC-S11", "MC-P10", "MC-S21", "MC-S20"
    }
    # MapRace's recall side is the race slice of the same recall pass
    race = race_differential(clean=False).records
    assert race == [r for r in result.records
                    if r.dynamic_rule in ("MC-R01", "MC-R02")]
    assert len(race) == 4


def test_differential_clean_side_runs_zero_simulation():
    """The poison is armed during the clean sweep; a passing result is
    the proof no ApuSystem was built on the static path."""
    result = static_dynamic_differential(corpus=False)
    assert result.ok, result.render()
    assert result.records == []            # corpus side skipped


def test_forbid_simulation_poison_actually_fires():
    from repro.core.system import ApuSystem

    with _forbid_simulation(), \
            pytest.raises(AssertionError, match="instantiated ApuSystem"):
        ApuSystem()
    # and is restored afterwards
    ApuSystem()


def test_static_analysis_works_under_the_poison():
    with _forbid_simulation():
        report = static_report(LeakWorkload(), "faulty-leak")
    assert [f.rule_id for f in report.findings] == ["MC-S12"]


def test_every_static_rule_has_a_dynamic_counterpart_and_vice_versa():
    for static_rule in ("MC-S10", "MC-S11", "MC-S12", "MC-P10",
                        "MC-S20", "MC-S21"):
        assert dynamic_counterparts(static_rule), static_rule
    # the race families are now *in* scope: the dynamic detectors have
    # static twins, so the differential demands a static match for them
    assert static_counterparts("MC-R01") == ("MC-S21",)
    assert static_counterparts("MC-R02") == ("MC-S20",)
    # MC-S22 is static-only: no dynamic rule observes the missing wait
    # (the dynamic side sees it as a leak/teardown symptom instead)
    assert dynamic_counterparts("MC-S22") == ()
    assert static_counterparts("MC-S22") == ()
    # families wholly out of static scope stay out
    for family in ("stale-global", "missing-from", "config-divergence",
                   "always-misuse"):
        for rid in RULE_FAMILIES[family]:
            assert static_counterparts(rid) == ()


def test_corpus_is_complete_and_importable():
    # one entry per canonical defect; all constructible with no args
    assert len(CORPUS) == 15
    for name, cls in CORPUS.items():
        w = cls()
        assert w.name.startswith("faulty-"), name
