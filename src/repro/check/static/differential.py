"""The static-vs-dynamic differential harness every static family uses.

Each static family's correctness argument is empirical: its predictions
are checked against simulation.  Two shared parts carry the checks:

* **The recall pass** (:func:`recall_pass`, faulty corpus).  Every entry
  of :data:`repro.check.corpus.CORPUS` is simulated once with the
  dynamic analyses, then analyzed statically.  Each dynamic finding
  whose defect family has a static counterpart rule must be matched by
  a static finding with the same family and buffer
  (:class:`MatchRecord`).  MapFlow (:func:`static_dynamic_differential`)
  gates every record; MapRace (:mod:`.race.differential`) gates the
  MC-R01/MC-R02 slice.
* **The counter cell** (:class:`CounterCell`, clean registry).  One
  predicted-vs-measured comparison, under a two-tier contract: the
  ``EXACT_KEYS`` (HSA call counts by API name, map-op counts, kernel
  launches) are bit-exact; the ``BOUNDED_KEYS`` (plus MapPlace's
  ``PLACE_BOUNDED_KEYS`` when the cell has a placement spec) must
  contain the measured value; any other traced key that is nonzero
  fails, so new simulator emission cannot drift past the predictor.
  :func:`counter_differential` sweeps the cells for MapCost (one socket,
  measured on :class:`~repro.core.system.ApuSystem`) and MapPlace (one
  cell per socket of a :class:`~repro.multisocket.card.ApuCard`), and
  both measure through the one :func:`harvest`.

The static phase of every family is genuinely static: no
:class:`~repro.core.system.ApuSystem` may be constructed and no
simulation event may fire while it runs (:func:`_forbid_simulation`
poisons the constructor for the duration).  On the clean registry,
MapFlow must emit zero findings.

Every family result exposes ``ok``, ``render()`` (whose last line is
the verdict) and ``to_dict()`` (the JSON the CLI writes).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)

from ...core.config import ALL_CONFIGS, RuntimeConfig
from ...core.params import CostModel
from ...workloads.base import Fidelity
from ..corpus import CORPUS
from ..findings import Finding, RULES
from ..registry import WORKLOADS, make_workload, static_counterparts
from .extract import extract_workload
from .rules import analyze_named, static_report

if TYPE_CHECKING:  # pragma: no cover
    from .cost.walker import CostPrediction
    from .place.model import PlaceSpec

__all__ = [
    "CounterCell",
    "CounterDifferentialResult",
    "DifferentialResult",
    "MatchRecord",
    "counter_differential",
    "harvest",
    "recall_pass",
    "static_dynamic_differential",
]


class _SimulationForbidden(AssertionError):
    pass


@contextlib.contextmanager
def _forbid_simulation() -> Iterator[None]:
    """Poison ``ApuSystem.__init__`` so any attempt to simulate during a
    static pass fails loudly instead of silently degrading the claim."""
    from ...core import system as system_mod

    original = system_mod.ApuSystem.__init__

    def poisoned(self, *args, **kwargs):  # pragma: no cover - must not run
        raise _SimulationForbidden(
            "static analysis path instantiated ApuSystem"
        )

    system_mod.ApuSystem.__init__ = poisoned
    try:
        yield
    finally:
        system_mod.ApuSystem.__init__ = original


def _names(names: Optional[Sequence[str]]) -> List[str]:
    return list(names) if names is not None else sorted(WORKLOADS)


# ---------------------------------------------------------------------------
# the recall pass
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MatchRecord:
    """One dynamic finding and how the static side answered it."""

    corpus_name: str
    dynamic_rule: str
    buffer: str
    family: str
    static_rule: Optional[str]    #: the matching static finding's rule id

    @property
    def matched(self) -> bool:
        return self.static_rule is not None

    def render(self) -> str:
        verdict = (f"matched by {self.static_rule}" if self.matched
                   else "UNMATCHED")
        return (f"  {self.corpus_name:<22} {self.dynamic_rule} "
                f"{self.buffer!r:<14} ({self.family}) -> {verdict}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "corpus": self.corpus_name,
            "dynamic_rule": self.dynamic_rule,
            "buffer": self.buffer,
            "family": self.family,
            "static_rule": self.static_rule,
            "matched": self.matched,
        }


def _match(dynamic: Finding, static_findings: List[Finding]) -> Optional[str]:
    family = RULES[dynamic.rule_id].family
    for sf in static_findings:
        if RULES[sf.rule_id].family == family and sf.buffer == dynamic.buffer:
            return sf.rule_id
    return None


def recall_pass() -> Tuple[List[MatchRecord], Dict[str, str]]:
    """Simulate each corpus entry once and match every dynamic finding in
    static scope; returns ``(records, aborts)``, where ``aborts`` maps a
    corpus workload to its static extraction/analysis abort message."""
    from ..runner import check_workload

    records: List[MatchRecord] = []
    aborts: Dict[str, str] = {}
    for name, cls in CORPUS.items():
        dynamic = check_workload(cls, cls.name, cross_check=False)
        with _forbid_simulation():
            static = static_report(cls(), cls.name)
        if static.aborted:
            aborts[cls.name] = static.aborted
            continue
        for f in dynamic.findings:
            if not static_counterparts(f.rule_id):
                continue  # family out of static scope (content, config)
            records.append(MatchRecord(
                corpus_name=name,
                dynamic_rule=f.rule_id,
                buffer=f.buffer,
                family=RULES[f.rule_id].family,
                static_rule=_match(f, static.findings),
            ))
    return records, aborts


@dataclass
class DifferentialResult:
    """Recall records plus the clean-registry precision side."""

    title = "static/dynamic differential"

    #: dynamic findings with static counterparts, matched or not
    records: List[MatchRecord] = field(default_factory=list)
    #: clean workload name -> static findings (any entry is a failure)
    false_positives: Dict[str, List[Finding]] = field(default_factory=dict)
    #: workload name -> static extraction/analysis abort message
    aborts: Dict[str, str] = field(default_factory=dict)

    @property
    def unmatched(self) -> List[MatchRecord]:
        return [r for r in self.records if not r.matched]

    @property
    def ok(self) -> bool:
        return (not self.unmatched and not self.false_positives
                and not self.aborts)

    def _precision_lines(self) -> List[str]:
        if not self.false_positives:
            return []
        lines = ["false positives on clean workloads:"]
        for name, findings in sorted(self.false_positives.items()):
            for f in findings:
                lines.append(f"  {name:<18} {f.rule_id} {f.buffer!r}")
        return lines

    def render(self) -> str:
        lines = [self.title, "-" * 60]
        lines.extend(r.render() for r in self.records)
        lines.extend(self._precision_lines())
        if self.aborts:
            lines.append("static analysis aborts:")
            for name, msg in sorted(self.aborts.items()):
                lines.append(f"  {name:<18} {msg}")
        lines.append(
            f"result: {'OK' if self.ok else 'FAIL'} "
            f"({len(self.records)} in-scope dynamic finding(s), "
            f"{len(self.unmatched)} unmatched, "
            f"{sum(len(v) for v in self.false_positives.values())} "
            "false positive(s))"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "records": [r.to_dict() for r in self.records],
            "false_positives": {
                name: [{"rule": f.rule_id, "buffer": f.buffer}
                       for f in findings]
                for name, findings in sorted(self.false_positives.items())
            },
            "aborts": dict(self.aborts),
        }


def static_dynamic_differential(
    *,
    corpus: bool = True,
    clean: bool = True,
    fidelity: Fidelity = Fidelity.TEST,
) -> DifferentialResult:
    """Run MapFlow's two-sided differential; see the module docstring."""
    result = DifferentialResult()
    if corpus:
        result.records, result.aborts = recall_pass()
    if clean:
        with _forbid_simulation():
            for name in sorted(WORKLOADS):
                report = analyze_named(name, fidelity)
                if report.aborted:
                    result.aborts[name] = report.aborted
                elif report.findings:
                    result.false_positives[name] = list(report.findings)
    return result


# ---------------------------------------------------------------------------
# the counter cell
# ---------------------------------------------------------------------------
def harvest(trace, ledger, counters: Mapping[str, int]) -> Dict[str, int]:
    """Measured counters of one simulated run: HSA calls by API name from
    the trace, map ops/kernels/bytes from the ledger, and the driver and
    placement page counters the caller picked into ``counters``."""
    from .cost.model import HSA_KEYS

    measured = {name: trace.count(name) for name in HSA_KEYS}
    for name in trace.names():
        measured.setdefault(name, trace.count(name))
    measured.update({
        "map_enters": ledger.n_map_enters,
        "map_exits": ledger.n_map_exits,
        "kernels": ledger.n_kernels,
        "h2d_bytes": ledger.h2d_bytes,
        "d2h_bytes": ledger.d2h_bytes,
        "shadow_bytes": ledger.shadow_bytes,
    })
    measured.update(counters)
    return measured


@dataclass
class CounterCell:
    """Predicted vs. measured counters for one (workload, config) cell,
    or for one socket of a (workload, config, placement spec) cell."""

    workload: str
    config: RuntimeConfig
    prediction: "CostPrediction"
    measured: Dict[str, int] = field(default_factory=dict)
    spec: Optional["PlaceSpec"] = None
    socket: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def keys(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """``(exact, bounded)`` counter keys of this cell's contract."""
        from .cost.model import BOUNDED_KEYS, EXACT_KEYS
        from .place.model import PLACE_BOUNDED_KEYS

        if self.spec is None:
            return EXACT_KEYS, BOUNDED_KEYS
        return EXACT_KEYS, BOUNDED_KEYS + PLACE_BOUNDED_KEYS

    def check(self) -> "CounterCell":
        exact, bounded = self.keys
        for key in exact:
            iv = self.prediction.interval(key)
            got = self.measured.get(key, 0)
            if not iv.is_exact or iv.lo != got:
                self.mismatches.append(
                    f"{key}: predicted {iv}, measured {got} (exact contract)"
                )
        for key in bounded:
            iv = self.prediction.interval(key)
            got = self.measured.get(key, 0)
            if not iv.contains(got):
                self.mismatches.append(
                    f"{key}: predicted {iv} does not contain measured {got}"
                )
        for key in sorted(set(self.measured) - set(exact) - set(bounded)):
            if self.measured[key]:
                self.mismatches.append(
                    f"simulation traced {key!r} ({self.measured[key]}x), "
                    "which the cost model does not predict"
                )
        return self

    def render(self) -> str:
        where = ("" if self.spec is None
                 else f"{self.spec.label():<22} s{self.socket} ")
        head = (
            f"{self.workload:<18} {self.config.value:<22} {where}"
            f"{'ok' if self.ok else 'FAIL'}"
        )
        return head + "".join(f"\n    {m}" for m in self.mismatches)

    def to_dict(self) -> Dict[str, object]:
        exact, bounded = self.keys
        predicted = {}
        for key in exact + bounded:
            iv = self.prediction.interval(key)
            predicted[key] = [iv.lo, iv.hi]
        return {
            "workload": self.workload,
            "config": self.config.value,
            "spec": None if self.spec is None else self.spec.label(),
            "socket": self.socket,
            "ok": self.ok,
            "predicted": predicted,
            "notes": list(self.prediction.notes),
            "measured": dict(self.measured),
            "mismatches": list(self.mismatches),
        }


@dataclass
class CounterDifferentialResult:
    """A full counter sweep: every cell plus a lint false-positive gate."""

    family: str                   #: "cost" or "place"
    cells: List[CounterCell] = field(default_factory=list)
    #: lint findings on the clean registry — must be empty
    false_positives: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.false_positives and all(c.ok for c in self.cells)

    def render(self) -> str:
        lines = [c.render() for c in self.cells]
        for f in self.false_positives:
            lines.append(
                f"FALSE POSITIVE {f.rule_id} on clean workload "
                f"{f.workload!r} ({f.buffer})"
            )
        n_fail = sum(1 for c in self.cells if not c.ok)
        lines.append(
            f"{self.family} differential: "
            f"{len(self.cells) - n_fail}/{len(self.cells)} "
            f"cells ok, {len(self.false_positives)} lint false positive(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "n_cells": len(self.cells),
            "false_positives": [
                {"rule": f.rule_id, "workload": f.workload, "buffer": f.buffer}
                for f in self.false_positives
            ],
            "cells": [c.to_dict() for c in self.cells],
        }


def counter_differential(
    family: str,
    names: Optional[Sequence[str]],
    *,
    predict: Callable[..., List["CostPrediction"]],
    measure: Callable[..., List[Dict[str, int]]],
    points: Sequence[Optional["PlaceSpec"]] = (None,),
    lint: Optional[Callable[..., List[Finding]]] = None,
    fidelity: Fidelity = Fidelity.TEST,
    configs: Sequence[RuntimeConfig] = ALL_CONFIGS,
    cost: Optional[CostModel] = None,
) -> CounterDifferentialResult:
    """Sweep every (workload, config, point) cell.

    ``predict(ir, env, spec)`` and ``measure(workload, config, spec,
    cost)`` each return one entry per socket.  The static phase
    (extraction, ``lint`` over each IR, and ``predict`` for every
    configuration and point) runs with ``ApuSystem`` poisoned; only then
    does the measured phase simulate each cell."""
    from .cost.model import CostEnv

    names = _names(names)
    result = CounterDifferentialResult(family)
    predictions: Dict[tuple, List["CostPrediction"]] = {}
    with _forbid_simulation():
        for name in names:
            ir = extract_workload(make_workload(name, fidelity), name=name)
            if lint is not None:
                result.false_positives.extend(lint(ir))
            for config in configs:
                env = CostEnv.for_config(config, cost)
                for spec in points:
                    predictions[name, config, spec] = predict(ir, env, spec)
    for name in names:
        for config in configs:
            for spec in points:
                per_socket = measure(
                    make_workload(name, fidelity), config, spec, cost
                )
                preds = predictions[name, config, spec]
                for socket, measured in enumerate(per_socket):
                    result.cells.append(CounterCell(
                        workload=name,
                        config=config,
                        prediction=preds[socket],
                        measured=measured,
                        spec=spec,
                        socket=socket,
                    ).check())
    return result
