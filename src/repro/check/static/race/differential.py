"""Static-race-vs-dynamic-detector differential: MapRace's validation.

Two sides, through the shared harness of :mod:`..differential`:

* **Recall** (faulty corpus): every finding the *dynamic* race detector
  (MC-R01/MC-R02) emits on :data:`repro.check.corpus.CORPUS` must be
  matched by a static finding with the same family and buffer.  These
  records are the race slice of the shared recall pass.
* **Precision** (clean registry, per configuration): zero static race
  findings on every clean workload under each of the four runtime
  configurations — one cell per ``(workload, config)`` pair, where a
  cell fails if any race finding exists at all (and, belt and braces,
  counts those that claim to break under that cell's configuration).

The static phase of both sides runs with ``ApuSystem.__init__``
poisoned, so a single simulation event fails the harness loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ....core.config import ALL_CONFIGS, RuntimeConfig
from ....workloads.base import Fidelity
from ...registry import make_workload
from ..differential import (
    DifferentialResult,
    _forbid_simulation,
    _names,
    recall_pass,
)
from ..extract import ExtractionError, extract_workload
from .rules import RACE_RULE_IDS, race_findings

__all__ = ["RaceCell", "RaceDifferentialResult", "race_differential"]

#: the dynamic race rules the recall side must answer statically
_DYNAMIC_RACE_RULES = ("MC-R01", "MC-R02")


@dataclass(frozen=True)
class RaceCell:
    """Static race findings for one clean ``(workload, config)`` cell."""

    workload: str
    config: RuntimeConfig
    findings: int                 #: any static race finding = failure
    breaking_here: int            #: findings whose matrix breaks this cell

    @property
    def ok(self) -> bool:
        return self.findings == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "config": self.config.value,
            "findings": self.findings,
            "breaking_here": self.breaking_here,
            "ok": self.ok,
        }


@dataclass
class RaceDifferentialResult(DifferentialResult):
    title = "static/dynamic race differential"

    cells: List[RaceCell] = field(default_factory=list)

    @property
    def false_positive_cells(self) -> List[RaceCell]:
        return [c for c in self.cells if not c.ok]

    def _precision_lines(self) -> List[str]:
        n_ok = len(self.cells) - len(self.false_positive_cells)
        lines = [f"clean sweep: {n_ok}/{len(self.cells)} (workload, config) "
                 "cells race-free"]
        for c in self.false_positive_cells:
            lines.append(
                f"  FP {c.workload:<18} {c.config.value:<22} "
                f"{c.findings} finding(s), {c.breaking_here} breaking here"
            )
        return lines

    def to_dict(self) -> Dict[str, object]:
        out = super().to_dict()
        out["cells"] = [c.to_dict() for c in self.cells]
        return out


def race_differential(
    names: Optional[Sequence[str]] = None,
    *,
    corpus: bool = True,
    clean: bool = True,
    fidelity: Fidelity = Fidelity.TEST,
) -> RaceDifferentialResult:
    """Run the two-sided race differential; the clean side sweeps
    ``names`` (default: every registry workload), the recall side the
    whole corpus."""
    result = RaceDifferentialResult()
    if corpus:
        records, result.aborts = recall_pass()
        result.records = [r for r in records
                          if r.dynamic_rule in _DYNAMIC_RACE_RULES]
    if clean:
        with _forbid_simulation():
            for name in _names(names):
                try:
                    ir = extract_workload(
                        make_workload(name, fidelity), name=name
                    )
                except ExtractionError as exc:  # pragma: no cover
                    result.aborts[name] = str(exc)
                    continue
                findings = [f for f in race_findings(ir)
                            if f.rule_id in RACE_RULE_IDS]
                if findings:
                    result.false_positives[name] = findings
                for config in ALL_CONFIGS:
                    result.cells.append(RaceCell(
                        workload=name,
                        config=config,
                        findings=len(findings),
                        breaking_here=sum(
                            1 for f in findings if config in f.breaks_under
                        ),
                    ))
    return result
