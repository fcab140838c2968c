"""Place differential: per-socket predicted counters vs. card telemetry.

The MapCost differential validates the single-socket cost walker; this
one extends it along the topology axis.  For every clean registry
workload, every runtime configuration and a set of (topology,
placement) analysis points, the MapPlace walker's per-socket prediction
(:func:`~.walker.predict_card`, made with ``ApuSystem.__init__``
poisoned) is checked against one noise-free
:class:`~repro.multisocket.card.ApuCard` simulation with every host
thread pinned to the executing socket.  Each socket is one
:class:`~..differential.CounterCell`: MapCost's two-tier contract, with
the remote/local placement counters added to the bounded tier.

The harness also carries the affinity-lint false-positive gate: under
the default first-touch analysis point the clean registry must produce
zero MC-A findings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ....core.config import ALL_CONFIGS, RuntimeConfig
from ....core.params import CostModel
from ....workloads.base import Fidelity
from ..differential import CounterDifferentialResult, counter_differential, harvest
from .model import PLACE_BOUNDED_KEYS, PlaceSpec
from .rules import place_findings
from .walker import predict_card

__all__ = ["DEFAULT_POINTS", "measure_place", "place_differential"]

#: default (topology, placement) sweep: no remote pages, a ~50/50 split,
#: and an everything-remote point on a wider card
DEFAULT_POINTS: Tuple[PlaceSpec, ...] = (
    PlaceSpec(n_sockets=2, placement="first-touch"),
    PlaceSpec(n_sockets=2, placement="interleave"),
    PlaceSpec(n_sockets=4, placement="pinned", home=1),
)


def measure_place(
    workload,
    config: RuntimeConfig,
    spec: PlaceSpec,
    cost: Optional[CostModel] = None,
) -> List[Dict[str, int]]:
    """Run one noise-free card simulation for an analysis point and
    harvest the measured counters of each socket."""
    from ....multisocket.card import ApuCard

    card = ApuCard(
        topology=spec.topology(),
        placement=spec.placement_spec(),
        cost=cost or CostModel(),
        seed=0,
    )
    res = card.run_workload(workload, config)
    keys = ("pages_prefaulted", "pages_faulted") + PLACE_BOUNDED_KEYS
    return [
        harvest(trace, ledger, {k: counters[k] for k in keys})
        for trace, ledger, counters in zip(
            res.per_socket_traces, res.per_socket_ledgers,
            res.per_socket_counters,
        )
    ]


def place_differential(
    names: Optional[Sequence[str]] = None,
    *,
    fidelity: Fidelity = Fidelity.TEST,
    configs: Sequence[RuntimeConfig] = ALL_CONFIGS,
    points: Sequence[PlaceSpec] = DEFAULT_POINTS,
    cost: Optional[CostModel] = None,
) -> CounterDifferentialResult:
    """Run the predicted-vs-measured sweep, one cell per socket of every
    (workload, config, analysis point)."""
    return counter_differential(
        "place", names,
        predict=predict_card, measure=measure_place, points=points,
        lint=lambda ir: place_findings(ir, PlaceSpec()),
        fidelity=fidelity, configs=configs, cost=cost,
    )
