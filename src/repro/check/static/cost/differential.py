"""Static-cost-vs-simulation differential: MapCost's validation.

For every clean registry workload under every runtime configuration,
the cost walker's prediction (made with ``ApuSystem.__init__``
poisoned) is checked against one noise-free simulation under the
two-tier counter contract of :class:`~..differential.CounterCell`:
HSA call counts, map-op counts and kernel launches bit-exact; copy
bytes, prefaulted pages and first-touch fault pages inside the
predicted intervals; no unknown traced HSA API name.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ....core.config import ALL_CONFIGS, RuntimeConfig
from ....core.params import CostModel
from ....workloads.base import Fidelity
from ..differential import CounterDifferentialResult, counter_differential, harvest
from .walker import predict_costs

__all__ = ["cost_differential", "measure_costs"]


def measure_costs(workload, config: RuntimeConfig,
                  cost: Optional[CostModel] = None) -> Dict[str, int]:
    """Run one noise-free simulation and harvest the measured counters."""
    from ....core.system import ApuSystem
    from ....omp.runtime import OpenMPRuntime

    system = ApuSystem(cost=cost or CostModel(), seed=0)
    runtime = OpenMPRuntime(system, config)
    prepare = getattr(workload, "prepare", None)
    if prepare is not None:
        prepare(runtime)
    result = runtime.run(
        workload.make_body(),
        n_threads=workload.n_threads,
        outputs=workload.outputs.values,
    )
    return harvest(system.hsa_trace, result.ledger, {
        "pages_prefaulted": system.driver.pages_prefaulted,
        "pages_faulted": system.driver.xnack_faults_serviced,
    })


def cost_differential(
    names: Optional[Sequence[str]] = None,
    *,
    fidelity: Fidelity = Fidelity.TEST,
    configs: Sequence[RuntimeConfig] = ALL_CONFIGS,
    cost: Optional[CostModel] = None,
) -> CounterDifferentialResult:
    """Run the predicted-vs-measured sweep, one cell per (workload, config)."""
    return counter_differential(
        "cost", names,
        predict=lambda ir, env, _spec: [predict_costs(ir, env)],
        measure=lambda w, config, _spec, cost: [measure_costs(w, config, cost)],
        fidelity=fidelity, configs=configs, cost=cost,
    )
