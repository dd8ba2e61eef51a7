"""The benchmark's workloads: one experiment configuration per name.

Every workload runs the same two policies on one synthesised environment:
``random`` (the paper's baseline) and ``venn``.  Only public configuration
types are used, and the engine is left at its defaults: the simulation
config a workload hands the engine sets horizon and seed and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.experiments.config import ExperimentConfig, large_config
from repro.sim.engine import SimulationConfig
from repro.traces.device_trace import DAY, DiurnalConfig
from repro.traces.workloads import WorkloadConfig

#: Policies every workload runs, baseline first.
POLICIES: Tuple[str, ...] = ("random", "venn")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` selects how jobs are sized: ``"paper"`` is the ``large``
    experiment preset unchanged, and ``"fleet"`` gives a few small jobs so
    many rounds that they run to the horizon on a pool with far more supply
    than demand.
    """

    name: str
    why: str
    kind: str
    num_devices: int
    num_jobs: int
    horizon: float

    def experiment_config(self, seed: int) -> ExperimentConfig:
        """The environment (devices, availability, jobs) for one seed."""
        if self.kind == "paper":
            return replace(
                large_config(seed),
                num_devices=self.num_devices,
                num_jobs=self.num_jobs,
                horizon=self.horizon,
            )
        if self.kind != "fleet":
            raise ValueError(f"unknown workload kind {self.kind!r}")
        demand = max(2, self.num_devices // 5000)
        # Few devices per round and more rounds than a day allows: the run
        # always reaches the horizon, so its length does not depend on when
        # the last job happens to finish.
        workload = WorkloadConfig(
            num_jobs=self.num_jobs,
            min_demand=demand,
            max_demand=demand,
            min_rounds=1000,
            max_rounds=1000,
            mean_interarrival=600.0,
        )
        return ExperimentConfig(
            name=self.name,
            seed=seed,
            num_devices=self.num_devices,
            num_jobs=self.num_jobs,
            horizon=self.horizon,
            workload=workload,
            availability=DiurnalConfig(horizon=self.horizon),
        )

    def simulation_config(self, config: ExperimentConfig) -> SimulationConfig:
        """Engine config: defaults, except the horizon and the seed."""
        return SimulationConfig(
            horizon=config.horizon, seed=config.seed_for("simulation")
        )

    def scaled(self, factor: float) -> "Workload":
        """A smaller copy (devices and jobs scaled by ``factor``)."""
        return replace(
            self,
            num_devices=max(200, int(self.num_devices * factor)),
            num_jobs=max(4, int(self.num_jobs * factor)),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_large",
            why=(
                "the paper's Table-1 comparison at the large preset: 100 jobs "
                "over 4 days keep decisions, responses and plan upkeep busy; "
                "synthesis is ~10% of wall"
            ),
            kind="paper",
            num_devices=16_000,
            num_jobs=100,
            horizon=4 * DAY,
        ),
        Workload(
            name="fleet_50k",
            why=(
                "supply-rich fleet, several check-ins per assignment: trace "
                "synthesis and the check-in path dominate, decisions are light"
            ),
            kind="fleet",
            num_devices=50_000,
            num_jobs=6,
            horizon=DAY,
        ),
    )
}
