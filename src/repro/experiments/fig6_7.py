"""Figures 6 and 7: NPB-OMP normalized execution times.

Figure 6 uses a 4-vCPU worker VM, Figure 7 an 8-vCPU one.  Each figure has
three panels (GOMP_SPINCOUNT = 30 billion / 300 K / 0) and compares four
configurations (vanilla, vanilla+pvlock, vScale, vScale+pvlock), with
execution time normalized to vanilla.

The paper's qualitative shape, which the benchmark asserts:

* synchronization-intensive apps (lu, ua, cg, sp, bt, mg) speed up heavily
  under vScale, regardless of spinning policy;
* ep/ft/is are insensitive (little synchronization, few IPIs);
* pv-spinlock barely matters at 30 B spinning (user-space spin) and gains
  relevance as the spin count drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.npb_common import NPBCell, run_cell
from repro.experiments.setups import ALL_CONFIGS, Config, warm_cell
from repro.metrics.report import Table
from repro.parallel import CellSpec, ParallelExecutor, get_default_executor
from repro.workloads.npb import NPB_PROFILES
from repro.workloads.openmp import (
    SPINCOUNT_ACTIVE,
    SPINCOUNT_DEFAULT,
    SPINCOUNT_PASSIVE,
)

SPINCOUNTS = (SPINCOUNT_ACTIVE, SPINCOUNT_DEFAULT, SPINCOUNT_PASSIVE)
SPINCOUNT_LABELS = {
    SPINCOUNT_ACTIVE: "30B",
    SPINCOUNT_DEFAULT: "300K",
    SPINCOUNT_PASSIVE: "0",
}

#: Apps the paper singles out as synchronization-intensive winners.
SYNC_HEAVY = ("bt", "cg", "lu", "mg", "sp", "ua")
#: Apps the paper calls insensitive.
INSENSITIVE = ("ep", "ft", "is")


@dataclass
class NPBFigureResult:
    vcpus: int
    #: (app, spincount, config) -> cell
    cells: dict[tuple[str, int, Config], NPBCell] = field(default_factory=dict)

    def normalized(self, app: str, spincount: int, config: Config) -> float:
        base = self.cells[(app, spincount, Config.VANILLA)].duration_ns
        return self.cells[(app, spincount, config)].duration_ns / base

    def render(self) -> str:
        table = Table(
            f"Figures 6/7: NPB normalized execution time ({self.vcpus}-vCPU VM)",
            ["spincount", "app"] + [c.value for c in ALL_CONFIGS],
        )
        for spincount in SPINCOUNTS:
            for app in NPB_PROFILES:
                if (app, spincount, Config.VANILLA) not in self.cells:
                    continue
                row = [SPINCOUNT_LABELS[spincount], app]
                for config in ALL_CONFIGS:
                    if (app, spincount, config) in self.cells:
                        row.append(self.normalized(app, spincount, config))
                    else:
                        row.append("-")
                table.add_row(*row)
        return table.render()


def cells(
    vcpus: int = 4,
    apps: list[str] | None = None,
    spincounts: tuple[int, ...] = SPINCOUNTS,
    configs: list[Config] | None = None,
    seed: int = 3,
    work_scale: float = 1.0,
    scheduler: str | None = None,
) -> list[CellSpec]:
    """Decompose one figure's NPB matrix into independent cells.

    ``scheduler`` picks the pool scheduler by registry name; ``None``
    keeps the default, and also the historical cell identity — the
    scheduler key enters the cell kwargs (and hence the cache key and
    golden name) only when explicitly set.
    """
    specs = []
    for spincount in spincounts:
        for app in apps or list(NPB_PROFILES):
            for config in configs or ALL_CONFIGS:
                label = SPINCOUNT_LABELS.get(spincount, str(spincount))
                name = f"{vcpus}v/{app}/spin={label}/{config.value}"
                kwargs = dict(
                    app_name=app,
                    vcpus=vcpus,
                    spincount=spincount,
                    config=config,
                    seed=seed,
                    work_scale=work_scale,
                )
                if scheduler is not None:
                    name += f"/sched={scheduler}"
                    kwargs["scheduler"] = scheduler
                specs.append(
                    warm_cell(
                        experiment="fig6_7",
                        name=name,
                        fn=run_cell,
                        kwargs=kwargs,
                    )
                )
    return specs


def run(
    vcpus: int = 4,
    apps: list[str] | None = None,
    spincounts: tuple[int, ...] = SPINCOUNTS,
    configs: list[Config] | None = None,
    seed: int = 3,
    work_scale: float = 1.0,
    scheduler: str | None = None,
    executor: ParallelExecutor | None = None,
) -> NPBFigureResult:
    """Run the (subset of the) NPB matrix for one figure."""
    if executor is None:
        executor = get_default_executor()
    result = NPBFigureResult(vcpus=vcpus)
    specs = cells(vcpus, apps, spincounts, configs, seed, work_scale, scheduler)
    for cell in executor.run_cells(specs):
        result.cells[(cell.app, cell.spincount, cell.config)] = cell
    return result
