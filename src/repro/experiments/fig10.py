"""Figure 10: virtual-IPI rates of the NPB apps under each spin policy.

The paper profiles reschedule IPIs in the hypervisor while running the
vanilla configuration: with heavy spinning almost none are generated
(spinners never sleep, so nobody needs waking), and the less the apps
spin, the more they lean on futex — mg, sp and ua reach hundreds to a
thousand IPIs per vCPU per second at GOMP_SPINCOUNT=0.  This correlates
directly with where pv-spinlock and IPI-driven heuristics can or cannot
help, and explains the Figure 6 panels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.npb_common import run_cell
from repro.experiments.setups import Config, warm_cell
from repro.metrics.report import Table
from repro.parallel import CellSpec, ParallelExecutor, get_default_executor
from repro.workloads.npb import NPB_PROFILES
from repro.workloads.openmp import (
    SPINCOUNT_ACTIVE,
    SPINCOUNT_DEFAULT,
    SPINCOUNT_PASSIVE,
)


@dataclass
class Fig10Result:
    #: (app, spincount) -> IPIs per vCPU per second, vanilla config.
    rates: dict[tuple[str, int], float] = field(default_factory=dict)

    def rate(self, app: str, spincount: int) -> float:
        return self.rates[(app, spincount)]

    def render(self) -> str:
        table = Table(
            "Figure 10: vIPIs per second per vCPU (vanilla)",
            ["app", "spin=30B", "spin=300K", "spin=0"],
        )
        apps = sorted({app for app, _ in self.rates})
        for app in apps:
            table.add_row(
                app,
                self.rates.get((app, SPINCOUNT_ACTIVE), float("nan")),
                self.rates.get((app, SPINCOUNT_DEFAULT), float("nan")),
                self.rates.get((app, SPINCOUNT_PASSIVE), float("nan")),
            )
        return table.render()


def cells(
    apps: list[str] | None = None,
    spincounts: tuple[int, ...] = (SPINCOUNT_ACTIVE, SPINCOUNT_DEFAULT, SPINCOUNT_PASSIVE),
    vcpus: int = 4,
    seed: int = 3,
    work_scale: float = 1.0,
) -> list[CellSpec]:
    return [
        warm_cell(
            experiment="fig10",
            name=f"{app}/spin={spincount}",
            fn=run_cell,
            kwargs=dict(
                app_name=app,
                vcpus=vcpus,
                spincount=spincount,
                config=Config.VANILLA,
                seed=seed,
                work_scale=work_scale,
            ),
        )
        for app in apps or list(NPB_PROFILES)
        for spincount in spincounts
    ]


def run(
    apps: list[str] | None = None,
    spincounts: tuple[int, ...] = (SPINCOUNT_ACTIVE, SPINCOUNT_DEFAULT, SPINCOUNT_PASSIVE),
    vcpus: int = 4,
    seed: int = 3,
    work_scale: float = 1.0,
    executor: ParallelExecutor | None = None,
) -> Fig10Result:
    if executor is None:
        executor = get_default_executor()
    specs = cells(apps, spincounts, vcpus, seed, work_scale)
    result = Fig10Result()
    for cell in executor.run_cells(specs):
        result.rates[(cell.app, cell.spincount)] = cell.ipi_rate_per_vcpu
    return result
