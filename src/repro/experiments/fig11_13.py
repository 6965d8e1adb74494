"""Figures 11-13: PARSEC normalized execution times and IPI rates.

Figure 11 (4-vCPU VM) and Figure 12 (8-vCPU VM) compare the four
configurations over the thirteen PARSEC applications; Figure 13 profiles
the per-vCPU reschedule-IPI rates of the vanilla runs, which explains the
gains: communication-driven applications (dedup far ahead, then
streamcluster/bodytrack/vips) improve, while well-partitioned or
synchronization-free codes (blackscholes, freqmine, raytrace, swaptions)
barely move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.setups import (
    ALL_CONFIGS,
    Config,
    Scenario,
    run_until_done,
    warm_cell,
    warmed,
)
from repro.metrics.report import Table
from repro.parallel import CellSpec, ParallelExecutor, get_default_executor
from repro.sim.rng import SeedSequenceFactory
from repro.workloads.parsec import PARSEC_PROFILES, ParsecApp

#: Apps the paper highlights as clear winners / as marginal.
COMM_DRIVEN = ("dedup", "bodytrack", "streamcluster", "vips")
MARGINAL = ("ferret", "freqmine", "raytrace", "swaptions")


@dataclass
class ParsecCell:
    app: str
    config: Config
    duration_ns: int
    ipi_rate_per_vcpu: float


@dataclass
class ParsecFigureResult:
    vcpus: int
    cells: dict[tuple[str, Config], ParsecCell] = field(default_factory=dict)

    def normalized(self, app: str, config: Config) -> float:
        base = self.cells[(app, Config.VANILLA)].duration_ns
        return self.cells[(app, config)].duration_ns / base

    def ipi_rate(self, app: str) -> float:
        """Figure 13: the vanilla run's IPI rate."""
        return self.cells[(app, Config.VANILLA)].ipi_rate_per_vcpu

    def render(self) -> str:
        table = Table(
            f"Figures 11/12: PARSEC normalized execution time ({self.vcpus}-vCPU VM)",
            ["app"] + [c.value for c in ALL_CONFIGS] + ["vIPI/s/vCPU (vanilla)"],
        )
        for app in PARSEC_PROFILES:
            if (app, Config.VANILLA) not in self.cells:
                continue
            row = [app]
            for config in ALL_CONFIGS:
                if (app, config) in self.cells:
                    row.append(self.normalized(app, config))
                else:
                    row.append("-")
            row.append(f"{self.ipi_rate(app):.0f}")
            table.add_row(*row)
        return table.render()


def run_cell(
    app_name: str,
    vcpus: int,
    config: Config,
    seed: int = 3,
    work_scale: float = 1.0,
    scenario: Scenario | None = None,
) -> ParsecCell:
    """Run one PARSEC app on the warm consolidated host.

    ``scenario``, when given, is that host already warmed from the same
    arguments (see :func:`~repro.experiments.setups.warmed`).
    """
    if app_name not in PARSEC_PROFILES:
        raise KeyError(f"unknown PARSEC app {app_name!r}")
    scenario = warmed(scenario, seed=seed, vcpus=vcpus, config=config)

    domain = scenario.worker_domain
    ipi0 = sum(int(v.ipi_received) for v in domain.vcpus)
    # The kernel lock exists in every configuration (pv_spinlock only
    # changes the waiting strategy on it).
    app = ParsecApp(
        scenario.worker_kernel,
        PARSEC_PROFILES[app_name].scaled(work_scale),
        SeedSequenceFactory(seed).stream("parsec", "normal"),
        kernel_lock=scenario.worker_kernel_lock,
    )
    app.launch()
    duration = run_until_done(scenario, app)
    ipis = sum(int(v.ipi_received) for v in domain.vcpus) - ipi0
    return ParsecCell(
        app=app_name,
        config=config,
        duration_ns=duration,
        ipi_rate_per_vcpu=ipis / len(domain.vcpus) * 1e9 / duration,
    )


def cells(
    vcpus: int = 4,
    apps: list[str] | None = None,
    configs: list[Config] | None = None,
    seed: int = 3,
    work_scale: float = 1.0,
) -> list[CellSpec]:
    return [
        warm_cell(
            experiment="fig11_13",
            name=f"{vcpus}v/{app}/{config.value}",
            fn=run_cell,
            kwargs=dict(
                app_name=app,
                vcpus=vcpus,
                config=config,
                seed=seed,
                work_scale=work_scale,
            ),
        )
        for app in apps or list(PARSEC_PROFILES)
        for config in configs or ALL_CONFIGS
    ]


def run(
    vcpus: int = 4,
    apps: list[str] | None = None,
    configs: list[Config] | None = None,
    seed: int = 3,
    work_scale: float = 1.0,
    executor: ParallelExecutor | None = None,
) -> ParsecFigureResult:
    if executor is None:
        executor = get_default_executor()
    specs = cells(vcpus, apps, configs, seed, work_scale)
    result = ParsecFigureResult(vcpus=vcpus)
    for cell in executor.run_cells(specs):
        result.cells[(cell.app, cell.config)] = cell
    return result


@dataclass
class Fig13Result:
    """Figure 13 proper: the vanilla runs' per-vCPU IPI-rate profile."""

    base: ParsecFigureResult

    def rate(self, app: str) -> float:
        return self.base.ipi_rate(app)

    def render(self) -> str:
        table = Table(
            "Figure 13: vIPIs per second per vCPU (PARSEC, vanilla)",
            ["app", "vIPI/s/vCPU"],
        )
        rates = {
            app: self.base.ipi_rate(app)
            for app, config in self.base.cells
            if config is Config.VANILLA
        }
        for app, rate in sorted(rates.items(), key=lambda kv: (-kv[1], kv[0])):
            table.add_row(app, f"{rate:.0f}")
        return table.render()


def run_fig13(
    vcpus: int = 4,
    apps: list[str] | None = None,
    seed: int = 3,
    work_scale: float = 1.0,
    executor: ParallelExecutor | None = None,
) -> Fig13Result:
    """Profile the vanilla runs' reschedule-IPI rates (Figure 13)."""
    return Fig13Result(
        run(vcpus, apps, [Config.VANILLA], seed, work_scale, executor)
    )
