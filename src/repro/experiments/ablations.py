"""Design-choice ablations (DESIGN.md section 5).

These are not in the paper's evaluation; they isolate the contributions of
vScale's individual design decisions on our simulated stack:

* **policy** — consumption-aware extendability (vScale) vs. weight-only
  targets (VCPU-Bal): work conservation under mixed load.
* **mechanism** — microsecond freeze/unfreeze vs. Linux CPU hotplug, with
  the same extendability policy driving both.
* **rounding** — ceil (Algorithm 1's letter) vs. floor vs. conservative
  rounding of the extendability into a vCPU count.
* **daemon period** — reaction latency vs. background burstiness.

Each ablation variant is an independent simulation, so every
``run_*_ablation`` fans its variants out through the parallel executor
(one :class:`~repro.parallel.CellSpec` per variant); the module-level
``_*_point`` functions are the picklable cell bodies.  Every point runs
its app heavy-spinning and without the worker's kernel lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.baselines import HotplugScaler, VCPUBalManager
from repro.core.daemon import DaemonConfig
from repro.experiments.setups import Config, ScenarioBuilder, run_npb
from repro.guest.hotplug import HotplugModel
from repro.hypervisor.dom0 import Dom0Load, Dom0Toolstack
from repro.metrics.report import Table
from repro.parallel import CellSpec, ParallelExecutor, get_default_executor
from repro.sim.rng import SeedSequenceFactory
from repro.units import MS
from repro.workloads.openmp import SPINCOUNT_ACTIVE


@dataclass
class AblationPoint:
    label: str
    duration_ns: int
    wait_ns: int
    reconfigurations: int


@dataclass
class AblationResult:
    """One ablation's points, renderable like the figure results."""

    title: str
    points: list[AblationPoint] = field(default_factory=list)

    def render(self) -> str:
        table = Table(
            self.title, ["variant", "duration (s)", "VM wait (s)", "reconfigs"]
        )
        for point in self.points:
            table.add_row(
                point.label,
                point.duration_ns / 1e9,
                point.wait_ns / 1e9,
                point.reconfigurations,
            )
        return table.render()


def _mechanism_point(
    variant: str, app_name: str, hotplug_kernel: str, seed: int, work_scale: float
) -> AblationPoint:
    """One mechanism variant: ``fixed`` / ``hotplug`` / ``vscale``."""
    seeds = SeedSequenceFactory(seed)
    if variant == "fixed":
        scenario = ScenarioBuilder(seed=seed).with_config(Config.VANILLA).build()
        label, reconfigs = "fixed vCPUs", lambda: 0
    elif variant == "hotplug":
        scenario = ScenarioBuilder(seed=seed).with_config(Config.VANILLA).build()
        model = HotplugModel(hotplug_kernel, seeds.generator("hp"))
        scaler = HotplugScaler(scenario.worker_kernel, model)
        scaler.install()
        label = f"hotplug ({hotplug_kernel})"
        reconfigs = lambda: scaler.reconfigurations
    elif variant == "vscale":
        scenario = ScenarioBuilder(seed=seed).with_config(Config.VSCALE).build()
        label = "vScale balancer"
        reconfigs = lambda: scenario.daemon.reconfigurations if scenario.daemon else 0
    else:
        raise ValueError(f"unknown mechanism variant {variant!r}")
    scenario.warm_up()
    measured = run_npb(scenario, app_name, SPINCOUNT_ACTIVE, seed, work_scale)
    return AblationPoint(label, measured.duration_ns, measured.wait_ns, reconfigs())


def run_mechanism_ablation(
    app_name: str = "cg",
    hotplug_kernel: str = "v3.14.15",
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationPoint]:
    """Same policy, three mechanisms: none / hotplug / vScale balancer."""
    if executor is None:
        executor = get_default_executor()
    specs = [
        CellSpec(
            experiment="ablations",
            name=f"mechanism/{variant}",
            fn=_mechanism_point,
            kwargs=dict(
                variant=variant,
                app_name=app_name,
                hotplug_kernel=hotplug_kernel,
                seed=seed,
                work_scale=work_scale,
            ),
        )
        for variant in ("fixed", "hotplug", "vscale")
    ]
    return executor.run_cells(specs)


def _policy_point(
    variant: str, app_name: str, seed: int, work_scale: float
) -> AblationPoint:
    """One policy variant: ``vscale`` / ``vcpubal``."""
    seeds = SeedSequenceFactory(seed)
    if variant == "vscale":
        scenario = ScenarioBuilder(seed=seed).with_config(Config.VSCALE).build()
        label = "vScale (consumption-aware)"
        reconfigs = lambda: scenario.daemon.reconfigurations if scenario.daemon else 0
    elif variant == "vcpubal":
        scenario = ScenarioBuilder(seed=seed).with_config(Config.VANILLA).build()
        dom0 = Dom0Toolstack(seeds.generator("dom0"), load=Dom0Load.IDLE)
        model = HotplugModel("v3.14.15", seeds.generator("hp"))
        manager = VCPUBalManager(scenario.worker_kernel, dom0, model)
        manager.install()
        label = "VCPU-Bal (weight-only, dom0)"
        reconfigs = lambda: manager.reconfigurations
    else:
        raise ValueError(f"unknown policy variant {variant!r}")
    scenario.warm_up()
    measured = run_npb(scenario, app_name, SPINCOUNT_ACTIVE, seed, work_scale)
    return AblationPoint(label, measured.duration_ns, measured.wait_ns, reconfigs())


def run_policy_ablation(
    app_name: str = "cg",
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationPoint]:
    """vScale's consumption-aware policy vs. VCPU-Bal's weight-only one."""
    if executor is None:
        executor = get_default_executor()
    specs = [
        CellSpec(
            experiment="ablations",
            name=f"policy/{variant}",
            fn=_policy_point,
            kwargs=dict(
                variant=variant, app_name=app_name, seed=seed, work_scale=work_scale
            ),
        )
        for variant in ("vscale", "vcpubal")
    ]
    return executor.run_cells(specs)


def _rounding_point(
    mode: str, app_name: str, seed: int, work_scale: float
) -> AblationPoint:
    builder = ScenarioBuilder(seed=seed).with_config(Config.VSCALE)
    builder.daemon_config = DaemonConfig(round_mode=mode)
    scenario = builder.build()
    scenario.warm_up()
    measured = run_npb(scenario, app_name, SPINCOUNT_ACTIVE, seed, work_scale)
    return AblationPoint(
        f"round={mode}",
        measured.duration_ns,
        measured.wait_ns,
        scenario.daemon.reconfigurations if scenario.daemon else 0,
    )


def run_rounding_ablation(
    app_name: str = "ua",
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationPoint]:
    """ceil vs. floor vs. conservative rounding of the vCPU target."""
    if executor is None:
        executor = get_default_executor()
    specs = [
        CellSpec(
            experiment="ablations",
            name=f"rounding/{mode}",
            fn=_rounding_point,
            kwargs=dict(
                mode=mode, app_name=app_name, seed=seed, work_scale=work_scale
            ),
        )
        for mode in ("ceil", "floor", "conservative")
    ]
    return executor.run_cells(specs)


def _period_point(
    period_ms: int, app_name: str, seed: int, work_scale: float
) -> AblationPoint:
    builder = ScenarioBuilder(seed=seed).with_config(Config.VSCALE)
    builder.daemon_config = DaemonConfig(period_ns=period_ms * MS)
    scenario = builder.build()
    scenario.warm_up()
    measured = run_npb(scenario, app_name, SPINCOUNT_ACTIVE, seed, work_scale)
    return AblationPoint(
        f"period={period_ms}ms",
        measured.duration_ns,
        measured.wait_ns,
        scenario.daemon.reconfigurations if scenario.daemon else 0,
    )


def run_period_ablation(
    app_name: str = "cg",
    periods_ms: tuple[int, ...] = (10, 100, 1000),
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationPoint]:
    """Daemon polling period sensitivity."""
    if executor is None:
        executor = get_default_executor()
    specs = [
        CellSpec(
            experiment="ablations",
            name=f"period/{period}ms",
            fn=_period_point,
            kwargs=dict(
                period_ms=period, app_name=app_name, seed=seed, work_scale=work_scale
            ),
        )
        for period in periods_ms
    ]
    return executor.run_cells(specs)


def run_all(
    seed: int = 3,
    work_scale: float = 0.5,
    executor: ParallelExecutor | None = None,
) -> list[AblationResult]:
    """All four ablations, as renderable results (used by the runner)."""
    if executor is None:
        executor = get_default_executor()
    return [
        AblationResult(
            "Ablation: reconfiguration mechanism (cg, heavy spin)",
            run_mechanism_ablation(seed=seed, work_scale=work_scale, executor=executor),
        ),
        AblationResult(
            "Ablation: scaling policy (cg, heavy spin)",
            run_policy_ablation(seed=seed, work_scale=work_scale, executor=executor),
        ),
        AblationResult(
            "Ablation: extendability rounding (ua, heavy spin)",
            run_rounding_ablation(seed=seed, work_scale=work_scale, executor=executor),
        ),
        AblationResult(
            "Ablation: daemon polling period (cg, heavy spin)",
            run_period_ablation(seed=seed, work_scale=work_scale, executor=executor),
        ),
    ]
