"""Shared experiment scaffolding.

The application experiments (Figures 6-13) all use the paper's setup: a
worker SMP-VM under test, consolidated with "photo-slideshow" desktop VMs
at an average of two vCPUs per pCPU, with weights configured so every vCPU
is treated equally by the hypervisor, compared across four configurations:

* ``VANILLA``        — stock Xen/Linux;
* ``PVLOCK``         — stock + paravirtual spinlocks in the guest;
* ``VSCALE``         — vScale daemon + balancer + scheduler extension;
* ``VSCALE_PVLOCK``  — both.

This module owns that cell recipe: :class:`ScenarioBuilder` builds the
host, :meth:`Scenario.warm_up` runs the one background warm-up every cell
starts with, :func:`pool_pcpus` sizes the pool for the worker VM, and
:func:`run_npb` launches an NPB app and measures it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.daemon import DaemonConfig, VScaleDaemon
from repro.faults import FaultPlan
from repro.guest.kernel import GuestConfig, GuestKernel
from repro.guest.sync import KernelSpinLock
from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import Domain
from repro.hypervisor.machine import Machine
from repro.recovery.watchdog import HangWatchdog
from repro.sim.rng import SeedSequenceFactory
from repro.units import MS, SEC
from repro.workloads.desktop import PhotoSlideshow, SlideshowConfig
from repro.workloads.npb import NPB_PROFILES, NPBApp

#: Background warm-up before the application launches.
WARMUP_NS = 2 * SEC


class Config(enum.Enum):
    """The four compared configurations."""

    VANILLA = "Xen/Linux"
    PVLOCK = "Xen/Linux + pvlock"
    VSCALE = "vScale"
    VSCALE_PVLOCK = "vScale + pvlock"

    @property
    def uses_vscale(self) -> bool:
        return self in (Config.VSCALE, Config.VSCALE_PVLOCK)

    @property
    def uses_pvlock(self) -> bool:
        return self in (Config.PVLOCK, Config.VSCALE_PVLOCK)


ALL_CONFIGS = [Config.VANILLA, Config.VSCALE, Config.PVLOCK, Config.VSCALE_PVLOCK]


@dataclass
class Scenario:
    """A fully built host ready to run."""

    machine: Machine
    worker_domain: Domain
    worker_kernel: GuestKernel
    #: The shared futex-bucket/socket kernel lock of the worker guest.
    worker_kernel_lock: KernelSpinLock
    daemon: VScaleDaemon | None
    background: list[PhotoSlideshow] = field(default_factory=list)
    config: Config = Config.VANILLA
    #: Hang watchdog on the worker guest, when requested (chaos runs).
    watchdog: HangWatchdog | None = None

    def start(self) -> None:
        self.machine.start()

    def run(self, until_ns: int) -> None:
        self.machine.run(until=until_ns)

    def warm_up(self) -> None:
        """Start the host and run it through the background warm-up.

        Every cell's warm-up is this first :meth:`run` from t=0, so a
        warm-state cache can key on it.
        """
        self.start()
        self.run(WARMUP_NS)


def pool_pcpus(vcpus: int) -> int:
    """Pool size that keeps the worker at a quarter of the host's weight.

    The 4-vCPU VM runs on 8 pCPUs with 6 desktops, the 8-vCPU VM on 16
    pCPUs with 12 (the testbed had 16 logical CPUs; consolidation stays
    at 2 vCPUs/pCPU).
    """
    return 16 if vcpus >= 8 else 8


class ScenarioBuilder:
    """Builds the consolidated-host scenario of the application sections."""

    def __init__(self, seed: int = 1, pcpus: int = 8, scheduler: str | None = None):
        self.seed = seed
        self.pcpus = pcpus
        #: Pool scheduler by registry name; None defers to REPRO_SCHEDULER
        #: and then to the credit default (see repro.hypervisor.schedulers).
        self.scheduler = scheduler
        self.worker_vcpus = 4
        self.background_vms: int | None = None
        self.config = Config.VANILLA
        self.daemon_config: DaemonConfig | None = None
        self.slideshow_config: SlideshowConfig | None = None
        self.fault_plan: FaultPlan | None = None
        self.install_watchdog = False
        self.consolidation = 2.0  # average vCPUs per pCPU

    # -- fluent knobs ---------------------------------------------------
    def with_worker_vm(self, vcpus: int) -> "ScenarioBuilder":
        self.worker_vcpus = vcpus
        return self

    def with_background_vms(self, count: int) -> "ScenarioBuilder":
        self.background_vms = count
        return self

    def with_config(self, config: Config) -> "ScenarioBuilder":
        self.config = config
        return self

    def with_scheduler(self, name: str | None) -> "ScenarioBuilder":
        self.scheduler = name
        return self

    def with_consolidation(self, ratio: float) -> "ScenarioBuilder":
        self.consolidation = ratio
        return self

    def with_faults(self, plan: FaultPlan | None) -> "ScenarioBuilder":
        self.fault_plan = plan
        return self

    def with_watchdog(self, install: bool = True) -> "ScenarioBuilder":
        """Install a :class:`HangWatchdog` on the worker guest, which also
        injects the plan's scripted ``vcpu_hang`` faults."""
        self.install_watchdog = install
        return self

    # -- build -----------------------------------------------------------
    def _background_count(self) -> int:
        if self.background_vms is not None:
            return self.background_vms
        total_vcpus = self.consolidation * self.pcpus
        count = round((total_vcpus - self.worker_vcpus) / 2)
        return max(1, count)

    def build(self) -> Scenario:
        seeds = SeedSequenceFactory(self.seed)
        host = HostConfig(pcpus=self.pcpus, scheduler=self.scheduler)
        machine = Machine(host, seed=self.seed)
        if self.fault_plan is not None and self.fault_plan.active:
            machine.install_faults(self.fault_plan)

        # Weights: "so that all vCPUs are treated equally" — per-VM weight
        # proportional to the provisioned vCPU count.
        worker_domain = machine.create_domain(
            "worker", vcpus=self.worker_vcpus, weight=128 * self.worker_vcpus
        )
        guest_config = GuestConfig(pv_spinlock=self.config.uses_pvlock)
        worker_kernel = GuestKernel(worker_domain, guest_config)
        worker_lock = KernelSpinLock(worker_kernel, "worker.futex_bucket")

        background = []
        for index in range(self._background_count()):
            bg_domain = machine.create_domain(
                f"desktop{index}", vcpus=2, weight=128 * 2
            )
            bg_kernel = GuestKernel(bg_domain)
            slideshow = PhotoSlideshow(
                bg_kernel,
                rng=seeds.generator(f"slideshow.{index}"),
                config=self.slideshow_config,
            )
            slideshow.install()
            background.append(slideshow)

        daemon = None
        machine.install_vscale()
        if self.config.uses_vscale:
            daemon = VScaleDaemon(worker_kernel, self.daemon_config)
            daemon.install()
        watchdog = None
        if self.install_watchdog:
            watchdog = HangWatchdog(worker_kernel)
            watchdog.install()

        return Scenario(
            machine=machine,
            worker_domain=worker_domain,
            worker_kernel=worker_kernel,
            worker_kernel_lock=worker_lock,
            daemon=daemon,
            background=background,
            config=self.config,
            watchdog=watchdog,
        )


def run_until_done(scenario: Scenario, app, timeout_ns: int = 120 * SEC, step_ns: int = 100 * MS) -> int:
    """Run the machine until ``app.done``; returns the app duration (ns).

    ``app`` is any object with ``done``/``duration_ns`` (the workload
    harnesses).  Raises on timeout so calibration mistakes fail loudly
    instead of spinning forever.
    """
    machine = scenario.machine
    deadline = machine.sim.now + timeout_ns
    while not app.done:
        if machine.sim.now >= deadline:
            raise TimeoutError(
                f"workload did not finish within {timeout_ns / SEC:.1f}s of sim time"
            )
        machine.run(until=min(deadline, machine.sim.now + step_ns))
    return app.duration_ns


@dataclass
class NPBRun:
    """The worker VM's measurements over one NPB application run."""

    duration_ns: int
    #: Runnable-but-waiting time of the worker's vCPUs during the run.
    wait_ns: int
    #: Running time of the worker's vCPUs during the run.
    run_ns: int


def run_npb(
    scenario: Scenario,
    app_name: str,
    spincount: int,
    seed: int,
    work_scale: float = 1.0,
    kernel_lock: KernelSpinLock | None = None,
) -> NPBRun:
    """Launch NPB ``app_name`` on the worker VM and run it to completion.

    ``kernel_lock`` is the futex-bucket lock the app's waiters contend on
    (normally ``scenario.worker_kernel_lock``; ``None`` runs without one).
    """
    if app_name not in NPB_PROFILES:
        raise KeyError(f"unknown NPB app {app_name!r}")
    domain = scenario.worker_domain
    sim = scenario.machine.sim
    wait0 = domain.total_wait_ns(sim.now)
    run0 = domain.total_run_ns(sim.now)
    app = NPBApp(
        scenario.worker_kernel,
        NPB_PROFILES[app_name].scaled(work_scale),
        spincount,
        SeedSequenceFactory(seed).stream("npb", "normal"),
        kernel_lock=kernel_lock,
    )
    app.launch()
    duration = run_until_done(scenario, app)
    return NPBRun(
        duration_ns=duration,
        wait_ns=domain.total_wait_ns(sim.now) - wait0,
        run_ns=domain.total_run_ns(sim.now) - run0,
    )
