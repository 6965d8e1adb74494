"""Shared runner for the NPB experiments (Figures 6, 7, 9 and 10).

One *cell* of the NPB matrix = (application, vCPU count, GOMP_SPINCOUNT,
configuration).  The runner builds the consolidated scenario, warms the
background VMs, launches the app with the provisioned thread count, and
returns the measurements every NPB figure needs: duration, worker waiting
time over the app window, and the per-vCPU IPI rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.setups import Config, Scenario, run_npb, warmed


@dataclass
class NPBCell:
    app: str
    vcpus: int
    spincount: int
    config: Config
    duration_ns: int
    wait_ns: int
    cpu_used_ns: int
    #: Reschedule IPIs received per vCPU per second during the app run.
    ipi_rate_per_vcpu: float
    #: Trace of (time_ns, online_vcpus) from the daemon, when present.
    vcpu_trace: list


def run_cell(
    app_name: str,
    vcpus: int,
    spincount: int,
    config: Config,
    seed: int = 3,
    work_scale: float = 1.0,
    daemon_config=None,
    pcpus: int | None = None,
    scheduler: str | None = None,
    scenario: Scenario | None = None,
) -> NPBCell:
    """Run one cell of the NPB matrix and collect its measurements.

    The host is :func:`~repro.experiments.setups.warm_scenario`'s: the
    pool is sized by :func:`~repro.experiments.setups.pool_pcpus` so the
    worker keeps the paper's relative position at either VM size, and
    ``scheduler`` selects the pool scheduler by registry name (see
    :mod:`repro.hypervisor.schedulers`); ``None`` keeps the default.
    ``scenario``, when given, is that host already warmed from the same
    arguments (see :func:`~repro.experiments.setups.warmed`).
    """
    scenario = warmed(
        scenario, seed=seed, vcpus=vcpus, config=config, scheduler=scheduler,
        pcpus=pcpus, daemon_config=daemon_config,
    )

    domain = scenario.worker_domain
    ipi0 = sum(int(v.ipi_received) for v in domain.vcpus)
    # The futex-bucket kernel lock exists in every configuration; the
    # pv_spinlock guest option only changes how waiters behave on it.
    measured = run_npb(
        scenario, app_name, spincount, seed, work_scale,
        kernel_lock=scenario.worker_kernel_lock,
    )
    ipis = sum(int(v.ipi_received) for v in domain.vcpus) - ipi0
    trace = scenario.daemon.vcpu_trace() if scenario.daemon else []
    return NPBCell(
        app=app_name,
        vcpus=vcpus,
        spincount=spincount,
        config=config,
        duration_ns=measured.duration_ns,
        wait_ns=measured.wait_ns,
        cpu_used_ns=measured.run_ns,
        ipi_rate_per_vcpu=ipis / len(domain.vcpus) * 1e9 / measured.duration_ns,
        vcpu_trace=trace,
    )
