"""Table 3: the cost breakdown of freezing one vCPU.

The paper instruments ``sys_freezecpu`` with early returns from successive
depths and reports, per master-vCPU step, the cumulative cost (2.10 us
total), plus the target-side costs: ~1 us per migrated thread and ~1 us to
re-bind device interrupts.

We report the same rows two ways: the Monte-Carlo step breakdown from the
cost model, and a *live* measurement — freeze/unfreeze cycles against a
running guest, with the per-thread migration cost inferred from the
simulation's actual migration work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.balancer import BalancerCosts, VScaleBalancer
from repro.guest.actions import Compute
from repro.guest.kernel import GuestKernel
from repro.hypervisor.config import HostConfig
from repro.hypervisor.domain import VCPUState
from repro.hypervisor.machine import Machine
from repro.metrics.report import Table
from repro.units import MS, SEC


@dataclass
class Table3Result:
    #: (label, step mean us, cumulative us) rows for the master vCPU.
    breakdown: list[tuple[str, float, float]]
    #: Mean master-side cost over the live freeze/unfreeze cycles (us).
    live_master_us: float
    #: Mean observed freeze-to-quiescent latency (us) with N threads.
    live_freeze_latency_us: float
    threads_on_target: int
    migration_cost_us: float

    def render(self) -> str:
        table = Table(
            "Table 3: overhead of freezing one vCPU (master side)",
            ["operation", "step (us)", "cumulative (us)"],
        )
        for label, step, cumulative in self.breakdown:
            table.add_row(label, step, cumulative)
        table.add_row("-- live master-side mean --", "", f"{self.live_master_us:.2f}")
        table.add_row(
            f"-- target side: migrate {self.threads_on_target} threads --",
            "",
            f"{self.live_freeze_latency_us:.2f}",
        )
        table.add_row("-- per-thread migration --", "", f"{self.migration_cost_us:.2f}")
        return table.render()


def _spinner(total_ns: int):
    yield Compute(total_ns)


def run(iterations: int = 200, threads: int = 4, seed: int = 1) -> Table3Result:
    """Monte-Carlo the breakdown and measure live freeze cycles."""
    costs = BalancerCosts()
    machine = Machine(HostConfig(pcpus=4), seed=seed)
    domain = machine.create_domain("probe", vcpus=2)
    kernel = GuestKernel(domain)
    # Pin busy threads to vCPU1 so each freeze migrates exactly `threads`.
    for index in range(threads):
        kernel.spawn(_spinner(30 * SEC), f"busy{index}", pinned_to=1)
    machine.start()
    machine.run(until=100 * MS)

    balancer = VScaleBalancer(kernel, costs=costs)
    breakdown = balancer.measure_master_breakdown(iterations)

    freeze_latencies = []
    vcpu1 = domain.vcpus[1]
    for _ in range(iterations):
        start = machine.sim.now
        # Unpin before freeze so the threads are migratable, re-pin after.
        for thread in kernel.threads:
            thread.pinned_to = None
        balancer.freeze(1)
        deadline = machine.sim.now + 50 * MS
        while vcpu1.state is not VCPUState.FROZEN and machine.sim.now < deadline:
            machine.run(until=machine.sim.now + 2_000)
        if vcpu1.state is not VCPUState.FROZEN:
            raise RuntimeError("freeze did not complete within 50 ms")
        freeze_latencies.append(machine.sim.now - start)
        balancer.unfreeze(1)
        machine.run(until=machine.sim.now + 5 * MS)
        # Push the threads back so the next cycle migrates them again.
        for thread in kernel.threads:
            if not thread.done:
                kernel.repin_thread(thread, 1)
        machine.run(until=machine.sim.now + 20 * MS)

    live_master_us = balancer.master_latency.mean() / 1000.0
    live_freeze_us = sum(freeze_latencies) / len(freeze_latencies) / 1000.0
    return Table3Result(
        breakdown=breakdown,
        live_master_us=live_master_us,
        live_freeze_latency_us=live_freeze_us,
        threads_on_target=threads,
        migration_cost_us=kernel.config.migration_cost_ns / 1000.0,
    )
