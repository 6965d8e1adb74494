"""Production-vs-oracle equivalence at the full-simulation level.

The production engine (``wheel``) coalesces a guest's scheduler ticks
while a vCPU is runnable but off-CPU, folding their counter bumps in
arithmetically when it resumes.  The reference oracle (``heap``) fires
every 1 ms tick as a real event.  Any divergence in when a tick counts,
dies at a freeze edge, or orders against a same-instant event would
change scheduling decisions and cascade through the whole run.

The property-based test here drives random (scheduler, configuration,
workload, fault-plan) draws through both engines and requires
bit-identical machine state: same engine-invariant checkpoint
fingerprint, same guest-visible tick counters (after ``sync_ticks``
flushes the coalesced folds), same thread/vCPU states and vruntimes,
same fault-injection decisions.  The directed tests pin the hardest
boundary cases: freeze edges (chains torn down mid-span by Algorithm 2
reconfigurations), scripted daemon stalls (long idle spans), and a
multi-VM host whose daemons' timers tie with ticks at the same instant.
One known divergence, at high Apache request rates, is pinned as a
strict xfail.
"""

from dataclasses import replace

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments import decentralization, fig14
from repro.experiments.setups import Config, ScenarioBuilder
from repro.faults import FaultConfig, FaultEvent, FaultPlan
from repro.hypervisor.schedulers import available
from repro.recovery import fingerprint, state_dict
from repro.sim.rng import SeedSequenceFactory
from repro.units import MS
from repro.workloads.npb import NPBApp, NPB_PROFILES
from repro.workloads.openmp import SPINCOUNT_DEFAULT

WARMUP_NS = 20 * MS

#: A daemon-stall-heavy plan: long stretches where the worker guest goes
#: fully idle and its tick chains die and restart around the stalls.
STALL_PLAN = FaultPlan(
    config=FaultConfig(daemon_stall_rate=0.3, daemon_stall_periods=4),
    seed=11,
    events=(FaultEvent(at_ns=60 * MS, site="daemon_stall", magnitude=6.0),),
)
#: A mixed transient plan touching the IPI and channel fault sites whose
#: RNG draws must line up exactly across engines.
MIXED_PLAN = FaultPlan(
    config=FaultConfig(
        ipi_drop_rate=0.05,
        ipi_delay_rate=0.1,
        channel_fail_rate=0.05,
        daemon_jitter_rate=0.1,
    ),
    seed=23,
)


def _observe(scenario) -> dict:
    """Everything an engine could plausibly perturb, in comparable form."""
    machine = scenario.machine
    for domain in machine.domains:
        guest = domain.guest
        if guest is not None:
            guest.sync_ticks()  # flush closed-form tick folds
    worker = scenario.worker_kernel
    stats = machine.faults.stats if machine.faults is not None else None
    return {
        "now": machine.sim.now,
        "fingerprint": fingerprint(state_dict(machine)),
        "worker_ticks": [int(c) for c in worker.timer_interrupts],
        "worker_threads": sorted(
            (t.name, t.done, t.vcpu_index, t.vruntime) for t in worker.threads
        ),
        "freeze_mask": sorted(worker.cpu_freeze_mask),
        "vcpu_states": [
            f"{d.name}/{v.index}:{v.state.name}"
            for d in machine.domains
            for v in d.vcpus
        ],
        "fault_stats": None if stats is None else repr(stats),
    }


def _with_engine(engine, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every Simulator built on ``engine``."""
    previous = os.environ.get("REPRO_SIM_ENGINE")
    os.environ["REPRO_SIM_ENGINE"] = engine
    try:
        return fn(*args, **kwargs)
    finally:
        if previous is None:
            os.environ.pop("REPRO_SIM_ENGINE", None)
        else:
            os.environ["REPRO_SIM_ENGINE"] = previous


def _production_and_oracle(fn, *args, **kwargs):
    return (
        _with_engine("wheel", fn, *args, **kwargs),
        _with_engine("heap", fn, *args, **kwargs),
    )


def _scenario(*, scheduler, config, seed, vcpus, pcpus, plan,
              until_ns, with_app) -> dict:
    scenario = (
        ScenarioBuilder(seed=seed, pcpus=pcpus, scheduler=scheduler)
        .with_worker_vm(vcpus)
        .with_config(config)
        .with_faults(plan)
        .build()
    )
    scenario.start()
    scenario.run(WARMUP_NS)
    if with_app:
        profile = replace(NPB_PROFILES["cg"], iterations=2)
        app = NPBApp(
            scenario.worker_kernel,
            profile,
            SPINCOUNT_DEFAULT,
            SeedSequenceFactory(seed).stream("npb", "normal"),
            kernel_lock=scenario.worker_kernel_lock,
        )
        app.launch()
    scenario.run(until_ns)
    return _observe(scenario)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scheduler=st.sampled_from(available()),
    config=st.sampled_from(
        [Config.VANILLA, Config.VSCALE, Config.VSCALE_PVLOCK]
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    vcpus=st.sampled_from([2, 4]),
    plan=st.sampled_from([None, STALL_PLAN, MIXED_PLAN]),
    until_ms=st.sampled_from([90, 131, 170]),
    with_app=st.booleans(),
)
def test_production_is_bit_identical_to_oracle(
    scheduler, config, seed, vcpus, plan, until_ms, with_app
):
    production, oracle = _production_and_oracle(
        _scenario,
        scheduler=scheduler,
        config=config,
        seed=seed,
        vcpus=vcpus,
        pcpus=4,
        plan=plan,
        until_ns=until_ms * MS,
        with_app=with_app,
    )
    assert production == oracle


def test_oracle_identical_across_freeze_edges():
    """An overcommitted vScale worker (4 vCPUs on a 2-pCPU pool) forces
    the daemon through freeze/unfreeze reconfigurations, killing
    coalesced tick chains mid-span on the target vCPU and restarting
    them on the survivors.  The run must still be bit-identical — and
    must actually have exercised a freeze, or the test is vacuous."""
    production, oracle = _production_and_oracle(
        _scenario,
        scheduler=None,
        config=Config.VSCALE,
        seed=5,
        vcpus=4,
        pcpus=2,
        plan=None,
        until_ns=400 * MS,
        with_app=True,
    )
    assert production == oracle
    assert production["freeze_mask"], "scenario never froze a vCPU (vacuous)"


def test_oracle_identical_under_scripted_daemon_stalls():
    """Scripted + stochastic daemon stalls leave the worker guest idle
    for multi-period spans, and their fault-RNG draws must land on the
    same reads under both engines."""
    production, oracle = _production_and_oracle(
        _scenario,
        scheduler=None,
        config=Config.VSCALE,
        seed=9,
        vcpus=4,
        pcpus=4,
        plan=STALL_PLAN,
        until_ns=250 * MS,
        with_app=True,
    )
    assert production == oracle
    assert production["fault_stats"] is not None
    assert "daemon_stalls=0" not in production["fault_stats"], (
        "no stall ever injected (vacuous)"
    )


def test_oracle_identical_on_two_vm_decentralized_host():
    """Two VMs, each with its own daemon, on a 2-pCPU pool: the daemons'
    timers fire at the same instants as guest ticks of both VMs, so the
    run depends on how same-instant ties between ticks and daemon wakes
    are ordered.  Every VM's consumed time must match the oracle."""
    production, oracle = _production_and_oracle(
        decentralization.run,
        vms=2, pcpus=2, vcpus_per_vm=2, duration_ns=1000 * MS, seed=1,
    )
    assert production.shares == oracle.shares
    assert production == oracle


@pytest.mark.xfail(
    strict=True,
    reason="known defect: a tick chain re-armed at resume takes a fresh seq, "
    "so same-instant events fire in a different order than with eager "
    "ticks (EXPERIMENTS.md, Deviations item 5)",
)
def test_oracle_identical_on_high_rate_apache():
    """Apache on vanilla Xen/Linux at 10000 req/s: the worker's re-armed
    tick chains order differently against same-instant events than eager
    ticks do, and the run ends with 927 replies against the oracle's 1000."""
    production, oracle = _production_and_oracle(
        fig14.run_point, Config.VANILLA, 10000, duration_ns=100 * MS, seed=1,
    )
    assert (production.replies, production.drops) == (oracle.replies, oracle.drops)
