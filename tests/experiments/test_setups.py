"""Tests for the shared scenario builder."""

import pytest

from repro.experiments.setups import (
    ALL_CONFIGS,
    WARMUP_NS,
    Config,
    Scenario,
    ScenarioBuilder,
    run_until_done,
)
from repro.units import MS, SEC


def test_consolidation_ratio_determines_background_count():
    builder = ScenarioBuilder(pcpus=8).with_worker_vm(4)
    scenario = builder.build()
    # 2 vCPUs/pCPU: 16 total vCPUs = 4 worker + 6x2 desktops.
    assert len(scenario.machine.domains) == 1 + 6
    total_vcpus = sum(len(d.vcpus) for d in scenario.machine.domains)
    assert total_vcpus == 16


def test_8vcpu_worker_gets_fewer_desktops():
    scenario = ScenarioBuilder(pcpus=8).with_worker_vm(8).build()
    assert len(scenario.machine.domains) == 1 + 4


def test_explicit_background_count_wins():
    scenario = ScenarioBuilder().with_worker_vm(4).with_background_vms(2).build()
    assert len(scenario.machine.domains) == 3


def test_weights_treat_all_vcpus_equally():
    scenario = ScenarioBuilder().with_worker_vm(4).build()
    for domain in scenario.machine.domains:
        assert domain.weight == 128 * len(domain.vcpus)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_configs_wire_up_correctly(config):
    scenario = ScenarioBuilder().with_worker_vm(4).with_config(config).build()
    assert (scenario.daemon is not None) == config.uses_vscale
    assert scenario.worker_kernel.config.pv_spinlock == config.uses_pvlock
    assert scenario.machine.vscale is not None  # extension always present


def test_scenario_runs(single_run_budget=500 * MS):
    scenario = ScenarioBuilder(seed=5).with_config(Config.VSCALE).build()
    scenario.start()
    scenario.run(single_run_budget)
    assert scenario.machine.sim.now == single_run_budget


def test_run_until_done_times_out():
    scenario = ScenarioBuilder(seed=5).build()
    scenario.start()

    class NeverDone:
        done = False
        duration_ns = 0

    with pytest.raises(TimeoutError):
        run_until_done(scenario, NeverDone(), timeout_ns=200 * MS)


def test_warm_up_is_the_first_run_from_zero(monkeypatch):
    runs = []
    original = Scenario.run

    def recording_run(self, until_ns):
        runs.append((self.machine.sim.now, until_ns))
        original(self, until_ns)

    monkeypatch.setattr(Scenario, "run", recording_run)
    scenario = ScenarioBuilder(seed=5).build()
    scenario.warm_up()
    assert runs == [(0, WARMUP_NS)]
    assert scenario.machine.sim.now == WARMUP_NS
