"""Generality benchmark: vScale on two different hypervisor schedulers.

The paper argues Algorithm 1 "is generic" and can integrate with other
proportional-share schedulers, including virtual-runtime based ones.  This
bench runs the same consolidated NPB experiment on both the Xen-style
credit scheduler and the virtual-runtime (Credit2-class) scheduler and
checks that vScale's mechanism delivers on both substrates.
"""

from repro.experiments.setups import Config, ScenarioBuilder, run_until_done
from repro.metrics.report import Table
from repro.sim.rng import SeedSequenceFactory
from repro.workloads.npb import NPBApp, NPB_PROFILES
from repro.workloads.openmp import SPINCOUNT_ACTIVE

from benchmarks.conftest import work_scale


def run_cell(scheduler: str, config: Config, app_name: str, seed: int = 3):
    builder = (
        ScenarioBuilder(seed=seed, scheduler=scheduler)
        .with_worker_vm(4)
        .with_config(config)
    )
    scenario = builder.build()
    scenario.warm_up()
    seeds = SeedSequenceFactory(seed)
    profile = NPB_PROFILES[app_name].scaled(work_scale())
    domain = scenario.worker_domain
    machine = scenario.machine
    wait0 = domain.total_wait_ns(machine.sim.now)
    app = NPBApp(
        scenario.worker_kernel,
        profile,
        SPINCOUNT_ACTIVE,
        seeds.generator("npb"),
        kernel_lock=scenario.worker_kernel_lock,
    )
    app.launch()
    duration = run_until_done(scenario, app)
    wait = domain.total_wait_ns(machine.sim.now) - wait0
    return duration, wait


def test_vscale_generalizes_across_schedulers(bench_once):
    def run():
        results = {}
        for scheduler in ("credit", "vrt"):
            for config in (Config.VANILLA, Config.VSCALE):
                results[(scheduler, config)] = run_cell(scheduler, config, "cg")
        return results

    results = bench_once(run)
    table = Table(
        "vScale on two proportional-share schedulers (NPB cg, heavy spin)",
        ["scheduler", "config", "duration (s)", "VM wait (s)"],
    )
    for (scheduler, config), (duration, wait) in results.items():
        table.add_row(scheduler, config.value, duration / 1e9, wait / 1e9)
    print()
    print(table.render())

    for scheduler in ("credit", "vrt"):
        vanilla_d, vanilla_w = results[(scheduler, Config.VANILLA)]
        vscale_d, vscale_w = results[(scheduler, Config.VSCALE)]
        # The mechanism generalizes: on both substrates vScale slashes the
        # VM's scheduling-queue waiting time.
        assert vscale_w < vanilla_w * 0.35, scheduler
    # The *runtime* benefit depends on how much delay the substrate
    # inflicts: the credit scheduler's 30ms slices amplify stragglers, so
    # vScale wins outright there; the virtual-runtime scheduler already
    # interleaves finely (less straggling to save), so vScale only has to
    # stay in the same ballpark.
    credit_vanilla, _ = results[("credit", Config.VANILLA)]
    credit_vscale, _ = results[("credit", Config.VSCALE)]
    assert credit_vscale <= credit_vanilla * 1.05
    vrt_vanilla, _ = results[("vrt", Config.VANILLA)]
    vrt_vscale, _ = results[("vrt", Config.VSCALE)]
    assert vrt_vscale <= vrt_vanilla * 1.4
