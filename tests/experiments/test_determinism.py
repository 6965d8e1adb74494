"""Determinism regression: pooled execution == serial execution, bit for bit.

The simulator draws all randomness from named, seeded streams, so one
cell's result is a pure function of its parameters.  The parallel
executor relies on that: it may run cells in any process, in any order,
and serve them from cache, and the assembled results must still be
byte-identical to a plain serial run.  This test is the standing
correctness harness for ``repro.parallel`` (tier-1).
"""

import pytest

from repro.experiments import fig6_7, fig11_13, results
from repro.experiments.npb_common import run_cell
from repro.experiments.setups import Config, warm_scenario
from repro.parallel import CellSpec, ParallelExecutor
from repro.workloads.openmp import SPINCOUNT_ACTIVE

WORK_SCALE = 0.05
CONFIGS = (Config.VANILLA, Config.VSCALE)


def _specs():
    return [
        CellSpec(
            experiment="determinism",
            name=f"cg/{config.value}",
            fn=run_cell,
            kwargs=dict(
                app_name="cg",
                vcpus=4,
                spincount=SPINCOUNT_ACTIVE,
                config=config,
                seed=3,
                work_scale=WORK_SCALE,
            ),
        )
        for config in CONFIGS
    ]


def test_pool_matches_serial_cell_for_cell():
    serial = [
        run_cell("cg", 4, SPINCOUNT_ACTIVE, config, seed=3, work_scale=WORK_SCALE)
        for config in CONFIGS
    ]
    pooled_1 = ParallelExecutor(jobs=1).run_cells(_specs())
    pooled_4 = ParallelExecutor(jobs=4).run_cells(_specs())

    # The dataclasses compare field-by-field (durations, waits, IPI
    # rates, vCPU traces): equality here is exact, not approximate.
    assert serial == pooled_1 == pooled_4

    # And the rendered/serialized forms are bit-for-bit identical.
    for a, b, c in zip(serial, pooled_1, pooled_4):
        assert results.dumps(a) == results.dumps(b) == results.dumps(c)


def test_figure_result_identical_through_pool():
    kwargs = dict(
        vcpus=4,
        apps=["cg"],
        spincounts=(SPINCOUNT_ACTIVE,),
        configs=list(CONFIGS),
        work_scale=WORK_SCALE,
    )
    serial = fig6_7.run(**kwargs, executor=ParallelExecutor(jobs=1))
    pooled = fig6_7.run(**kwargs, executor=ParallelExecutor(jobs=4))
    assert serial.render() == pooled.render()
    assert results.dumps(serial, "fig6") == results.dumps(pooled, "fig6")


def _warm_group_specs():
    """NPB and PARSEC cells sharing one warm key per configuration."""
    specs = []
    for config in CONFIGS:
        specs += fig6_7.cells(
            vcpus=4, apps=["cg", "ep"], spincounts=(SPINCOUNT_ACTIVE,),
            configs=[config], seed=3, work_scale=WORK_SCALE,
        )
        specs += fig11_13.cells(
            vcpus=4, apps=["dedup", "blackscholes"], configs=[config],
            seed=3, work_scale=WORK_SCALE,
        )
    return specs


def test_warm_groups_match_inline_and_direct_calls():
    specs = _warm_group_specs()
    direct = [spec.fn(**spec.kwargs) for spec in specs]
    inline = ParallelExecutor(jobs=1).run_cells(specs)
    executor = ParallelExecutor(jobs=2)
    grouped = executor.run_cells(specs)
    # The 8 cells shared 2 keys x 2 workers = 4 warm-ups.
    assert executor.telemetry.warmups == 4

    assert direct == inline == grouped
    for a, b, c in zip(direct, inline, grouped):
        assert results.dumps(a) == results.dumps(b) == results.dumps(c)


def test_cells_reject_a_scenario_warmed_from_other_arguments():
    scenario = warm_scenario(seed=3, vcpus=4, config=Config.VANILLA)
    with pytest.raises(ValueError, match="warmed from"):
        run_cell("cg", 4, SPINCOUNT_ACTIVE, Config.VSCALE, seed=3, scenario=scenario)
    with pytest.raises(ValueError, match="warmed from"):
        fig11_13.run_cell("dedup", 4, Config.VANILLA, seed=4, scenario=scenario)

    run_cell(
        "cg", 4, SPINCOUNT_ACTIVE, Config.VANILLA, seed=3,
        work_scale=WORK_SCALE, scenario=scenario,
    )
    with pytest.raises(ValueError, match="past its warm-up"):
        run_cell("cg", 4, SPINCOUNT_ACTIVE, Config.VANILLA, seed=3, scenario=scenario)
