"""Tests for the process-pool experiment executor."""

import pytest

from repro.parallel import (
    CellSpec,
    ParallelExecutor,
    ResultCache,
    Telemetry,
    WarmKey,
    get_default_executor,
)
from tests.parallel import cellfns


def specs_for(values, **extra):
    return [
        CellSpec("unit", f"cell-{v}", cellfns.square, dict(x=v, **extra))
        for v in values
    ]


def test_inline_execution_preserves_order():
    executor = ParallelExecutor(jobs=1)
    assert executor.run_cells(specs_for([3, 1, 2])) == [9, 1, 4]


def test_pool_execution_preserves_order():
    executor = ParallelExecutor(jobs=3)
    values = list(range(10))
    assert executor.run_cells(specs_for(values)) == [v * v for v in values]


def test_pool_uses_worker_processes():
    import os

    executor = ParallelExecutor(jobs=2)
    specs = [
        CellSpec("unit", f"pid-{v}", cellfns.pid_tag, dict(x=v)) for v in range(4)
    ]
    outcomes = executor.run_cells(specs)
    assert [x for x, _ in outcomes] == list(range(4))
    # At least one cell ran outside the parent process.
    assert any(pid != os.getpid() for _, pid in outcomes)


def test_single_pending_cell_runs_inline():
    import os

    executor = ParallelExecutor(jobs=8)
    [(x, pid)] = executor.run_cells(
        [CellSpec("unit", "solo", cellfns.pid_tag, dict(x=7))]
    )
    assert (x, pid) == (7, os.getpid())


def test_cell_exceptions_propagate():
    executor = ParallelExecutor(jobs=1)
    with pytest.raises(RuntimeError, match="cell 5 failed"):
        executor.run_cells([CellSpec("unit", "boom", cellfns.boom, dict(x=5))])


def test_cache_skips_reexecution(tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    cache = ResultCache(tmp_path / "cache")
    specs = [
        CellSpec(
            "unit",
            f"cell-{v}",
            cellfns.square_with_marker,
            dict(x=v, marker_dir=str(markers)),
        )
        for v in range(3)
    ]
    first = ParallelExecutor(jobs=1, cache=cache)
    assert first.run_cells(specs) == [0, 1, 4]
    assert len(list(markers.iterdir())) == 3
    assert (first.telemetry.hits, first.telemetry.misses) == (0, 3)

    second = ParallelExecutor(jobs=1, cache=cache)
    assert second.run_cells(specs) == [0, 1, 4]
    # No cell was re-executed: the marker count did not grow.
    assert len(list(markers.iterdir())) == 3
    assert (second.telemetry.hits, second.telemetry.misses) == (3, 0)


def test_no_cache_always_reexecutes(tmp_path):
    markers = tmp_path / "markers"
    markers.mkdir()
    spec = CellSpec(
        "unit", "cell", cellfns.square_with_marker, dict(x=2, marker_dir=str(markers))
    )
    executor = ParallelExecutor(jobs=1, cache=None)
    assert executor.run_cell(spec) == 4
    assert executor.run_cell(spec) == 4
    assert len(list(markers.iterdir())) == 2
    assert (executor.telemetry.hits, executor.telemetry.misses) == (0, 2)


def test_corrupt_cache_entry_recomputed(tmp_path):
    cache = ResultCache(tmp_path)
    spec = CellSpec("unit", "cell", cellfns.square, dict(x=6))
    executor = ParallelExecutor(jobs=1, cache=cache)
    assert executor.run_cell(spec) == 36
    [entry] = list(cache.entries())
    entry.write_bytes(b"not a pickle")
    assert executor.run_cell(spec) == 36
    assert executor.telemetry.misses == 2


def test_telemetry_records_timestamps():
    telemetry = Telemetry()
    executor = ParallelExecutor(jobs=1, telemetry=telemetry)
    executor.run_cells(specs_for([1, 2]))
    assert len(telemetry.records) == 2
    for record in telemetry.records:
        assert record.finished >= record.started
        assert not record.cache_hit
    assert "misses=2" in telemetry.summary()
    payload = telemetry.to_dict()
    assert payload["misses"] == 2
    assert len(payload["cells"]) == 2


def warm_specs(bases=(10, 20), values=(1, 2, 3, 4)):
    """Cells over the warm keys ``cellfns.warm_state(base)``, one per base."""
    return [
        CellSpec(
            "unit", f"cell-{base}-{v}", cellfns.warm_add, dict(x=v, base=base),
            warm=WarmKey(cellfns.warm_state, dict(base=base)),
        )
        for base in bases
        for v in values
    ]


def test_warm_groups_share_warmups():
    expected = [11, 12, 13, 14, 21, 22, 23, 24]
    pooled = ParallelExecutor(jobs=2)
    assert pooled.run_cells(warm_specs()) == expected
    # Each key's cells are dealt to both workers: at most 2 x 2 warm-ups.
    assert pooled.telemetry.warmups <= 4
    assert len(pooled.telemetry.records) == 8

    inline = ParallelExecutor(jobs=1)
    assert inline.run_cells(warm_specs()) == expected
    assert inline.telemetry.warmups == 8
    assert "warmups=8" in inline.telemetry.summary()
    assert inline.telemetry.to_dict()["warmups"] == 8


def test_trace_dir_turns_warm_sharing_off(tmp_path):
    executor = ParallelExecutor(jobs=2, trace_dir=tmp_path)
    assert executor.run_cells(warm_specs()) == [11, 12, 13, 14, 21, 22, 23, 24]
    assert executor.telemetry.warmups == 8


def test_jobs_floor_is_one():
    assert ParallelExecutor(jobs=0).jobs == 1
    assert ParallelExecutor(jobs=-3).jobs == 1


def test_default_executor_is_shared():
    assert get_default_executor() is get_default_executor()
