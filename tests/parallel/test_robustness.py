"""Tests for the executor's timeout/crash recovery and cache integrity."""

import os

import pytest

from repro.parallel import CellSpec, ParallelExecutor, ResultCache, WarmKey
from repro.parallel.cache import MISS
from repro.parallel.executor import (
    ENV_CELL_RETRIES,
    ENV_CELL_TIMEOUT,
    cell_retries_from_env,
    cell_timeout_from_env,
)
from tests.parallel import cellfns


def specs_for(values, fn=cellfns.square, **extra):
    return [
        CellSpec("unit", f"cell-{v}", fn, dict(x=v, **extra)) for v in values
    ]


def warm_specs(values, fn=cellfns.warm_add, base=10, **extra):
    """Cells sharing the warm state ``cellfns.warm_state(base)``."""
    warm = WarmKey(cellfns.warm_state, dict(base=base))
    return [
        CellSpec("unit", f"cell-{v}", fn, dict(x=v, base=base, **extra), warm=warm)
        for v in values
    ]


class TestWorkerCrashRecovery:
    def test_crashed_cells_recovered_serially(self):
        executor = ParallelExecutor(jobs=2, max_retries=0)
        specs = specs_for([1, 2], fn=cellfns.crash_in_worker)
        specs += specs_for([3, 4])
        results = executor.run_cells(specs)
        assert results == [1, 4, 9, 16]
        assert executor.telemetry.recovered_cells >= 1
        recovered = [
            r for r in executor.telemetry.records if r.recovered == "crash"
        ]
        assert recovered
        assert all(r.attempts >= 2 for r in recovered)
        assert "recovered=" in executor.telemetry.summary()

    def test_crash_retries_consume_generations(self):
        executor = ParallelExecutor(jobs=2, max_retries=2)
        results = executor.run_cells(specs_for([5, 6], fn=cellfns.crash_in_worker))
        assert results == [25, 36]
        # Each crashing cell burned its pool retries before the serial
        # fallback rescued it: 1 + 2 pool attempts + 1 serial.
        for record in executor.telemetry.records:
            assert record.recovered == "crash"
            assert record.attempts == 4

    def test_innocent_cells_survive_a_crashing_sibling(self):
        executor = ParallelExecutor(jobs=3, max_retries=1)
        specs = specs_for([9], fn=cellfns.crash_in_worker) + specs_for(
            [10, 11, 12, 13]
        )
        assert executor.run_cells(specs) == [81, 100, 121, 144, 169]


class TestTimeoutRecovery:
    def test_hung_cell_times_out_and_recovers(self):
        executor = ParallelExecutor(jobs=2, cell_timeout_s=0.5, max_retries=0)
        specs = specs_for([2], fn=cellfns.sleepy_in_worker, sleep_s=60.0)
        specs += specs_for([3])
        results = executor.run_cells(specs)
        assert results == [4, 9]
        [record] = [
            r for r in executor.telemetry.records if r.recovered == "timeout"
        ]
        assert record.cell == "cell-2"

    def test_fast_cells_unaffected_by_timeout(self):
        executor = ParallelExecutor(jobs=2, cell_timeout_s=30.0)
        assert executor.run_cells(specs_for([1, 2, 3])) == [1, 4, 9]
        assert executor.telemetry.recovered_cells == 0


class TestCellBugsStillPropagate:
    def test_pool_mode_exceptions_are_not_swallowed(self):
        executor = ParallelExecutor(jobs=2, max_retries=3)
        # Either cell's exception may surface first; both are real bugs.
        with pytest.raises(RuntimeError, match=r"cell [56] failed"):
            executor.run_cells(
                specs_for([5, 6], fn=cellfns.boom)
            )


class TestWarmGroups:
    """Cells forked from a shared warm state keep per-cell recovery.

    Two workers deal one warm key's cells into two chunks of at least
    two, so every failing cell below has siblings in its chunk.
    """

    def test_crashed_forked_cell_recovered_serially(self):
        executor = ParallelExecutor(jobs=2, max_retries=0)
        specs = warm_specs([1], fn=cellfns.warm_crash_in_worker)
        specs += warm_specs([2, 3, 4, 5])
        assert executor.run_cells(specs) == [11, 12, 13, 14, 15]
        [record] = [r for r in executor.telemetry.records if r.recovered]
        assert (record.cell, record.recovered) == ("cell-1", "crash")
        # Two shared warm-ups, plus the crashed cell's own in the fallback.
        assert executor.telemetry.warmups == 3

    def test_hung_forked_cell_times_out_without_losing_siblings(self):
        executor = ParallelExecutor(jobs=2, cell_timeout_s=0.5, max_retries=0)
        specs = warm_specs([2], fn=cellfns.warm_sleepy_in_worker, sleep_s=60.0)
        specs += warm_specs([3, 4, 5, 6])
        assert executor.run_cells(specs) == [12, 13, 14, 15, 16]
        [record] = [r for r in executor.telemetry.records if r.recovered]
        assert (record.cell, record.recovered) == ("cell-2", "timeout")
        assert executor.telemetry.warmups == 3

    def test_forked_cell_exceptions_propagate(self):
        executor = ParallelExecutor(jobs=2, max_retries=3)
        specs = warm_specs([5], fn=cellfns.warm_boom) + warm_specs([6, 7, 8])
        with pytest.raises(RuntimeError, match="cell 5 failed"):
            executor.run_cells(specs)


class TestEnvKnobs:
    def test_timeout_parsing(self, monkeypatch):
        monkeypatch.delenv(ENV_CELL_TIMEOUT, raising=False)
        assert cell_timeout_from_env() is None
        monkeypatch.setenv(ENV_CELL_TIMEOUT, "2.5")
        assert cell_timeout_from_env() == 2.5
        monkeypatch.setenv(ENV_CELL_TIMEOUT, "0")
        assert cell_timeout_from_env() is None
        monkeypatch.setenv(ENV_CELL_TIMEOUT, "-1")
        assert cell_timeout_from_env() is None

    def test_retries_parsing(self, monkeypatch):
        monkeypatch.delenv(ENV_CELL_RETRIES, raising=False)
        assert cell_retries_from_env() == 1
        monkeypatch.setenv(ENV_CELL_RETRIES, "3")
        assert cell_retries_from_env() == 3
        monkeypatch.setenv(ENV_CELL_RETRIES, "-2")
        assert cell_retries_from_env() == 0

    def test_constructor_reads_env(self, monkeypatch):
        monkeypatch.setenv(ENV_CELL_TIMEOUT, "1.5")
        monkeypatch.setenv(ENV_CELL_RETRIES, "4")
        executor = ParallelExecutor(jobs=1)
        assert executor.cell_timeout_s == 1.5
        assert executor.max_retries == 4

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv(ENV_CELL_TIMEOUT, "1.5")
        executor = ParallelExecutor(jobs=1, cell_timeout_s=9.0, max_retries=0)
        assert executor.cell_timeout_s == 9.0
        assert executor.max_retries == 0


class TestCacheIntegrity:
    def _one_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(jobs=1, cache=cache)
        spec = CellSpec("unit", "cell", cellfns.square, dict(x=6))
        assert executor.run_cell(spec) == 36
        [entry] = list(cache.entries())
        return cache, spec, entry

    def test_truncated_entry_quarantined(self, tmp_path):
        cache, spec, entry = self._one_entry(tmp_path)
        entry.write_bytes(entry.read_bytes()[:-3])
        assert cache.get(spec.key()) is MISS
        assert not entry.exists()
        assert len(cache.quarantined()) == 1
        assert cache.corruption_log == [spec.key()]

    def test_flipped_byte_quarantined(self, tmp_path):
        cache, spec, entry = self._one_entry(tmp_path)
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF
        entry.write_bytes(bytes(data))
        assert cache.get(spec.key()) is MISS
        assert len(cache.quarantined()) == 1

    def test_bad_magic_quarantined(self, tmp_path):
        cache, spec, entry = self._one_entry(tmp_path)
        entry.write_bytes(b"not a pickle")
        assert cache.get(spec.key()) is MISS
        assert len(cache.quarantined()) == 1

    def test_quarantine_does_not_pollute_entries(self, tmp_path):
        cache, spec, entry = self._one_entry(tmp_path)
        entry.write_bytes(b"garbage")
        assert cache.get(spec.key()) is MISS
        assert list(cache.entries()) == []
        # A fresh put works and round-trips again.
        cache.put(spec.key(), 36)
        assert cache.get(spec.key()) == 36

    def test_drain_corruptions_clears_log(self, tmp_path):
        cache, spec, entry = self._one_entry(tmp_path)
        entry.write_bytes(b"garbage")
        cache.get(spec.key())
        assert cache.drain_corruptions() == [spec.key()]
        assert cache.drain_corruptions() == []

    def test_executor_reports_corruption_in_telemetry(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = CellSpec("unit", "cell", cellfns.square, dict(x=6))
        first = ParallelExecutor(jobs=1, cache=cache)
        assert first.run_cell(spec) == 36
        [entry] = list(cache.entries())
        entry.write_bytes(b"garbage")
        second = ParallelExecutor(jobs=1, cache=cache)
        assert second.run_cell(spec) == 36  # treated as a miss, recomputed
        assert second.telemetry.misses == 1
        assert second.telemetry.corrupt_entries == [spec.key()]
        assert "corrupt_cache_entries=1" in second.telemetry.summary()
