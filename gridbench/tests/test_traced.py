"""The traced run's checks, on synthetic pass reports."""

import pytest

import run
from workloads import WORKLOADS

NAME = "host_50vm"
UNITS = WORKLOADS[NAME].units


def _report(digest="d"):
    layers = {name: 1.0 for name in run.PER_LAYER
              if not name.startswith(("bench.", "parallel."))}
    layers.update({"bench.attributed_frac": 1.0, "parallel.self_s": 0.0,
                   "parallel.key_s": 0.0, "parallel.cache_put_s": 0.0})
    return {
        "units": [[f"vm{i}", digest, True] for i in range(UNITS)],
        "error": None, "model_err": 0.5, "root_s": 2.0, "t_entry": 0.0, "t_done": 2.0,
        "cells": [], "jobs": 1, "recovered_cells": 0, "layers": layers,
    }


@pytest.fixture
def passes(monkeypatch):
    reports = {"run": _report(), "traced": _report()}
    launched = reports["launched"] = []

    def launch(name, seed, mode, jobs, work, spans=None):
        launched.append((mode, jobs))
        return reports[mode]

    monkeypatch.setattr(run, "launch", launch)
    monkeypatch.setattr(run, "load_recorded", lambda: {})
    return reports


def _recorded(monkeypatch, counts):
    entry = {"workload": NAME, "seed": 1, "digests": ["d"] * UNITS, "counts": counts}
    monkeypatch.setattr(run, "load_recorded", lambda: {(NAME, 1): entry})


def test_counts_that_repeat_are_not_changed(passes, monkeypatch, tmp_path):
    result, info = run.run_traced(NAME, 1, str(tmp_path))
    assert result["correct"] and sorted(info["counts"]) == run.EXACT
    _recorded(monkeypatch, info["counts"])
    result, _ = run.run_traced(NAME, 1, str(tmp_path))
    metrics = result["metrics"]
    assert metrics["bench.counts_checked"] == len(run.EXACT)
    assert metrics["bench.counts_changed"] == 0
    assert metrics["bench.results_changed"] == 0
    assert metrics["bench.tracing_overhead"] == 1.0


def test_a_moved_count_or_result_is_reported(passes, monkeypatch, tmp_path):
    _, info = run.run_traced(NAME, 1, str(tmp_path))
    _recorded(monkeypatch, dict(info["counts"], **{"sim.events_dispatched": 7.0}))
    passes["run"] = _report("e")
    passes["traced"] = _report("e")
    result, _ = run.run_traced(NAME, 1, str(tmp_path))
    assert result["metrics"]["bench.counts_changed"] == 1
    assert result["metrics"]["bench.results_changed"] == UNITS
    assert result["correct"]  # a moved result is counted, not a failure


def test_tracing_that_perturbs_results_is_incorrect(passes, tmp_path):
    passes["traced"] = _report("other")
    result, _ = run.run_traced(NAME, 1, str(tmp_path))
    assert not result["correct"]


def test_telemetry_comes_from_a_pass_at_the_e2e_worker_count(passes, tmp_path):
    pooled = _report()
    pooled.update(jobs=run.JOBS, cells=[[0.0, 2.0]], t_done=2.0)
    passes["run"] = pooled
    result, _ = run.run_traced(NAME, 1, str(tmp_path))
    assert passes["launched"] == [("run", run.JOBS), ("run", 1), ("traced", 1)]
    # One cell on two workers: the other worker idles the whole cell.
    assert result["metrics"]["parallel.worker_idle_s"] == 2.0


def test_unattributed_host_time_is_incorrect(passes, tmp_path):
    passes["traced"]["layers"]["bench.attributed_frac"] = run.MIN_ATTRIBUTED - 0.01
    result, _ = run.run_traced(NAME, 1, str(tmp_path))
    assert not result["correct"]
