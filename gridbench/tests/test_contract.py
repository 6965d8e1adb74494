"""The benchmark's declared metrics, its output and its checks agree."""

import json
import os

import run
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_declared_metrics_are_the_ones_printed():
    bench = _declared()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_exact_metrics_are_recorded_per_seed():
    for (name, _seed), entry in run.load_recorded().items():
        assert len(entry["digests"]) == WORKLOADS[name].units
        if "counts" in entry:
            assert sorted(entry["counts"]) == run.EXACT


def test_results_changed_counts_mismatched_units():
    recorded = ["a", "b", "c"]
    assert run.results_changed(["a", "b", "c"], recorded) == (0, 3)
    assert run.results_changed(["a", "x", "c"], recorded) == (1, 3)
    assert run.results_changed(["a", "b"], recorded) == (1, 3)
    # No reference for the seed: nothing checked, nothing changed.
    assert run.results_changed(["a"], None) == (0, 0)


def test_malformed_and_missing_units_fail():
    report = {"units": [["u1", "d1", True], ["u2", "d2", False]], "error": None}
    assert run.check_units(report, expected=2) == (1, False)
    assert run.check_units(report, expected=3) == (2, False)
    assert run.check_units({"units": [["u", "d", True]], "error": None}, 1) == (0, True)
    assert run.check_units({"units": [], "error": "Traceback"}, 1) == (1, False)
