"""Set-up probes stop at the first cell start, past every handler."""

import os

import pytest

import run
from child import ProbeDone

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_probe_done_passes_exception_handlers():
    with pytest.raises(ProbeDone):
        try:
            raise ProbeDone(1.0)
        except Exception:  # what the workloads and experiments catch
            pytest.fail("ProbeDone was caught as an Exception")


@pytest.mark.parametrize("workload", ["npb_parsec_grid", "host_50vm"])
def test_probe_samples_a_cell_start_after_the_entry_call(workload, monkeypatch, tmp_path):
    # The grid's cells start in pool workers, behind the experiments'
    # own exception handlers: the probe must still reach one.
    monkeypatch.chdir(ROOT)
    report = run.launch(workload, 1, "probe", run.JOBS, str(tmp_path))
    assert report["t_launch"] < report["t_entry"] < report["t_first_cell"]
    assert report["units"] == []
