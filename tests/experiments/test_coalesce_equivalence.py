"""Production-vs-oracle equivalence against the golden snapshots.

The golden tests (:mod:`tests.experiments.test_goldens`) run the
production configuration: the timer-wheel engine with off-CPU tick
coalescing.  This test re-runs cells under the heap reference oracle
(``REPRO_SIM_ENGINE=heap``: one real event per tick) and requires the
*same* golden bytes: coalescing must be invisible in every number these
experiments produce.
"""

import json

import pytest

from repro.experiments import results
from tests.experiments.test_goldens import CASES, GOLDENS


@pytest.mark.parametrize(
    "name", ["fig6_cell_cg_vscale", "faults_cell_cg_vscale", "table1"]
)
def test_heap_engine_matches_golden(monkeypatch, name):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "heap")
    path = GOLDENS / f"{name}.json"
    assert path.exists(), f"missing golden {path}"
    computed = json.loads(results.dumps(CASES[name](), experiment=name))
    assert computed == json.loads(path.read_text())
