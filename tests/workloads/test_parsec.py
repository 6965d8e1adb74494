"""Tests for the PARSEC workload models."""

from dataclasses import replace

import pytest

from repro.sim.rng import SeedSequenceFactory
from repro.units import SEC
from repro.workloads.parsec import PARSEC_PROFILES, ParsecApp
from tests.conftest import StackBuilder


def run_app(name, scale=0.05, nthreads=None):
    builder = StackBuilder(pcpus=4)
    kernel = builder.guest("vm", vcpus=4)
    seeds = SeedSequenceFactory(1)
    profile = PARSEC_PROFILES[name]
    if profile.kind == "pipeline":
        profile = replace(profile, items=max(8, round(profile.items * scale)))
    else:
        profile = replace(profile, iterations=max(1, round(profile.iterations * scale)))
    app = ParsecApp(kernel, profile, seeds.generator("parsec"), nthreads=nthreads)
    app.launch()
    machine = builder.start()
    machine.run(until=120 * SEC)
    return app, kernel


def test_profiles_cover_the_suite():
    assert len(PARSEC_PROFILES) == 13
    kinds = {p.kind for p in PARSEC_PROFILES.values()}
    assert kinds == {"barrier", "pipeline", "locks", "compute", "openmp"}


def test_scaled_moves_items_for_pipelines_and_iterations_otherwise():
    dedup, bodytrack = PARSEC_PROFILES["dedup"], PARSEC_PROFILES["bodytrack"]
    assert dedup.scaled(0.05).items == 125
    assert dedup.scaled(0.0001).items == 4
    assert bodytrack.scaled(0.05).iterations == 18
    assert PARSEC_PROFILES["swaptions"].scaled(0.05).iterations == 1
    assert bodytrack.with_input("simlarge") == bodytrack.scaled(4.0)


@pytest.mark.parametrize(
    "name", ["dedup", "streamcluster", "bodytrack", "swaptions", "freqmine", "ferret"]
)
def test_apps_run_to_completion(name):
    app, kernel = run_app(name)
    assert app.done
    assert app.duration_ns > 0


def test_pipeline_produces_and_consumes_all_items():
    app, kernel = run_app("dedup", scale=0.05)
    assert app.done
    # One producer + (nthreads-1) consumers were launched.
    assert len(app.harness.threads) == 4


def test_dedup_generates_cross_vcpu_ipis():
    """The paper's signature observation: dedup is IPI-heavy."""
    app, kernel = run_app("dedup", scale=0.2)
    total_ipis = sum(int(v.ipi_received) for v in kernel.domain.vcpus)
    assert total_ipis > 100


def test_swaptions_generates_almost_no_ipis():
    app, kernel = run_app("swaptions", scale=1.0)
    total_ipis = sum(int(v.ipi_received) for v in kernel.domain.vcpus)
    assert total_ipis < 50


def test_serial_sections_run_on_rank0_only():
    app, kernel = run_app("streamcluster", scale=0.05)
    execs = sorted(t.exec_ns for t in app.harness.threads)
    # Rank 0 does the serial portions: it must be the biggest consumer.
    rank0 = next(t for t in app.harness.threads if t.name.endswith(".t0"))
    assert rank0.exec_ns == max(execs)


def test_unknown_kind_rejected():
    builder = StackBuilder(pcpus=2)
    kernel = builder.guest("vm", vcpus=2)
    seeds = SeedSequenceFactory(1)
    bogus = replace(PARSEC_PROFILES["vips"], kind="quantum")
    app = ParsecApp(kernel, bogus, seeds.generator("x"))
    with pytest.raises(ValueError):
        app.launch()
