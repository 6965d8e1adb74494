"""Smoke/shape tests for the application experiments (Figures 6-14),
run at reduced scale so the suite stays fast; the full-scale runs live in
benchmarks/."""

import pytest

from repro.experiments import fig6_7, fig8, fig9, fig10, fig11_13, fig14, generality
from repro.experiments.setups import WARMUP_NS, Config
from repro.units import MS, SEC
from repro.workloads.openmp import SPINCOUNT_ACTIVE, SPINCOUNT_PASSIVE


class TestNPBCells:
    def test_cell_measurements_consistent(self):
        from repro.experiments.npb_common import run_cell

        cell = run_cell("ep", 4, SPINCOUNT_ACTIVE, Config.VANILLA, work_scale=0.2)
        assert cell.duration_ns > 0
        assert cell.cpu_used_ns > 0
        assert cell.ipi_rate_per_vcpu >= 0

    def test_vscale_reduces_waiting_time(self):
        from repro.experiments.npb_common import run_cell

        vanilla = run_cell("cg", 4, SPINCOUNT_ACTIVE, Config.VANILLA, work_scale=0.3)
        vscale = run_cell("cg", 4, SPINCOUNT_ACTIVE, Config.VSCALE, work_scale=0.3)
        assert vscale.wait_ns < vanilla.wait_ns * 0.5

    def test_unknown_app_rejected(self):
        from repro.experiments.npb_common import run_cell

        with pytest.raises(KeyError):
            run_cell("zz", 4, 0, Config.VANILLA)


class TestFig6Shape:
    def test_sync_heavy_app_improves(self):
        result = fig6_7.run(
            vcpus=4,
            apps=["ua"],
            spincounts=(SPINCOUNT_ACTIVE,),
            configs=[Config.VANILLA, Config.VSCALE],
            work_scale=0.5,
        )
        assert result.normalized("ua", SPINCOUNT_ACTIVE, Config.VSCALE) < 0.9

    def test_insensitive_app_unchanged(self):
        result = fig6_7.run(
            vcpus=4,
            apps=["ep"],
            spincounts=(SPINCOUNT_ACTIVE,),
            configs=[Config.VANILLA, Config.VSCALE],
            work_scale=0.5,
        )
        assert result.normalized("ep", SPINCOUNT_ACTIVE, Config.VSCALE) == pytest.approx(
            1.0, abs=0.25
        )


class TestFig8:
    def test_trace_oscillates_within_bounds(self):
        result = fig8.run(vcpus=4, work_scale=0.6)
        assert result.trace, "no scaling activity recorded"
        assert result.levels() <= {1, 2, 3, 4}
        assert len(result.levels()) >= 2  # it actually oscillates


class TestFig9:
    def test_waiting_time_reduction_large(self):
        result = fig9.run(apps=["cg"], include_pvlock=False, work_scale=0.3)
        assert result.reduction("cg") > 0.5


class TestFig10:
    def test_spin_policy_controls_ipi_rate(self):
        result = fig10.run(apps=["sp"], work_scale=0.3)
        heavy_spin = result.rate("sp", SPINCOUNT_ACTIVE)
        passive = result.rate("sp", SPINCOUNT_PASSIVE)
        # Blocking synchronization needs wake-up IPIs; spinning does not.
        assert passive > heavy_spin * 3
        assert passive > 50


class TestParsec:
    def test_dedup_ipi_signature_and_improvement(self):
        cellv = fig11_13.run_cell("dedup", 4, Config.VANILLA, work_scale=0.4)
        cells = fig11_13.run_cell("dedup", 4, Config.VSCALE, work_scale=0.4)
        assert cellv.ipi_rate_per_vcpu > 100
        # Packing converts inter-vCPU wake-ups into intra-vCPU ones.
        assert cells.ipi_rate_per_vcpu < cellv.ipi_rate_per_vcpu

    def test_swaptions_marginal(self):
        result = fig11_13.run(
            vcpus=4, apps=["swaptions"], configs=[Config.VANILLA, Config.VSCALE]
        )
        assert result.normalized("swaptions", Config.VSCALE) == pytest.approx(1.0, abs=0.15)


class TestFig14:
    def test_vscale_keeps_connection_time_low(self):
        vanilla = fig14.run_point(Config.VANILLA, 8000, duration_ns=1 * SEC)
        vscale = fig14.run_point(Config.VSCALE, 8000, duration_ns=1 * SEC)
        assert vscale.connection_time.mean() < vanilla.connection_time.mean() * 0.5

    def test_low_rate_no_drops_anywhere(self):
        for config in (Config.VANILLA, Config.VSCALE):
            result = fig14.run_point(config, 1000, duration_ns=1 * SEC)
            assert result.drops == 0
            assert result.reply_rate == pytest.approx(1000, rel=0.05)


class TestGenerality:
    def test_violation_reports_time_since_launch(self, monkeypatch):
        from repro.sanitize import Sanitizer

        check = Sanitizer.check_dispatch

        def failing(self, sim, event):
            if sim.now >= WARMUP_NS + 10 * MS:
                self.fail("injected", "violation injected after the warm-up")
            check(self, sim, event)

        monkeypatch.setattr(Sanitizer, "check_dispatch", failing)
        cell = generality.run_cell("credit", Config.VSCALE, work_scale=0.05)
        assert not cell.holds
        assert "injected" in cell.violation
        # The app's own run time, not the absolute clock (warm-up included).
        assert 0 < cell.duration_ns < 1 * SEC
