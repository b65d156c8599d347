"""Tests for the per-figure experiment modules (fast analytic figures, plus
miniature versions of the simulation campaigns)."""

import pytest

from repro.core.config import PhastlaneConfig
from repro.harness.experiments import (
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    tables,
)
from repro.harness.experiments.configs import optical_configs, standard_configs
from repro.harness.experiments.splash2_runs import compute_matrix
from repro.photonics.constants import NIC_BUFFER_ENTRIES, PAYLOAD_WDM
from repro.photonics.dse import DesignSpaceExplorer
from repro.photonics.latency import max_hops_per_cycle
from repro.vectorized.config import VectorizedConfig


class TestAnalyticFigures:
    def test_fig04_renders(self):
        data = fig04.compute()
        text = fig04.render(data)
        assert "transmit/optimistic" in text
        assert "Canonical 16 nm endpoints" in text

    def test_fig05_renders_all_rows(self):
        data = fig05.compute()
        assert len(data.delays) == 9
        text = fig05.render(data)
        assert "PP (ps)" in text and "pessimistic" in text

    def test_fig06_matches_paper(self):
        data = fig06.compute()
        assert data.wdm_independent
        for scenario, expected in fig06.EXPECTED_HOPS.items():
            assert set(data.hops[scenario].values()) == {expected}
        assert "paper" in fig06.render(data)

    def test_fig07_anchor_table(self):
        data = fig07.compute()
        for (wdm, hops, eta), paper_w in fig07.PAPER_ANCHORS.items():
            assert data.at(wdm, hops, eta).peak_power_w == pytest.approx(
                paper_w, rel=0.05
            )
        assert "peak optical power" in fig07.render(data)

    def test_fig07_missing_point_rejected(self):
        data = fig07.compute()
        with pytest.raises(KeyError):
            data.at(99, 1, 0.98)

    def test_fig08_sweet_spot(self):
        data = fig08.compute()
        assert data.sweet_spot == 64
        assert "sweet spot: 64" in fig08.render(data)


class TestTables:
    def test_all_four_tables_render(self):
        text = tables.render_all()
        for title in ("Table 1", "Table 2", "Table 3", "Table 4"):
            assert title in text

    def test_table_contents(self):
        assert tables.table2()["number_of_vcs_per_port"] == 10
        assert tables.table3()["fmm"] == "512 K particles"
        assert tables.table4()["block_size"] == "32B L1, 64B L2"

    def test_default_config_matches_table1(self):
        """The config defaults are the derived design point: the solver's
        pessimistic budget at the WDM degree the area model selects."""
        derived = tables.table1()
        pessimistic = max_hops_per_cycle("pessimistic", PAYLOAD_WDM)
        assert PhastlaneConfig().max_hops_per_cycle == pessimistic
        assert VectorizedConfig().max_hops_per_cycle == pessimistic
        assert str(pessimistic) in str(derived["max_hops_per_cycle"]).split(", ")
        assert PAYLOAD_WDM == DesignSpaceExplorer().select_wdm()
        assert PAYLOAD_WDM == derived["packet_payload_wdm"]
        assert NIC_BUFFER_ENTRIES == derived["buffer_entries_in_nic"]


class TestConfigSets:
    def test_standard_configs_cover_section5(self):
        labels = set(standard_configs())
        assert labels == {
            "Electrical3",
            "Electrical2",
            "Optical4",
            "Optical5",
            "Optical8",
            "Optical4B32",
            "Optical4B64",
            "Optical4IB",
        }

    def test_optical_variants(self):
        configs = optical_configs()
        assert configs["Optical4B64"].buffer_entries == 64
        assert configs["Optical4IB"].buffer_entries is None
        assert configs["Optical8"].max_hops_per_cycle == 8


class TestMiniatureCampaigns:
    """Scaled-down versions of the Fig 9-11 simulation campaigns."""

    def test_fig09_miniature(self):
        data = fig09.compute(
            patterns=("transpose",),
            labels=("Optical4", "Electrical3"),
            rates=(0.05,),
            cycles=400,
        )
        optical = data.curves["transpose"]["Optical4"][0]
        electrical = data.curves["transpose"]["Electrical3"][0]
        assert optical.mean_latency < electrical.mean_latency
        assert "Figure 9" in fig09.render(data)

    def test_fig10_fig11_share_matrix(self):
        matrix = compute_matrix(
            benchmarks=("radix",),
            labels=("Electrical3", "Optical4"),
            duration_cycles=400,
        )
        speedups = fig10.from_matrix(matrix)
        power = fig11.from_matrix(matrix)
        assert speedups.speedups["radix"]["Electrical3"] == 1.0
        assert speedups.speedups["radix"]["Optical4"] > 1.5
        assert power.savings_vs_baseline("radix", "Optical4") > 0.5
        assert "geomean" in fig10.render(speedups)
        assert "mean saving" in fig11.render(power)

    def test_matrix_cached(self):
        first = compute_matrix(
            benchmarks=("radix",),
            labels=("Electrical3", "Optical4"),
            duration_cycles=400,
        )
        second = compute_matrix(
            benchmarks=("radix",),
            labels=("Electrical3", "Optical4"),
            duration_cycles=400,
        )
        assert first is second
