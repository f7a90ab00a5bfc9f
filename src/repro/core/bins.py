"""Mobility metrics per 4-hour bin (§2.3).

"We then generate aggregated mobility statistics over six disjoint
4-hour bins of the day ..., and also over the entire day." The daily
pipeline (:mod:`repro.core.statistics`) covers the 24-hour window; this
module computes the per-bin variant, used to study *when* during the
day mobility collapsed (commute bins empty out, the night bins barely
change).

Requires a simulation run with ``keep_bin_dwell=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import AnchorPlan
from repro.mobility.trajectories import NUM_BINS
from repro.simulation.feeds import DataFeeds

__all__ = ["BinMetrics", "compute_bin_metrics", "BIN_LABELS"]

BIN_LABELS = (
    "00-04", "04-08", "08-12", "12-16", "16-20", "20-24",
)


@dataclass
class BinMetrics:
    """Across-user mean metrics per (day, 4-hour bin).

    ``entropy`` and ``gyration_km`` have shape (num_days, NUM_BINS).
    """

    entropy: np.ndarray
    gyration_km: np.ndarray

    @property
    def num_days(self) -> int:
        return int(self.entropy.shape[0])

    def bin_series(self, metric: str, bin_index: int) -> np.ndarray:
        """Daily series of one bin's across-user mean."""
        if not 0 <= bin_index < NUM_BINS:
            raise IndexError(f"bin {bin_index} outside [0, {NUM_BINS})")
        if metric == "entropy":
            return self.entropy[:, bin_index]
        if metric == "gyration":
            return self.gyration_km[:, bin_index]
        raise KeyError(f"unknown metric {metric!r}")


def compute_bin_metrics(
    feeds: DataFeeds, gyration_mode: str = "weighted"
) -> BinMetrics:
    """Across-user mean entropy/gyration per (day, bin)."""
    mobility = feeds.mobility
    if mobility.bin_dwell is None:
        raise ValueError(
            "bin-level metrics need a run with keep_bin_dwell=True"
        )
    site_lats, site_lons = feeds.site_locations()
    anchors = mobility.anchor_sites
    plan = AnchorPlan(anchors, site_lats[anchors], site_lons[anchors])

    num_days = mobility.num_days
    entropy = np.empty((num_days, NUM_BINS))
    gyration = np.empty((num_days, NUM_BINS))
    for day in range(num_days):
        bins = mobility.bin_dwell[day].astype(np.float64)
        for bin_index in range(NUM_BINS):
            dwell = bins[:, bin_index, :]
            entropy[day, bin_index] = plan.entropy(dwell).mean()
            gyration[day, bin_index] = plan.gyration(
                dwell, gyration_mode
            ).mean()
    return BinMetrics(entropy=entropy, gyration_km=gyration)
