"""Network-performance weekly series (Figs 8, 10, 11, 12).

The KPI feed is daily per-cell medians (§2.4). For each figure the
paper pools the per-cell daily values of a slice of cells (a region, a
geodemographic cluster, a London postal district, or the whole UK),
takes the weekly median, and reports the delta percentage against the
week-9 median of the same slice.

Every KPI of a figure is reduced over the same slice, so
:func:`performance_panels` selects the slice's rows and factorizes its
weeks and labels once, then runs only the value sort and the percentile
step per KPI. :func:`performance_series` is the one-KPI call of the
same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.baseline import WeekSegments, weekly_median_delta
from repro.frames import Frame, kernels
from repro.geo.build import STUDY_REGIONS
from repro.simulation.clock import BASELINE_WEEK
from repro.simulation.feeds import DataFeeds

__all__ = [
    "WeeklySeries",
    "performance_panels",
    "performance_series",
    "label_kpis",
    "PERF_METRICS",
]

# The §2.4 metric names as they appear in the KPI feed.
PERF_METRICS = (
    "dl_volume_mb",
    "ul_volume_mb",
    "dl_active_users",
    "user_dl_throughput_mbps",
    "radio_load_pct",
    "connected_users",
)

GROUPINGS = ("national", "region", "county", "district_area", "oac")

#: The label column each per-group grouping splits on.
_GROUP_COLUMNS = {
    "region": "region",
    "county": "county",
    "district_area": "area",
    "oac": "oac",
}


@dataclass
class WeeklySeries:
    """Weekly delta-percentage series per group for one KPI."""

    metric: str
    weeks: np.ndarray
    values: dict[str, np.ndarray]
    percentile: float = 50.0

    def group(self, name: str) -> np.ndarray:
        return self.values[name]

    def at_week(self, group: str, week: int) -> float:
        index = np.flatnonzero(self.weeks == week)
        if index.size == 0:
            raise KeyError(f"week {week} not in series")
        return float(self.values[group][index[0]])

    def minimum(self, group: str) -> tuple[int, float]:
        """(week, value) of the series minimum."""
        series = self.values[group]
        index = int(series.argmin())
        return int(self.weeks[index]), float(series[index])

    def maximum(self, group: str) -> tuple[int, float]:
        """(week, value) of the series maximum."""
        series = self.values[group]
        index = int(series.argmax())
        return int(self.weeks[index]), float(series[index])

    def to_frame(self) -> Frame:
        """Long-form frame: (group, week, change_pct) rows."""
        groups: list[str] = []
        weeks: list[int] = []
        changes: list[float] = []
        for group, values in self.values.items():
            for week, value in zip(self.weeks.tolist(), values):
                groups.append(str(group))
                weeks.append(int(week))
                changes.append(float(value))
        return Frame(
            {"group": groups, "week": weeks, "change_pct": changes}
        )


def label_kpis(
    feeds: DataFeeds, day_range: tuple[int, int] | None = None
) -> Frame:
    """Attach week / county / region / area / OAC labels to KPI rows.

    Uses direct array mapping (not a relational join) because the KPI
    frame has one row per (cell, day) and the labels are functions of
    the cell's postcode district.

    ``day_range`` keeps only rows whose day falls in ``[start, stop)``.
    Labeling is strictly row-wise, so the filtered result equals the
    same rows of the whole-feed call bitwise — the live-run analytics
    label each appended day range once and concatenate
    (:mod:`repro.analysis.mobility`).
    """
    kpis = feeds.radio_kpis
    if day_range is not None:
        lo, hi = int(day_range[0]), int(day_range[1])
        mask = (kpis["day"] >= lo) & (kpis["day"] < hi)
        kpis = Frame(
            {name: kpis[name][mask] for name in kpis.column_names}
        )
    geography = feeds.geography
    code_to_index = {
        district.code: index
        for index, district in enumerate(geography.districts)
    }
    # Look up each distinct postcode once, then broadcast by inverse.
    codes, inverse = np.unique(kpis["postcode"], return_inverse=True)
    try:
        code_index = np.array(
            [code_to_index[code] for code in codes.tolist()], dtype=np.int64
        )
    except KeyError as err:
        raise KeyError(
            f"KPI rows name postcode district {err.args[0]!r}, which the "
            f"geography does not have"
        ) from None
    district_index = code_index[inverse]
    districts = geography.districts
    county = np.array([d.county for d in districts])[district_index]
    region = np.array([d.region for d in districts])[district_index]
    area = np.array([d.area_code for d in districts])[district_index]
    oac = np.array([d.oac.value for d in districts])[district_index]
    weeks = feeds.calendar.weeks[kpis["day"]]
    out = kpis.with_column("week", weeks)
    out = out.with_column("county", county)
    out = out.with_column("region", region)
    out = out.with_column("area", area)
    return out.with_column("oac", oac)


def performance_series(
    feeds: DataFeeds,
    metric: str,
    grouping: str = "national",
    counties: tuple[str, ...] | None = None,
    restrict_county: str | None = None,
    include_national: bool = True,
    baseline_week: int = BASELINE_WEEK,
    percentile: float = 50.0,
    labeled: Frame | None = None,
) -> WeeklySeries:
    """Weekly median delta series for one KPI.

    Parameters
    ----------
    metric:
        KPI column name (see ``PERF_METRICS`` and the voice metrics).
    grouping:
        ``"national"`` — one UK-wide series; ``"region"`` — one series
        per broad region (London, North West, ...); ``"county"`` — one
        series per county (default: the five study regions);
        ``"district_area"`` — one series per postcode area (used with
        ``restrict_county`` for the London Fig 11); ``"oac"`` — one
        series per geodemographic cluster.
    counties:
        County names for the ``"county"`` grouping.
    restrict_county:
        Keep only cells of this county before grouping (Figs 11, 12).
    include_national:
        For the county grouping, add the "UK" series (Fig 8 plots both).
    percentile:
        50 reproduces the paper's medians; other values give the
        percentile bands mentioned in the text.
    labeled:
        Pre-labeled KPI frame from :func:`label_kpis` (avoids repeating
        the labelling for every metric).
    """
    return performance_panels(
        feeds,
        (metric,),
        grouping=grouping,
        counties=counties,
        restrict_county=restrict_county,
        include_national=include_national,
        baseline_week=baseline_week,
        percentile=percentile,
        labeled=labeled,
    )[metric]


def performance_panels(
    feeds: DataFeeds,
    metrics: tuple[str, ...],
    grouping: str = "national",
    counties: tuple[str, ...] | None = None,
    restrict_county: str | None = None,
    include_national: bool = True,
    baseline_week: int = BASELINE_WEEK,
    percentile: float = 50.0,
    labeled: Frame | None = None,
) -> dict[str, WeeklySeries]:
    """Weekly median delta series for several KPIs over one slice.

    Takes :func:`performance_series`'s parameters, with a tuple of
    ``metrics`` in place of one; each returned series is bitwise the
    one-KPI call's. The slice's rows (weeks from ``baseline_week`` on,
    ``restrict_county``'s cells) are selected and their weeks and
    group labels factorized once for all the KPIs.
    """
    if grouping not in GROUPINGS:
        raise ValueError(f"grouping must be one of {GROUPINGS}")
    frame = labeled if labeled is not None else label_kpis(feeds)
    keep = frame["week"] >= baseline_week
    if restrict_county is not None:
        keep &= frame["county"] == restrict_county
    rows = np.flatnonzero(keep)
    weeks = frame["week"][rows]

    national = None
    if grouping == "national" or (
        grouping == "county" and include_national
    ):
        national = WeekSegments(weeks)
    groups = None
    if grouping in _GROUP_COLUMNS:
        wanted = (
            list(counties or STUDY_REGIONS) if grouping == "county" else None
        )
        groups = _WeekGroups(
            weeks, frame[_GROUP_COLUMNS[grouping]][rows], wanted,
            baseline_week,
        )

    panels: dict[str, WeeklySeries] = {}
    for metric in metrics:
        if metric not in frame:
            raise KeyError(f"unknown KPI metric {metric!r}")
        values = frame[metric][rows]
        series: dict[str, np.ndarray] = {}
        axis: np.ndarray | None = None
        if national is not None:
            axis, series["UK"] = national.median_delta(
                values, baseline_week, percentile=percentile
            )
        if groups is not None:
            for name, group_axis, deltas in groups.deltas(values, percentile):
                axis, series[name] = group_axis, deltas
        if axis is None:
            raise ValueError("no data for the requested slice")
        panels[metric] = WeeklySeries(
            metric=metric, weeks=axis, values=series, percentile=percentile
        )
    return panels


def _grouped_weekly_delta(
    values: np.ndarray,
    weeks: np.ndarray,
    labels: np.ndarray,
    wanted: list[str] | None,
    baseline_week: int,
    percentile: float,
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Weekly percentile-delta series for every label in one kernel pass.

    Labels with no rows are skipped; ``wanted`` restricts and orders the
    output (default: all labels in sorted order).
    """
    return _WeekGroups(weeks, labels, wanted, baseline_week).deltas(
        values, percentile
    )


class _WeekGroups:
    """The value-independent half of the grouped weekly deltas.

    Factorizes (label, week) to composite segment codes once; each
    :meth:`deltas` call then computes every group's weekly percentile
    with a single sort by (segment, value), instead of rescanning the
    observation array once per label per week. The segment boundaries
    are those of the sorted codes, whatever the values.
    """

    def __init__(
        self,
        weeks: np.ndarray,
        labels: np.ndarray,
        wanted: list[str] | None,
        baseline_week: int,
    ) -> None:
        self.weeks, self.labels = weeks, labels
        self.wanted, self.baseline_week = wanted, baseline_week
        label_keys, label_codes = np.unique(labels, return_inverse=True)
        week_keys, week_codes = np.unique(weeks, return_inverse=True)
        self.composite = (
            label_codes.astype(np.int64) * week_keys.size + week_codes
        )
        sorted_composite = np.sort(self.composite)
        boundaries = np.ones(sorted_composite.size, dtype=bool)
        boundaries[1:] = sorted_composite[1:] != sorted_composite[:-1]
        self.starts = np.flatnonzero(boundaries)
        self.ends = np.append(self.starts[1:], sorted_composite.size)
        cell_codes = sorted_composite[self.starts]
        cell_labels = cell_codes // week_keys.size
        cell_weeks = week_keys[cell_codes % week_keys.size]

        if wanted is not None:
            positions = np.searchsorted(label_keys, wanted)
            selected = [
                (name, position)
                for name, position in zip(wanted, positions)
                if position < label_keys.size
                and label_keys[position] == name
            ]
        else:
            selected = [
                (str(name), position)
                for position, name in enumerate(label_keys.tolist())
            ]
        # (name, the group's cells, their weeks, the position of the
        # baseline week among them or None) per non-empty group.
        self.groups = []
        for name, position in selected:
            cells = np.flatnonzero(cell_labels == position)
            if cells.size == 0:
                continue
            group_axis = cell_weeks[cells]
            in_baseline = np.flatnonzero(group_axis == baseline_week)
            baseline_at = int(in_baseline[0]) if in_baseline.size else None
            self.groups.append((str(name), cells, group_axis, baseline_at))

    def deltas(
        self, values: np.ndarray, percentile: float
    ) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, weeks, delta_pct) per group for one value column."""
        if kernels.use_naive():
            return self._naive_deltas(values, percentile)
        order = np.lexsort((values, self.composite))
        per_cell = kernels.presorted_percentile(
            np.asarray(values, dtype=np.float64)[order],
            self.starts,
            self.ends,
            percentile,
        )
        out = []
        for name, cells, group_axis, baseline_at in self.groups:
            if baseline_at is None:
                raise ValueError(
                    f"no observations in week {self.baseline_week}"
                )
            group_values = per_cell[cells]
            baseline_value = float(group_values[baseline_at])
            if baseline_value == 0:
                raise ValueError("baseline value is zero")
            deltas = (group_values / baseline_value - 1.0) * 100.0
            out.append((name, group_axis, deltas))
        return out

    def _naive_deltas(
        self, values: np.ndarray, percentile: float
    ) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """Reference: one masked rescan per label."""
        labels = self.labels
        names = (
            self.wanted
            if self.wanted is not None
            else np.unique(labels).tolist()
        )
        out = []
        for name in names:
            mask = labels == name
            if not mask.any():
                continue
            group_axis, deltas = weekly_median_delta(
                values[mask], self.weeks[mask], self.baseline_week,
                percentile=percentile,
            )
            out.append((str(name), group_axis, deltas))
        return out
