"""Differential tests for the shared KPI-figure code (Figs 8–12).

:func:`performance_panels` selects a figure's rows and factorizes its
weeks and labels once for all the figure's KPIs. Every series it
returns must be bitwise the one-KPI :func:`performance_series` call's
and bitwise the series a per-KPI masked rescan gives (the pre-sharing
definition, rebuilt here with ``Frame.filter`` and
:func:`weekly_median_delta`). The suite runs under both frame modes:
plainly, and with ``REPRO_FRAMES_NAIVE=1``, where every reduction on
either side takes the naive reference loops.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.baseline import weekly_median_delta
from repro.core.performance import (
    PERF_METRICS,
    label_kpis,
    performance_panels,
    performance_series,
)
from repro.core.voice_analysis import VOICE_METRICS, voice_series
from repro.geo.build import STUDY_REGIONS
from repro.simulation.clock import BASELINE_WEEK

# (grouping, keyword arguments): every grouping the figures use.
GROUPINGS = [
    ("national", {}),
    ("region", {}),
    ("county", {}),
    ("county", {"include_national": False}),
    ("county", {"counties": ("Inner London", "Nowhere", "Merseyside")}),
    ("district_area", {"restrict_county": "Inner London"}),
    ("oac", {}),
    ("oac", {"restrict_county": "Inner London"}),
]
LABEL_COLUMNS = {
    "region": "region",
    "county": "county",
    "district_area": "area",
    "oac": "oac",
}


def masked_reference(labeled, metric, grouping, percentile, **kwargs):
    """One KPI's series the per-KPI way: filter, then a rescan per label."""
    analysis = labeled.filter(labeled["week"] >= BASELINE_WEEK)
    county = kwargs.get("restrict_county")
    if county is not None:
        analysis = analysis.filter(analysis["county"] == county)
    values, weeks = analysis[metric], analysis["week"]
    series = {}
    if grouping == "national" or (
        grouping == "county" and kwargs.get("include_national", True)
    ):
        _, series["UK"] = weekly_median_delta(
            values, weeks, percentile=percentile
        )
    if grouping in LABEL_COLUMNS:
        labels = analysis[LABEL_COLUMNS[grouping]]
        if grouping == "county":
            names = list(kwargs.get("counties") or STUDY_REGIONS)
        else:
            names = np.unique(labels).tolist()
        for name in names:
            mask = labels == name
            if mask.any():
                _, series[name] = weekly_median_delta(
                    values[mask], weeks[mask], percentile=percentile
                )
    return series


def assert_series_bitwise(left, right):
    assert left.metric == right.metric
    assert left.percentile == right.percentile
    assert np.array_equal(left.weeks, right.weeks)
    assert list(left.values) == list(right.values)
    for name in left.values:
        assert left.values[name].tobytes() == right.values[name].tobytes()


@pytest.fixture(scope="module")
def labeled(feeds):
    return label_kpis(feeds)


@pytest.mark.parametrize("metrics", [PERF_METRICS, VOICE_METRICS])
@pytest.mark.parametrize("percentile", [50.0, 90.0])
@pytest.mark.parametrize("grouping,kwargs", GROUPINGS)
def test_figure_call_equals_per_kpi_calls(
    feeds, labeled, metrics, percentile, grouping, kwargs
):
    panels = performance_panels(
        feeds, metrics, grouping=grouping, percentile=percentile,
        labeled=labeled, **kwargs,
    )
    assert list(panels) == list(metrics)
    for metric in metrics:
        single = performance_series(
            feeds, metric, grouping=grouping, percentile=percentile,
            labeled=labeled, **kwargs,
        )
        assert_series_bitwise(panels[metric], single)
        reference = masked_reference(
            labeled, metric, grouping, percentile, **kwargs
        )
        assert list(panels[metric].values) == list(reference)
        for name, deltas in reference.items():
            assert panels[metric].values[name].tobytes() == deltas.tobytes()


def test_voice_series_is_the_national_figure_call(feeds, labeled):
    panels = voice_series(feeds, labeled=labeled)
    for metric in VOICE_METRICS:
        assert_series_bitwise(
            panels[metric],
            performance_series(feeds, metric, labeled=labeled),
        )


def test_unknown_metric_in_a_figure_call(feeds, labeled):
    with pytest.raises(KeyError, match="nope"):
        performance_panels(
            feeds, ("dl_volume_mb", "nope"), grouping="oac", labeled=labeled
        )


class TestLabelKpis:
    def test_labels_match_a_per_row_lookup(self, feeds, labeled):
        districts = {d.code: d for d in feeds.geography.districts}
        rows = [districts[code] for code in feeds.radio_kpis["postcode"]]
        expected = {
            "county": np.array([d.county for d in rows]),
            "region": np.array([d.region for d in rows]),
            "area": np.array([d.area_code for d in rows]),
            "oac": np.array([d.oac.value for d in rows]),
        }
        for column, values in expected.items():
            assert labeled[column].dtype == values.dtype
            assert labeled[column].tobytes() == values.tobytes()

    def test_unknown_postcode_is_named(self, feeds):
        kpis = feeds.radio_kpis
        postcode = kpis["postcode"].copy()
        postcode[len(postcode) // 2] = "ZZ9"
        bad = dataclasses.replace(
            feeds, radio_kpis=kpis.with_column("postcode", postcode)
        )
        with pytest.raises(KeyError, match="ZZ9"):
            label_kpis(bad)

    def test_empty_day_range(self, feeds):
        empty = label_kpis(feeds, day_range=(0, 0))
        assert len(empty) == 0
        assert empty["county"].shape == (0,)
