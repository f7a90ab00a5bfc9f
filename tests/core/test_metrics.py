"""Unit and property tests for the mobility metrics (eqs. 1 and 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import mobility_entropy, radius_of_gyration
from repro.core.metrics import AnchorPlan
from repro.core.statistics import top_tower_filter


class TestEntropy:
    def test_single_tower_zero_entropy(self):
        entropy = mobility_entropy(
            np.array([[86400.0, 0.0]]), np.array([[1, 2]])
        )
        assert entropy[0] == pytest.approx(0.0)

    def test_two_equal_towers_ln2(self):
        entropy = mobility_entropy(
            np.array([[43200.0, 43200.0]]), np.array([[1, 2]])
        )
        assert entropy[0] == pytest.approx(np.log(2))

    def test_uniform_k_towers_ln_k(self):
        k = 6
        dwell = np.full((1, k), 86400.0 / k)
        sites = np.arange(k)[None, :]
        entropy = mobility_entropy(dwell, sites)
        assert entropy[0] == pytest.approx(np.log(k))

    def test_duplicate_towers_merged(self):
        # Two anchor slots on the same physical tower must count as one
        # visited location: 50/25/25 over two towers = ln-weighted of
        # (0.5, 0.5), not of (0.5, 0.25, 0.25).
        dwell = np.array([[43200.0, 21600.0, 21600.0]])
        sites = np.array([[7, 9, 9]])
        merged = mobility_entropy(dwell, sites)
        assert merged[0] == pytest.approx(np.log(2))

    def test_zero_dwell_row(self):
        entropy = mobility_entropy(
            np.array([[0.0, 0.0]]), np.array([[1, 2]])
        )
        assert entropy[0] == 0.0

    def test_multiple_rows_independent(self):
        dwell = np.array([[86400.0, 0.0], [43200.0, 43200.0]])
        sites = np.array([[1, 2], [1, 2]])
        entropy = mobility_entropy(dwell, sites)
        assert entropy[0] == pytest.approx(0.0)
        assert entropy[1] == pytest.approx(np.log(2))

    def test_negative_dwell_rejected(self):
        with pytest.raises(ValueError):
            mobility_entropy(np.array([[-1.0, 2.0]]), np.array([[1, 2]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mobility_entropy(np.array([[1.0, 2.0]]), np.array([[1]]))

    def test_empty_input(self):
        out = mobility_entropy(
            np.empty((0, 3)), np.empty((0, 3), dtype=int)
        )
        assert out.shape == (0,)

    @given(
        hnp.arrays(
            np.float64,
            (5, 8),
            elements=st.floats(min_value=0, max_value=86400),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_entropy_bounds(self, dwell):
        sites = np.tile(np.arange(8), (5, 1))
        entropy = mobility_entropy(dwell, sites)
        assert np.all(entropy >= -1e-9)
        assert np.all(entropy <= np.log(8) + 1e-9)

    @given(
        hnp.arrays(
            np.float64,
            (4, 6),
            elements=st.floats(min_value=0.1, max_value=86400),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_entropy_scale_invariant(self, dwell):
        # Entropy depends only on the dwell *fractions*.
        sites = np.tile(np.arange(6), (4, 1))
        once = mobility_entropy(dwell, sites)
        scaled = mobility_entropy(dwell * 3.7, sites)
        assert np.allclose(once, scaled)

    @given(st.integers(min_value=0, max_value=719))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        dwell = rng.random((1, 8)) * 3600
        sites = np.arange(8)[None, :]
        perm = rng.permutation(8)
        assert mobility_entropy(dwell, sites)[0] == pytest.approx(
            mobility_entropy(dwell[:, perm], sites[:, perm])[0]
        )


class TestGyration:
    def make_row(self, dwell, lats, lons):
        return (
            np.asarray([dwell], dtype=float),
            np.asarray([lats], dtype=float),
            np.asarray([lons], dtype=float),
        )

    def test_single_location_zero(self):
        dwell, lats, lons = self.make_row(
            [86400.0, 0.0], [51.5, 52.0], [0.0, 0.0]
        )
        assert radius_of_gyration(dwell, lats, lons)[0] == pytest.approx(0.0)

    def test_two_equal_locations(self):
        # Two towers ~111 km apart, equal dwell: gyration = half-distance.
        dwell, lats, lons = self.make_row(
            [43200.0, 43200.0], [51.0, 52.0], [0.0, 0.0]
        )
        gyration = radius_of_gyration(dwell, lats, lons)[0]
        assert gyration == pytest.approx(55.6, rel=0.02)

    def test_weights_pull_centroid(self):
        # 90% of time at one tower: gyration well below half-distance.
        dwell, lats, lons = self.make_row(
            [77760.0, 8640.0], [51.0, 52.0], [0.0, 0.0]
        )
        gyration = radius_of_gyration(dwell, lats, lons)[0]
        assert gyration < 40.0
        assert gyration > 0.0

    def test_zero_dwell_row(self):
        dwell, lats, lons = self.make_row([0.0, 0.0], [51.0, 52.0], [0, 0])
        assert radius_of_gyration(dwell, lats, lons)[0] == 0.0

    def test_duplicate_towers_equivalent_to_merged(self):
        # Gyration is invariant to splitting a tower's dwell over slots.
        split = radius_of_gyration(
            np.array([[43200.0, 21600.0, 21600.0]]),
            np.array([[51.0, 52.0, 52.0]]),
            np.array([[0.0, 0.0, 0.0]]),
        )
        merged = radius_of_gyration(
            np.array([[43200.0, 43200.0]]),
            np.array([[51.0, 52.0]]),
            np.array([[0.0, 0.0]]),
        )
        assert split[0] == pytest.approx(merged[0], rel=1e-9)

    def test_paper_mode_differs_from_weighted(self):
        dwell = np.array([[43200.0, 28800.0, 14400.0]])
        lats = np.array([[51.0, 51.5, 52.0]])
        lons = np.array([[0.0, 0.3, -0.2]])
        weighted = radius_of_gyration(dwell, lats, lons, mode="weighted")
        paper = radius_of_gyration(dwell, lats, lons, mode="paper")
        assert weighted[0] != pytest.approx(paper[0])

    def test_unknown_mode_rejected(self):
        dwell, lats, lons = self.make_row([1.0], [51.0], [0.0])
        with pytest.raises(ValueError, match="mode"):
            radius_of_gyration(dwell, lats, lons, mode="nope")

    def test_negative_dwell_rejected(self):
        dwell, lats, lons = self.make_row([-1.0], [51.0], [0.0])
        with pytest.raises(ValueError):
            radius_of_gyration(dwell, lats, lons)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_gyration_non_negative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        dwell = rng.random((3, 6)) * 14400
        lats = 50.0 + rng.random((3, 6)) * 5.0
        lons = -4.0 + rng.random((3, 6)) * 5.0
        gyration = radius_of_gyration(dwell, lats, lons)
        assert np.all(gyration >= 0)
        # Bounded by the largest pairwise distance in the row (~span).
        assert np.all(gyration < 1000.0)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_gyration_scale_invariant_in_time(self, seed):
        rng = np.random.default_rng(seed)
        dwell = rng.random((2, 5)) * 3600 + 1.0
        lats = 50.0 + rng.random((2, 5))
        lons = rng.random((2, 5))
        once = radius_of_gyration(dwell, lats, lons)
        scaled = radius_of_gyration(dwell * 2.5, lats, lons)
        assert np.allclose(once, scaled)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_translation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        dwell = rng.random((2, 5)) * 3600 + 1.0
        lats = 51.0 + rng.random((2, 5)) * 0.5
        lons = rng.random((2, 5)) * 0.5
        base = radius_of_gyration(dwell, lats, lons)
        shifted = radius_of_gyration(dwell, lats + 0.7, lons)
        assert np.allclose(base, shifted, rtol=0.02)


# ---------------------------------------------------------------------------
# Metamorphic properties over random (rows, K) dwell matrices
# ---------------------------------------------------------------------------


@st.composite
def anchor_days(draw):
    """One day of a population: dwell, anchor tower ids and coordinates.

    Few distinct towers make duplicate anchors common, about a quarter
    of the rows have no dwell at all, and K ranges past the top-tower
    cut-off, which the day is filtered through as the pipeline does.
    """
    rows = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=28))
    towers = draw(st.integers(min_value=1, max_value=k + 2))
    top_towers = draw(st.integers(min_value=1, max_value=20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sites = rng.integers(0, towers, (rows, k))
    dwell = rng.random((rows, k)) * 3600.0 * (rng.random((rows, k)) < 0.7)
    dwell[rng.random(rows) < 0.25] = 0.0
    dwell = top_tower_filter(dwell, top_towers)
    tower_lats = 50.0 + rng.random(towers) * 5.0
    tower_lons = -4.0 + rng.random(towers) * 5.0
    return dwell, sites, tower_lats, tower_lons


def both_metrics(dwell, sites, tower_lats, tower_lons):
    return (
        mobility_entropy(dwell, sites),
        radius_of_gyration(dwell, tower_lats[sites], tower_lons[sites]),
    )


class TestMetamorphic:
    @given(day=anchor_days(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_row_permutation_permutes_outputs(self, day, seed):
        dwell, sites, tower_lats, tower_lons = day
        perm = np.random.default_rng(seed).permutation(dwell.shape[0])
        entropy, gyration = both_metrics(dwell, sites, tower_lats, tower_lons)
        p_entropy, p_gyration = both_metrics(
            dwell[perm], sites[perm], tower_lats, tower_lons
        )
        # Both kernels are row-independent: exact, not approximate.
        assert np.array_equal(p_entropy, entropy[perm])
        assert np.array_equal(p_gyration, gyration[perm])

    @given(day=anchor_days(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_tower_relabelling_leaves_metrics_unchanged(self, day, seed):
        dwell, sites, tower_lats, tower_lons = day
        rng = np.random.default_rng(seed)
        towers = tower_lats.size
        relabel = rng.permutation(towers) * 7 + 1000
        # A tower keeps its coordinates under its new id.
        new_lats = np.empty(relabel.max() + 1)
        new_lons = np.empty(relabel.max() + 1)
        new_lats[relabel] = tower_lats
        new_lons[relabel] = tower_lons
        entropy, gyration = both_metrics(dwell, sites, tower_lats, tower_lons)
        r_entropy, r_gyration = both_metrics(
            dwell, relabel[sites], new_lats, new_lons
        )
        assert np.allclose(r_entropy, entropy)
        assert np.allclose(r_gyration, gyration)

    @given(day=anchor_days())
    @settings(max_examples=80, deadline=None)
    def test_entropy_within_log_of_distinct_towers(self, day):
        dwell, sites, _, _ = day
        entropy = mobility_entropy(dwell, sites)
        distinct = np.array([np.unique(row).size for row in sites])
        assert np.all(entropy >= 0.0)
        assert np.all(entropy <= np.log(distinct) + 1e-12)

    @given(day=anchor_days(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_single_tower_row_has_zero_gyration(self, day, seed):
        dwell, sites, tower_lats, tower_lons = day
        rng = np.random.default_rng(seed)
        # Move every anchor that has dwell in row 0 onto one tower.
        tower = rng.integers(0, tower_lats.size)
        sites = sites.copy()
        sites[0, dwell[0] > 0] = tower
        entropy, gyration = both_metrics(dwell, sites, tower_lats, tower_lons)
        assert gyration[0] == pytest.approx(0.0, abs=1e-9)
        assert entropy[0] == 0.0

    @given(day=anchor_days())
    @settings(max_examples=80, deadline=None)
    def test_zero_dwell_rows_are_zero(self, day):
        dwell, sites, tower_lats, tower_lons = day
        dwell = dwell.copy()
        dwell[-1] = 0.0
        entropy, gyration = both_metrics(dwell, sites, tower_lats, tower_lons)
        idle = dwell.sum(axis=1) == 0
        assert np.all(entropy[idle] == 0.0)
        assert np.all(gyration[idle] == 0.0)

    @given(day=anchor_days(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_negative_dwell_raises(self, day, seed):
        dwell, sites, tower_lats, tower_lons = day
        rng = np.random.default_rng(seed)
        dwell = dwell.copy()
        dwell[rng.integers(dwell.shape[0]), rng.integers(dwell.shape[1])] = -1.0
        with pytest.raises(ValueError, match="negative"):
            mobility_entropy(dwell, sites)
        with pytest.raises(ValueError, match="negative"):
            radius_of_gyration(dwell, tower_lats[sites], tower_lons[sites])
        plan = AnchorPlan(sites, tower_lats[sites], tower_lons[sites])
        with pytest.raises(ValueError, match="negative"):
            plan.entropy(dwell)
        with pytest.raises(ValueError, match="negative"):
            plan.gyration(dwell)


class TestAnchorPlan:
    @given(day=anchor_days(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_reused_plan_matches_one_shot_kernels(self, day, seed):
        # One plan serves many dwell matrices (the days of a shard);
        # every result is bitwise the one-shot kernel's.
        dwell, sites, tower_lats, tower_lons = day
        lats, lons = tower_lats[sites], tower_lons[sites]
        plan = AnchorPlan(sites, lats, lons)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            day_dwell = dwell * rng.random(dwell.shape)
            assert np.array_equal(
                plan.entropy(day_dwell), mobility_entropy(day_dwell, sites)
            )
            for mode in ("weighted", "paper"):
                assert np.array_equal(
                    plan.gyration(day_dwell, mode),
                    radius_of_gyration(day_dwell, lats, lons, mode=mode),
                )

    def test_shape_mismatch_rejected(self):
        plan = AnchorPlan(np.array([[1, 2]]))
        with pytest.raises(ValueError, match="shape"):
            plan.entropy(np.array([[1.0, 2.0, 3.0]]))

    def test_missing_half_rejected(self):
        sites = np.array([[1, 2]])
        with pytest.raises(ValueError, match="coordinates"):
            AnchorPlan(sites).gyration(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="sites"):
            AnchorPlan(lats=sites * 1.0, lons=sites * 1.0).entropy(
                np.array([[1.0, 2.0]])
            )
