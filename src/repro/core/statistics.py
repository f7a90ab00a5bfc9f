"""Aggregated mobility statistics: per-user-day metric series (§2.3).

The paper computes, for every user and every day, the time spent on
each visited tower (keeping the top-20 towers), then the entropy and
radius of gyration, then aggregates. :func:`compute_daily_metrics` does
exactly that over the whole study window, one kernel call per day.
Everything that depends only on the anchor towers — the per-row tower
sort for entropy, the planar projection for gyration — is built once
per shard as a :class:`~repro.core.metrics.AnchorPlan`; each day the
``(users, K)`` dwell matrix is copied into one reused float64 work
buffer, cut to the top towers and run through the plan's entropy and
gyration, which are the same kernels as the one-shot
:func:`~repro.core.metrics.mobility_entropy` and
:func:`~repro.core.metrics.radius_of_gyration`.

A lazily loaded run (``load_feeds(..., lazy=True)``) hands this module
a :class:`~repro.io.columnar.ShardedMobilityFeed`; the computation then
*streams* shard by shard straight off the memory-mapped partition,
mapping a window of at most :data:`WINDOW_DAYS` days at a time — peak
memory is one shard × one window, independent of the population and
of the study length. Both kernels are strictly row-independent, so the
scattered results are bitwise identical to the in-memory path
(``lazy=False``), which is the streaming path's differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.metrics import AnchorPlan
from repro.simulation.feeds import DataFeeds

__all__ = [
    "MobilityDailyMetrics",
    "compute_daily_metrics",
    "shard_metric_blocks",
    "top_tower_filter",
]

#: Days of dwell one streaming read maps at a time: a week, so a shard
#: walk opens each segment file ~14 times over the study, not 98, while
#: its resident set stays bounded by one window.
WINDOW_DAYS = 7

@dataclass
class MobilityDailyMetrics:
    """Per-user per-day mobility metrics.

    ``entropy`` and ``gyration_km`` are (num_days × num_users) float32
    matrices.
    """

    user_ids: np.ndarray
    entropy: np.ndarray
    gyration_km: np.ndarray

    @property
    def num_days(self) -> int:
        return int(self.entropy.shape[0])

    @property
    def num_users(self) -> int:
        return int(self.entropy.shape[1])

    def daily_mean(self, metric: str) -> np.ndarray:
        """Across-user mean per day for ``metric`` (entropy/gyration).

        With no users at all the mean is undefined: the result is NaN
        for every day (explicitly — no RuntimeWarning is emitted).
        """
        return self._masked_mean(self._matrix(metric))

    def daily_mean_subset(self, metric: str, mask: np.ndarray) -> np.ndarray:
        """Across-user mean per day over a user subset.

        A mask selecting zero users yields NaN per day, silently —
        callers that filter empty groups up front keep their behavior,
        and direct callers no longer trip numpy's mean-of-empty-slice
        RuntimeWarning.
        """
        return self._masked_mean(self._matrix(metric)[:, mask])

    @staticmethod
    def _masked_mean(matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[1] == 0:
            return np.full(matrix.shape[0], np.nan, dtype=matrix.dtype)
        return matrix.mean(axis=1)

    def _matrix(self, metric: str) -> np.ndarray:
        if metric == "entropy":
            return self.entropy
        if metric == "gyration":
            return self.gyration_km
        raise KeyError(f"unknown metric {metric!r}")


def top_tower_filter(
    dwell: np.ndarray, top_towers: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Zero all but each row's ``top_towers`` largest dwell entries.

    The paper keeps the top-20 towers per user (§2.3). With more anchor
    towers than the cut-off this selects the most-visited ones; with
    fewer it is the identity.

    Without ``out`` the result is always a fresh array — never a view
    of or alias to ``dwell`` — so callers may mutate it freely
    regardless of which branch was taken.  With ``out`` (same shape as
    ``dwell``; any float dtype ``dwell`` safely casts to) the values
    are copied into the buffer and filtered in place, which lets the
    daily-metrics loop pay one materialization per day instead of an
    ``astype`` copy followed by an internal one.  ``out is dwell`` is
    allowed and filters fully in place.
    """
    if top_towers <= 0:
        raise ValueError("top_towers must be positive")
    rows, k = dwell.shape
    if out is None:
        out = dwell.copy()
    else:
        if out.shape != dwell.shape:
            raise ValueError(
                f"out shape {out.shape} must match dwell shape {dwell.shape}"
            )
        if out is not dwell:
            np.copyto(out, dwell, casting="same_kind")
    if k <= top_towers:
        return out
    # Indices of the (k - top) smallest entries per row → zeroed.
    cut = k - top_towers
    smallest = np.argpartition(out, cut - 1, axis=1)[:, :cut]
    np.put_along_axis(out, smallest, 0.0, axis=1)
    return out


def _normalize_day_range(
    day_range: tuple[int, int] | None, num_days: int
) -> tuple[int, int]:
    if day_range is None:
        return 0, num_days
    lo, hi = int(day_range[0]), int(day_range[1])
    if not 0 <= lo <= hi <= num_days:
        raise ValueError(
            f"day_range ({lo}, {hi}) is not within the "
            f"{num_days}-day feed"
        )
    return lo, hi


def compute_daily_metrics(
    feeds: DataFeeds,
    gyration_mode: str = "weighted",
    top_towers: int = 20,
    *,
    day_range: tuple[int, int] | None = None,
    workers: int | None = None,
) -> MobilityDailyMetrics:
    """Compute entropy and gyration for every user and study day.

    ``day_range`` restricts the result to a ``[start, stop)`` window of
    absolute day indices; row ``i`` of the matrices is then day
    ``start + i``.  Every day is computed independently, so the window
    equals the same rows of a whole-feed call bitwise — this is what
    lets the live-run analytics compute only the appended days and
    concatenate (:mod:`repro.analysis.mobility`).

    ``workers`` (> 1) fans the per-shard streaming work across a
    process pool (:mod:`repro.analysis.parallel`) when the feed backs
    onto a committed columnar run; each worker maps only its shard's
    files and the partial blocks merge associatively, so the result is
    bitwise identical for every worker count.  ``None`` stays serial.
    """
    mobility = feeds.mobility
    shards = getattr(mobility, "shards", None)
    if shards is not None:
        from repro.analysis import parallel as _parallel

        if workers is not None and _parallel.resolve_workers(workers) > 1:
            plan = _parallel.plan_for(feeds)
            if plan is not None:
                return _parallel.parallel_daily_metrics(
                    feeds,
                    plan,
                    gyration_mode=gyration_mode,
                    top_towers=top_towers,
                    day_range=day_range,
                    workers=_parallel.resolve_workers(workers),
                )
        # Columnar run opened lazily: stream it shard by shard instead
        # of assembling full-population day matrices.
        return _compute_daily_metrics_stream(
            feeds, gyration_mode, top_towers, day_range
        )
    site_lats, site_lons = feeds.site_locations()
    day_lo, day_hi = _normalize_day_range(day_range, mobility.num_days)
    entropy, gyration = _daily_blocks(
        lambda lo, hi: mobility.daily_dwell[lo:hi],
        mobility.anchor_sites,
        site_lats,
        site_lons,
        gyration_mode=gyration_mode,
        top_towers=top_towers,
        day_lo=day_lo,
        day_hi=day_hi,
    )
    return MobilityDailyMetrics(
        user_ids=mobility.user_ids,
        entropy=entropy,
        gyration_km=gyration,
    )


def _compute_daily_metrics_stream(
    feeds: DataFeeds,
    gyration_mode: str,
    top_towers: int,
    day_range: tuple[int, int] | None = None,
) -> MobilityDailyMetrics:
    """Shard-streaming metrics over a lazily mapped columnar run.

    One shard at a time, each day of that shard's dwell rows is read
    off a window of the memory map into the float64 work buffer,
    filtered and fed through the kernels, and the results scattered
    into the output matrices at the shard's population rows.  Both
    kernels are strictly row-independent and the float64→float32 store
    is elementwise, so the result is bitwise identical to the in-memory
    path — peak memory is ``O(shard × WINDOW_DAYS)`` instead of
    ``O(population × days)``.
    """
    mobility = feeds.mobility
    site_lats, site_lons = feeds.site_locations()
    day_lo, day_hi = _normalize_day_range(day_range, mobility.num_days)
    num_days = day_hi - day_lo
    num_users = mobility.num_users
    entropy = np.empty((num_days, num_users), dtype=np.float32)
    gyration = np.empty((num_days, num_users), dtype=np.float32)
    metrics = MobilityDailyMetrics(
        user_ids=mobility.user_ids,
        entropy=entropy,
        gyration_km=gyration,
    )
    if num_days == 0 or num_users == 0:
        return metrics

    for shard in mobility.shards:
        if shard.num_rows == 0:
            continue
        telemetry.count("store.shards_streamed", 1)
        entropy_block, gyration_block = shard_metric_blocks(
            shard,
            site_lats,
            site_lons,
            gyration_mode=gyration_mode,
            top_towers=top_towers,
            day_lo=day_lo,
            day_hi=day_hi,
        )
        entropy[:, shard.rows] = entropy_block
        gyration[:, shard.rows] = gyration_block
    return metrics


def shard_metric_blocks(
    shard,
    site_lats: np.ndarray,
    site_lons: np.ndarray,
    *,
    gyration_mode: str,
    top_towers: int,
    day_lo: int,
    day_hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy/gyration blocks of one shard: ``(num_days, rows)`` each.

    The single per-shard kernel shared by the serial streaming walk and
    the process-pool workers of :mod:`repro.analysis.parallel` — both
    paths call exactly this function, so per-shard partials are bitwise
    identical by construction and the only difference is where the
    scatter into the population-wide matrices happens.

    Dwell days are read a window of at most :data:`WINDOW_DAYS` at a
    time through :func:`repro.io.columnar.window_days`: each window maps
    fresh and is released once its days are consumed, keeping the
    walk's resident set bounded by one window of the shard (the
    persistent shard maps are never touched here).
    """
    from repro.io.columnar import window_days

    return _daily_blocks(
        lambda lo, hi: window_days(shard, "daily_dwell", lo, hi),
        shard.anchor_sites,
        site_lats,
        site_lons,
        gyration_mode=gyration_mode,
        top_towers=top_towers,
        day_lo=day_lo,
        day_hi=day_hi,
    )


def _daily_blocks(
    read_window,
    anchor_sites: np.ndarray,
    site_lats: np.ndarray,
    site_lons: np.ndarray,
    *,
    gyration_mode: str,
    top_towers: int,
    day_lo: int,
    day_hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy/gyration ``(num_days, rows)`` blocks, one kernel call a day.

    One anchor plan serves every day. ``read_window(lo, hi)``
    returns the ``(rows, K)`` dwell matrices of days ``[lo, hi)``, at
    most :data:`WINDOW_DAYS` of them; each is copied into one reused
    float64 buffer, cut to the top towers and run through the plan, and
    the window is dropped before the next one is read.
    """
    plan = AnchorPlan(
        anchor_sites, site_lats[anchor_sites], site_lons[anchor_sites]
    )
    rows = anchor_sites.shape[0]
    entropy = np.empty((day_hi - day_lo, rows), dtype=np.float32)
    gyration = np.empty((day_hi - day_lo, rows), dtype=np.float32)
    buffer = np.empty(anchor_sites.shape, dtype=np.float64)
    for lo in range(day_lo, day_hi, WINDOW_DAYS):
        window = read_window(lo, min(lo + WINDOW_DAYS, day_hi))
        for offset in range(len(window)):
            dwell = top_tower_filter(window[offset], top_towers, out=buffer)
            entropy[lo - day_lo + offset] = plan.entropy(dwell)
            gyration[lo - day_lo + offset] = plan.gyration(
                dwell, gyration_mode
            )
        del window
    return entropy, gyration
