"""Process-parallel shard-streaming analysis.

The analysis kernels are shard-partitioned by construction: entropy,
gyration and the night-win counts are strictly row-independent, and
sessionization never crosses users, so every per-shard partial can be
computed from *that shard's files alone* and merged associatively.
This module fans those per-shard walks across the process pool of
:func:`repro.executor.run_tasks`.

No feed object ever crosses the process boundary.  A worker receives
only a :class:`ShardPlan` — the run directory, the shard layout, the
segment spans — via the pool initializer and calls
:func:`repro.io.columnar.open_shard` / :func:`~repro.io.columnar.
open_events` itself, memory-mapping exactly its shard's files.  The
tasks dispatch to the *same* per-shard kernels the serial streaming
walk uses (:func:`repro.core.statistics.shard_metric_blocks`,
:func:`repro.core.home.shard_night_win_counts`,
:func:`repro.core.sessionize.sessionize_events`), so the partials are
bitwise identical by construction for any (shards × workers), and the
coordinator merge is a scatter into disjoint population rows (metrics,
homes) or the stable user-partitioned sort (sessions).

``REPRO_ANALYSIS_SERIAL=1`` forces the sequential walk — the
differential oracle every parallel result is gated against.  When the
pool cannot start or dies, the runner degrades to running the shards
it had not finished through the identical task functions in-process;
a task that raises (a corrupt shard file, say) raises its own error
instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.executor import run_tasks

__all__ = [
    "ENV_SERIAL",
    "ShardPlan",
    "map_figure_chains",
    "map_shards",
    "parallel_daily_metrics",
    "parallel_night_win_counts",
    "parallel_sessionize_events",
    "plan_for",
    "resolve_workers",
    "use_serial",
]

#: Forces the sequential shard walk regardless of ``workers``.
ENV_SERIAL = "REPRO_ANALYSIS_SERIAL"


def use_serial() -> bool:
    """Whether ``REPRO_ANALYSIS_SERIAL=1`` forces the sequential walk.

    Read at call time so tests (and users) can flip the environment
    variable between calls without reimporting.
    """
    return os.environ.get(ENV_SERIAL) == "1"


def resolve_workers(workers: int | str | None) -> int:
    """Resolve a ``workers`` request to a concrete worker count.

    ``None``, ``0`` and ``"auto"`` resolve to the CPU count; anything
    else must be a positive integer and passes through.
    """
    if workers in (None, 0, "auto"):
        return max(1, os.cpu_count() or 1)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return count


@dataclass(frozen=True)
class ShardPlan:
    """Everything a pool worker needs to re-open one run's shards.

    Plain picklable pieces only — the run directory and the layout
    facts a worker needs to call :func:`repro.io.columnar.open_shard`
    itself.  Feed objects never cross the process boundary.
    """

    directory: str
    num_shards: int
    num_days: int
    segments: tuple[tuple[int, int], ...] | None
    has_events: bool


def plan_for(feeds) -> ShardPlan | None:
    """A :class:`ShardPlan` for this bundle, or ``None`` if ineligible.

    Eligible bundles back onto a *committed* columnar run: the bundle
    records its source directory, its mobility view is sharded with no
    pending (uncommitted) writer, the oracle environment flags are off,
    and the directory's manifest still describes a columnar layout with
    the same shard count.  Callers fall back to the serial walk on
    ``None`` — the parallel path is an optimisation, never a
    requirement.
    """
    import json

    directory = getattr(feeds, "source_directory", None)
    mobility = feeds.mobility
    shards = getattr(mobility, "shards", None)
    if directory is None or shards is None:
        return None
    from repro.io import columnar

    if columnar.use_naive() or use_serial():
        return None
    if getattr(mobility, "pending_writer", None) is not None:
        return None
    try:
        manifest = json.loads(
            (Path(directory) / "manifest.json").read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return None
    block = manifest.get("feeds") or {}
    if block.get("layout") != "columnar":
        return None
    if int(block.get("num_shards", 0)) != len(shards):
        return None
    raw_segments = block.get("segments")
    segments = (
        tuple((int(start), int(days)) for start, days in raw_segments)
        if raw_segments
        else None
    )
    signaling = getattr(feeds, "signaling", None)
    has_events = bool(block.get("events")) and signaling is not None
    if has_events and getattr(signaling, "pending_writer", None) is not None:
        if not signaling.pending_writer.committed:
            has_events = False
    return ShardPlan(
        directory=str(directory),
        num_shards=len(shards),
        num_days=int(manifest.get("num_days", mobility.num_days)),
        segments=segments,
        has_events=has_events,
    )


# -- worker side ------------------------------------------------------------
# Each pool worker builds one _WorkerState from the plan in the pool
# initializer and serves any number of shard tasks from it, opening
# its own shard maps on first use; the in-process path runs the same
# task functions on a coordinator-side _WorkerState.


@dataclass
class _WorkerState:
    """Per-process cache of opened shard maps and context arrays."""

    plan: ShardPlan
    site_lats: np.ndarray | None
    site_lons: np.ndarray | None
    shards: dict = field(default_factory=dict)
    events: object | None = None

    def shard(self, index: int):
        from repro.io import columnar

        shard = self.shards.get(index)
        if shard is None:
            shard = columnar.open_shard(
                self.plan.directory,
                index,
                lazy=True,
                segments=(
                    list(self.plan.segments) if self.plan.segments else None
                ),
            )
            self.shards[index] = shard
        return shard

    def event_feed(self):
        from repro.io import columnar

        if self.events is None:
            if not self.plan.has_events:
                raise ValueError(
                    "shard plan records no committed event partition"
                )
            self.events = columnar.open_events(
                self.plan.directory,
                self.plan.num_shards,
                self.plan.num_days,
                lazy=True,
            )
        return self.events


def _run_task(state: _WorkerState, task: tuple, attempt: int):
    """Dispatch one ``(name, shard_index, kwargs)`` task.

    The single executable form of a shard task, shared verbatim by the
    pool workers and the in-process path — the fallback is bitwise
    identical because it *is* the same code.
    """
    name, shard_index, kwargs = task
    return _TASKS[name](state, shard_index, **kwargs)


def _task_metrics(
    state: _WorkerState,
    shard_index: int,
    *,
    gyration_mode: str,
    top_towers: int,
    batch_days: int | None,
    day_lo: int,
    day_hi: int,
):
    from repro.core.statistics import shard_metric_blocks

    shard = state.shard(shard_index)
    if shard.num_rows == 0:
        return None
    telemetry.count("store.shards_streamed", 1)
    entropy, gyration = shard_metric_blocks(
        shard,
        state.site_lats,
        state.site_lons,
        gyration_mode=gyration_mode,
        top_towers=top_towers,
        batch_days=batch_days,
        day_lo=day_lo,
        day_hi=day_hi,
    )
    return shard.rows, entropy, gyration


def _task_night_counts(
    state: _WorkerState, shard_index: int, *, window_days: list[int]
):
    from repro.core.home import shard_night_win_counts

    shard = state.shard(shard_index)
    if shard.num_rows == 0:
        return None
    telemetry.count("store.shards_streamed", 1)
    counts = shard_night_win_counts(
        shard, np.asarray(window_days, dtype=np.int64)
    )
    return shard.rows, counts


def _task_sessionize_events(
    state: _WorkerState, shard_index: int, *, day: int, day_end_s: float
):
    from repro.core.sessionize import sessionize_events

    events = state.event_feed()
    frame = events.shard_day(shard_index, int(day))
    return sessionize_events(frame, day_end_s=day_end_s)


_TASKS = {
    "metrics": _task_metrics,
    "night_counts": _task_night_counts,
    "sessionize_events": _task_sessionize_events,
}


# -- coordinator side -------------------------------------------------------


def map_shards(
    plan: ShardPlan,
    tasks: list[tuple],
    *,
    workers: int,
    site_lats: np.ndarray | None = None,
    site_lons: np.ndarray | None = None,
    span_name: str = "analysis_fanout",
) -> list:
    """Run per-shard ``tasks`` over ``plan``, preserving task order.

    Each task is ``(task_name, shard_index, kwargs)``.  With
    ``workers`` > 1 (and the serial oracle off) the tasks run in a
    process pool whose initializer hands every worker the plan — the
    workers open their own shard maps.  A pool that cannot start or
    dies degrades to executing the unfinished tasks in-process
    (counted as ``analysis.pool_degraded``); results are bitwise the
    same either way.  Worker telemetry snapshots are absorbed under the
    dispatching span, and every merged payload counts
    ``analysis.worker_merge``.
    """
    if not tasks:
        return []
    with telemetry.span(span_name):
        telemetry.count("analysis.shards_dispatched", len(tasks))
        results = run_tasks(
            _run_task,
            tasks,
            state=_WorkerState(plan, site_lats, site_lons),
            init=(_WorkerState, (plan, site_lats, site_lons)),
            workers=1 if use_serial() else workers,
            degraded="analysis.pool_degraded",
        )
        telemetry.count("analysis.worker_merge", len(tasks))
    return results


def parallel_daily_metrics(
    feeds,
    plan: ShardPlan,
    *,
    gyration_mode: str,
    top_towers: int,
    batch_days: int | None,
    day_range: tuple[int, int] | None,
    workers: int,
):
    """Per-shard metric blocks across the pool, scattered associatively.

    Bitwise identical to
    :func:`repro.core.statistics.compute_daily_metrics`'s serial walk:
    every worker runs the same
    :func:`~repro.core.statistics.shard_metric_blocks` kernel and the
    merge is a scatter into disjoint population rows, so shard order
    and worker count cannot affect a single byte.
    """
    from repro.core.statistics import (
        MobilityDailyMetrics,
        _normalize_day_range,
    )

    mobility = feeds.mobility
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
    site_lats, site_lons = feeds.site_locations()
    kwargs = dict(
        gyration_mode=gyration_mode,
        top_towers=top_towers,
        batch_days=batch_days,
        day_lo=day_lo,
        day_hi=day_hi,
    )
    tasks = [
        ("metrics", shard.index, kwargs)
        for shard in mobility.shards
        if shard.num_rows
    ]
    for payload in map_shards(
        plan,
        tasks,
        workers=workers,
        site_lats=site_lats,
        site_lons=site_lons,
    ):
        if payload is None:
            continue
        rows, entropy_block, gyration_block = payload
        entropy[:, rows] = entropy_block
        gyration[:, rows] = gyration_block
    return metrics


def parallel_night_win_counts(
    feeds,
    plan: ShardPlan,
    window_days: np.ndarray,
    *,
    workers: int,
) -> np.ndarray:
    """Per-shard night-win partials across the pool.

    Same kernel (:func:`repro.core.home.shard_night_win_counts`), same
    disjoint-row scatter — bitwise identical to the serial walk for
    every worker count.
    """
    mobility = feeds.mobility
    num_users = mobility.num_users
    k = mobility.anchor_sites.shape[1]
    win_counts = np.zeros((num_users, k), dtype=np.int64)
    window = [int(day) for day in np.asarray(window_days).ravel()]
    tasks = [
        ("night_counts", shard.index, {"window_days": window})
        for shard in mobility.shards
        if shard.num_rows
    ]
    for payload in map_shards(plan, tasks, workers=workers):
        if payload is None:
            continue
        rows, counts = payload
        win_counts[rows] = counts
    return win_counts


# -- figure-chain fan-out ---------------------------------------------------
# The study's figure chains are CPU-bound numpy reductions; a thread
# pool leaves most of the arithmetic serialized behind the GIL.  When a
# run is persisted with an artifact cache, the chains can instead run
# in pool workers that build a study of their own — the initializer
# loads the run lazily and attaches the same content-addressed cache,
# so every artifact a worker computes lands in the shared on-disk store
# and the coordinator's accessors read it back as cache hits (bitwise
# identical to computing in-process, by the cache round-trip contract).
# The load gets its world from build_world, which makes it once per
# worker process, or not at all when the pool forks a coordinator that
# already holds it.  A chain the pool did not finish runs on the
# coordinator's own study instead.


def _figure_study(
    run_directory: str, gyration_mode: str
):  # pragma: no cover - runs in pool workers
    from repro.analysis.cache import ArtifactCache
    from repro.core.study import CovidImpactStudy
    from repro.io.store import load_feeds

    feeds = load_feeds(run_directory, lazy=True)
    return CovidImpactStudy(
        feeds,
        gyration_mode=gyration_mode,
        cache=ArtifactCache.for_feeds(run_directory, feeds),
        parallel=False,
    )


def _run_chain(study, chain: tuple[str, ...], attempt: int) -> None:
    for name in chain:
        getattr(study, name)()


def map_figure_chains(
    study,
    run_directory: str,
    gyration_mode: str,
    chains: list[tuple[str, ...]],
    *,
    workers: int,
) -> None:
    """Compute ``study``'s figure chains, in pool workers if possible.

    Each worker rebuilds the study from ``run_directory`` and lands its
    artifacts in the shared cache, so ``study``'s accessors then serve
    them as cache hits.  A pool that cannot start or dies degrades to
    running the unfinished chains on ``study`` itself; a chain that
    raises raises its own error.
    """
    run_tasks(
        _run_chain,
        [tuple(chain) for chain in chains],
        state=study,
        init=(_figure_study, (str(run_directory), gyration_mode)),
        workers=workers,
        degraded="analysis.pool_degraded",
    )


def parallel_sessionize_events(
    feeds,
    plan: ShardPlan,
    day: int,
    *,
    day_end_s: float | None = None,
    workers: int,
):
    """Sessionize one day's event partition across the pool.

    Each worker reduces its own shard's events
    (:func:`repro.core.sessionize.sessionize_events` on a windowed map
    of that shard's day slice) and the coordinator merges with the
    stable user-partitioned sort — bitwise identical to
    :func:`repro.core.sessionize.sessionize_events_stream` over the
    same chunks, which is itself bitwise identical to sessionizing the
    assembled day.
    """
    from repro.core.sessionize import (
        DAY_SECONDS,
        _merge_user_partitioned,
    )
    from repro.frames import Frame

    if not plan.has_events:
        raise ValueError(
            "run has no committed signalling-event partition to sessionize"
        )
    if day_end_s is None:
        day_end_s = DAY_SECONDS
    kwargs = {"day": int(day), "day_end_s": float(day_end_s)}
    tasks = [
        ("sessionize_events", index, kwargs)
        for index in range(plan.num_shards)
    ]
    pieces = [
        payload
        for payload in map_shards(plan, tasks, workers=workers)
        if payload is not None
    ]
    empty = Frame(
        {
            "user_id": np.empty(0, dtype=np.int64),
            "site_id": np.empty(0, dtype=np.int64),
            "dwell_s": np.empty(0, dtype=np.float64),
        }
    )
    return _merge_user_partitioned(pieces, empty)
