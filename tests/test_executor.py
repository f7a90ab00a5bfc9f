"""The shared process-pool runner, :func:`repro.executor.run_tasks`.

Every fan-out of the pipeline — engine shards, analysis shards, figure
chains — goes through one runner, so its contract is pinned here once:
payloads come back in task order, a broken pool re-runs only the
unfinished tasks in-process, a task error is never mistaken for a lost
pool, a store error is never retried, and a worker's traceback survives
the trip home.
"""

import datetime as dt
import os
import time

import pytest

from repro import api, executor, telemetry
from repro.core.study import CovidImpactStudy
from repro.io import RunStoreError, load_feeds, save_feeds
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.faults import RecoverySettings


def _fresh_state():
    return []


def _sleepy_echo(state, task, attempt):
    """Sleep ``task`` seconds, then return it."""
    time.sleep(task)
    return task


def _exit_on_last(state, task, attempt):
    """Record the call; task 3 hard-crashes its pool worker."""
    state.append(task)
    if task == 3 and executor.in_worker():
        time.sleep(1.0)  # let the other tasks finish first
        os._exit(3)
    return task, executor.in_worker()


def _store_error(state, task, attempt):
    """Task 0 finds a corrupt file; the others succeed."""
    state.append(attempt)
    if task == 0:
        raise RunStoreError("corrupt file for task 0", path="x.npy")
    return task


def _explode(state, task, attempt):
    raise ValueError(f"boom {task}")


def _run(fn, tasks, *, workers, state=None, recovery=None):
    return executor.run_tasks(
        fn,
        tasks,
        state=[] if state is None else state,
        init=(_fresh_state, ()),
        workers=workers,
        degraded="test.pool_lost",
        recovery=recovery,
    )


@pytest.fixture
def counters():
    telemetry.enable()
    yield lambda: telemetry.snapshot()["counters"]
    telemetry.disable()


@pytest.fixture
def fake_sleep(monkeypatch):
    delays = []
    monkeypatch.setattr(executor, "_RETRY_SLEEP", delays.append)
    return delays


def test_results_come_back_in_task_order():
    # The first task finishes last; the payloads still follow the tasks.
    tasks = [0.4, 0.0, 0.1, 0.0]
    assert _run(_sleepy_echo, tasks, workers=2) == tasks


def test_broken_pool_reruns_only_unfinished_tasks(counters):
    coordinator = []
    results = _run(
        _exit_on_last, [0, 1, 2, 3], workers=2, state=coordinator
    )
    # Tasks 0-2 finished in the pool and are kept; only task 3 ran on
    # the coordinator, where the exit is inert.
    assert results == [(0, True), (1, True), (2, True), (3, False)]
    assert coordinator == [3]
    assert counters()["test.pool_lost"] == 1
    assert not executor.in_worker()


@pytest.mark.parametrize("workers", [1, 2])
def test_store_error_is_never_retried(workers, fake_sleep, counters):
    coordinator = []
    with pytest.raises(RunStoreError, match="corrupt file for task 0"):
        _run(
            _store_error, [0, 1], workers=workers, state=coordinator,
            recovery=RecoverySettings(max_retries=3),
        )
    assert fake_sleep == []
    assert "engine.shard_retries" not in counters()
    assert "test.pool_lost" not in counters()
    if workers == 1:
        assert coordinator == [0]


def test_worker_error_keeps_remote_traceback(counters):
    with pytest.raises(ValueError, match="boom") as excinfo:
        _run(_explode, [0, 1], workers=2)
    remote = excinfo.value.__cause__
    assert remote is not None
    assert "_explode" in str(remote)
    assert "test.pool_lost" not in counters()


def test_figure_chains_degrade_to_the_serial_report(tmp_path, monkeypatch):
    config = (
        SimulationConfig.tiny(seed=5)
        .with_overrides(
            num_users=160,
            target_site_count=30,
            calendar=StudyCalendar(
                first_day=dt.date(2020, 2, 3), num_days=63
            ),
        )
        .with_parallelism(2, workers=1)
    )
    save_feeds(Simulator(config).run(), tmp_path)
    serial = CovidImpactStudy(
        load_feeds(tmp_path), parallel=False
    ).report(full=True)

    refused = []

    def refuse(*args, **kwargs):
        refused.append(kwargs["initializer"])
        raise OSError("no process pool here")

    monkeypatch.setattr(executor, "ProcessPoolExecutor", refuse)
    fanned = api.Run.open(tmp_path).study(workers=2).report(full=True)
    assert fanned == serial
    assert refused  # the fan-out really asked for a pool
