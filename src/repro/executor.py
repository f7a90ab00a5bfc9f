"""The one process-pool runner every fan-out of the pipeline goes through.

:func:`run_tasks` runs a list of tasks and returns their payloads in
task order.  Its callers are the engine's shard day loops
(:mod:`repro.simulation.engine`), the shard-streaming analysis kernels
(:func:`repro.analysis.parallel.map_shards`) and the study's figure
chains (:func:`repro.analysis.parallel.map_figure_chains`).  Every task
is ``fn(state, task, attempt)``: ``state`` is what the task computes
on, built once per pool worker by the caller's initializer, or the
coordinator's own when the task runs in-process.

- **Start-up.** With one worker, or one task, the tasks run in-process
  on the coordinator's state.  Otherwise they run on a
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers build
  their state once and then serve any number of tasks.
- **Degradation.** A pool that cannot start, or that breaks, degrades
  to running only the unfinished tasks in-process, counted once under
  the caller's counter.  Payloads the pool already returned are kept.
- **Task errors.** A task that raises is a task failure, never a lost
  pool.  With a :class:`~repro.simulation.faults.RecoverySettings`
  policy the coordinator retries it with capped exponential backoff
  (counting ``engine.shard_retries``) and raises
  :class:`~repro.simulation.faults.ShardExecutionError` after the last
  attempt.  Without one the task's own error is raised; a pool task's
  error keeps the worker's traceback as its ``__cause__``.  A
  :class:`~repro.io.errors.RunStoreError` is never retried.
- **Telemetry.** Each pool task resets the worker's recorder and ships
  its snapshot home with the outcome, failed attempts included; the
  coordinator absorbs it under the span open at the call, where an
  in-process task would have recorded.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro import telemetry
from repro.io.errors import RunStoreError
from repro.simulation.faults import ShardExecutionError

__all__ = ["in_worker", "run_tasks"]

#: Sleep used between retry attempts; module-level so recovery tests
#: can monkeypatch it with a fake clock.
_RETRY_SLEEP = time.sleep

# Set only by the pool initializer, so it is true only inside a pool
# worker: the in-process path never touches it, which is what keeps
# the ``exit`` fault from killing the coordinator.
_IN_WORKER = False
_WORKER_STATE = None


def in_worker() -> bool:
    """True inside a :func:`run_tasks` pool worker process."""
    return _IN_WORKER


class _PoolLost(Exception):
    """Internal: the process pool died or never started — degrade."""


class _TaskFailed(Exception):
    """Internal: a pool task raised; carries ``(error, snapshot)`` home."""


def run_tasks(
    fn, tasks, *, state, init, workers, degraded, recovery=None
) -> list:
    """Run ``fn(state, task, attempt)`` for every task, in task order.

    ``init`` is ``(factory, args)``: each pool worker's state is
    ``factory(*args)``.  ``state`` is the coordinator's, used for
    in-process execution.  ``degraded`` names the counter a lost pool
    increments; ``recovery`` is the retry policy, if any.
    """
    results: dict[int, object] = {}
    workers = min(int(workers), len(tasks))
    if workers > 1:
        try:
            _run_pool(fn, tasks, init, workers, recovery, results)
        except _PoolLost:
            telemetry.count(degraded)
    for position, task in enumerate(tasks):
        if position in results:
            continue
        for attempt in itertools.count():
            try:
                results[position] = fn(state, task, attempt)
                break
            except Exception as err:
                _retry_or_raise(err, position, attempt, recovery)
    return [results[position] for position in range(len(tasks))]


def _retry_or_raise(err, position: int, attempt: int, recovery) -> None:
    """Back off before the next attempt, or raise if there is none."""
    # A corrupt or missing file never heals by retrying; surface the
    # precise file immediately.
    if recovery is None or isinstance(err, RunStoreError):
        raise err
    if attempt >= recovery.max_retries:
        raise ShardExecutionError(position, attempt + 1) from err
    telemetry.count("engine.shard_retries")
    _RETRY_SLEEP(recovery.delay(attempt))


def _run_pool(fn, tasks, init, workers, recovery, results) -> None:
    """Fan ``tasks`` over a process pool, filling ``results`` in place.

    Raises :class:`_PoolLost` when the pool cannot be created or breaks
    mid-run; ``results`` then holds every payload returned before.
    """
    recorder = telemetry.active()
    prefix = None if recorder is None else recorder.path
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(*init, recorder is not None),
        )
    except (OSError, ValueError, RuntimeError, ImportError) as err:
        raise _PoolLost from err
    pending = {}

    def submit(position: int, attempt: int) -> None:
        try:
            future = pool.submit(_worker_run, fn, tasks[position], attempt)
        except (OSError, RuntimeError) as err:
            raise _PoolLost from err
        pending[future] = (position, attempt)

    try:
        for position in range(len(tasks)):
            submit(position, 0)
        while pending:
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                position, attempt = pending.pop(future)
                error = None
                try:
                    payload, snapshot = future.result()
                except BrokenProcessPool as err:
                    raise _PoolLost from err
                except _TaskFailed as failed:
                    error, snapshot = failed.args
                    error.__cause__ = failed.__cause__
                if snapshot is not None:
                    telemetry.absorb(snapshot, prefix=prefix)
                if error is None:
                    results[position] = payload
                else:
                    _retry_or_raise(error, position, attempt, recovery)
                    submit(position, attempt + 1)
    finally:
        pool.shutdown(cancel_futures=True)


def _worker_init(
    factory, args, record_telemetry: bool
) -> None:  # pragma: no cover - runs in pool workers
    global _IN_WORKER, _WORKER_STATE
    _IN_WORKER = True
    if record_telemetry:
        telemetry.enable()
    _WORKER_STATE = factory(*args)


def _worker_run(fn, task, attempt: int):  # pragma: no cover - pool workers
    """Run one task in a pool worker; returns ``(payload, snapshot)``."""
    recorder = telemetry.active()
    if recorder is not None:
        recorder.reset()
    try:
        payload = fn(_WORKER_STATE, task, attempt)
    except Exception as err:
        snapshot = None if recorder is None else recorder.snapshot()
        raise _TaskFailed(err, snapshot) from err
    return payload, None if recorder is None else recorder.snapshot()
