"""Span timers and counters: the recording half of the telemetry layer.

A :class:`TelemetryRecorder` accumulates two kinds of facts about a run:

- **spans** — named, nestable wall-clock timers.  Entering a span pushes
  its name on the recorder's stack; the span's *path* is the stack
  joined with ``/``, so the same code records ``simulate/build_world``
  or ``report/fig3/metrics`` depending on where it was called from.
  Repeated visits to the same path accumulate (``calls`` counts them,
  ``seconds`` sums them), which is what turns a 98-iteration day loop
  into one phase row instead of 98.
- **counters** — process-wide named tallies (rows joined, kernel vs
  naive dispatches, ...), incremented with :func:`count`.

The module-level API mirrors the recorder but routes through one global
active recorder, installed with :func:`enable` and removed with
:func:`disable`.  When no recorder is active, :func:`span` returns a
shared no-op span and :func:`count` returns immediately — the cost of
disabled telemetry is one ``None`` check per call site.

Clocks are injectable (``perf_counter`` by default, monotonic), which
keeps the examples below — and the test suite — deterministic:

>>> ticks = iter(range(10))
>>> recorder = TelemetryRecorder(clock=lambda: float(next(ticks)))
>>> with recorder.span("simulate", days=98) as run:
...     with recorder.span("build_world"):
...         pass
...     run.add("users", 240)
>>> snap = recorder.snapshot()
>>> snap["spans"]["simulate/build_world"]["seconds"]
1.0
>>> snap["spans"]["simulate"]["seconds"]
3.0
>>> snap["spans"]["simulate"]["counters"] == {"days": 98, "users": 240}
True

The global switch, and the disabled path's no-op singleton:

>>> enabled()
False
>>> span("anything") is span("anything else")  # shared no-op span
True
>>> recorder = enable()
>>> with span("analyze"):
...     count("rows", 3)
>>> snapshot()["counters"]["rows"]
3
>>> disable() is recorder
True
"""

from __future__ import annotations

import functools
import time

__all__ = [
    "Span",
    "TelemetryRecorder",
    "NOOP_SPAN",
    "enabled",
    "enable",
    "disable",
    "active",
    "swap",
    "span",
    "count",
    "absorb",
    "snapshot",
    "timed",
]

SNAPSHOT_VERSION = 1


class _NoopSpan:
    """The span handed out while telemetry is disabled: does nothing."""

    __slots__ = ()

    path = None

    def add(self, name: str, value: float = 1) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


#: Shared no-op instance — stateless, so one object serves every
#: disabled call site without allocation.
NOOP_SPAN = _NoopSpan()


class Span:
    """One live timed section; created by :meth:`TelemetryRecorder.span`.

    Use as a context manager.  ``path`` is set on entry (the recorder's
    stack joined with ``/``) and survives exit, so callers can anchor
    later merges to where a span actually ran.
    """

    __slots__ = ("_recorder", "_name", "_counters", "_start", "path")

    def __init__(
        self, recorder: "TelemetryRecorder", name: str, counters: dict
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._counters = counters
        self._start = 0.0
        self.path: str | None = None

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate a per-span counter (e.g. rows/events/bytes)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def __enter__(self) -> "Span":
        recorder = self._recorder
        recorder._stack.append(self._name)
        self.path = "/".join(recorder._stack)
        self._start = recorder._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        recorder = self._recorder
        elapsed = recorder._clock() - self._start
        recorder._stack.pop()
        recorder._record(self.path, elapsed, self._counters)
        return False


class TelemetryRecorder:
    """Accumulates span timings and counters for one run.

    ``clock`` must be monotonic; it defaults to ``time.perf_counter``.
    Recorders are cheap, self-contained, and JSON-serializable via
    :meth:`snapshot`, which is what lets pool workers ship their
    measurements back to the coordinator for merging.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[str] = []
        # path -> {"calls": int, "seconds": float, "counters": {...}}
        self._spans: dict[str, dict] = {}
        self._counters: dict[str, float] = {}

    # -- recording ----------------------------------------------------------
    def span(self, name: str, **counters: float) -> Span:
        """A new timed section; keyword arguments seed its counters."""
        return Span(self, name, dict(counters))

    @property
    def path(self) -> str:
        """The path of the innermost open span (``""`` at the root)."""
        return "/".join(self._stack)

    def count(self, name: str, value: float = 1) -> None:
        """Increment a process-wide counter."""
        self._counters[name] = self._counters.get(name, 0) + value

    def _record(self, path: str, seconds: float, counters: dict) -> None:
        stats = self._spans.get(path)
        if stats is None:
            stats = {"calls": 0, "seconds": 0.0, "counters": {}}
            self._spans[path] = stats
        stats["calls"] += 1
        stats["seconds"] += seconds
        merged = stats["counters"]
        for name, value in counters.items():
            merged[name] = merged.get(name, 0) + value

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-serializable copy of everything recorded so far."""
        return {
            "version": SNAPSHOT_VERSION,
            "spans": {
                path: {
                    "calls": stats["calls"],
                    "seconds": stats["seconds"],
                    "counters": dict(stats["counters"]),
                }
                for path, stats in self._spans.items()
            },
            "counters": dict(self._counters),
        }

    def absorb(self, snapshot: dict, prefix: str | None = None) -> None:
        """Merge a snapshot (e.g. from a pool worker) into this recorder.

        ``prefix`` re-roots the snapshot's span paths — a worker records
        ``shard/scatter`` from its own root, and the coordinator absorbs
        it under the span that dispatched the work.  Counters merge by
        name (no prefix): they are process-wide sums by definition.
        """
        for path, stats in snapshot.get("spans", {}).items():
            full = f"{prefix}/{path}" if prefix else path
            target = self._spans.get(full)
            if target is None:
                target = {"calls": 0, "seconds": 0.0, "counters": {}}
                self._spans[full] = target
            target["calls"] += stats["calls"]
            target["seconds"] += stats["seconds"]
            merged = target["counters"]
            for name, value in stats.get("counters", {}).items():
                merged[name] = merged.get(name, 0) + value
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value

    def reset(self) -> None:
        """Drop everything recorded (the stack must be empty)."""
        if self._stack:
            raise RuntimeError("cannot reset a recorder with open spans")
        self._spans.clear()
        self._counters.clear()


# -- the global switch -------------------------------------------------------
# One process-wide active recorder. `None` means disabled, and every
# recording entry point starts with that single `None` check — the
# entire cost of disabled telemetry.
_ACTIVE: TelemetryRecorder | None = None


def enabled() -> bool:
    """True when a recorder is installed (telemetry is collecting)."""
    return _ACTIVE is not None


def active() -> TelemetryRecorder | None:
    """The installed recorder, or ``None`` when disabled."""
    return _ACTIVE


def enable(recorder: TelemetryRecorder | None = None) -> TelemetryRecorder:
    """Install ``recorder`` (a fresh one by default) and return it."""
    global _ACTIVE
    _ACTIVE = recorder if recorder is not None else TelemetryRecorder()
    return _ACTIVE


def disable() -> TelemetryRecorder | None:
    """Remove and return the installed recorder (``None`` if none was)."""
    global _ACTIVE
    recorder, _ACTIVE = _ACTIVE, None
    return recorder


def swap(recorder: TelemetryRecorder | None) -> TelemetryRecorder | None:
    """Install ``recorder`` (or disable on ``None``); return the previous."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, recorder
    return previous


def span(name: str, **counters: float):
    """A span on the active recorder; the shared no-op when disabled."""
    recorder = _ACTIVE
    if recorder is None:
        return NOOP_SPAN
    return recorder.span(name, **counters)


def count(name: str, value: float = 1) -> None:
    """Increment a counter on the active recorder; no-op when disabled."""
    recorder = _ACTIVE
    if recorder is None:
        return
    recorder.count(name, value)


def absorb(snapshot: dict, prefix: str | None = None) -> None:
    """Merge a snapshot into the active recorder; no-op when disabled."""
    recorder = _ACTIVE
    if recorder is None:
        return
    recorder.absorb(snapshot, prefix=prefix)


def snapshot() -> dict | None:
    """Snapshot of the active recorder, or ``None`` when disabled."""
    recorder = _ACTIVE
    return None if recorder is None else recorder.snapshot()


def timed(name: str):
    """Decorator: time every call of the function as a span.

    The disabled path costs one ``None`` check before delegating:

    >>> @timed("square")
    ... def square(x):
    ...     return x * x
    >>> square(4)  # telemetry disabled: plain call
    16
    >>> recorder = enable()
    >>> square(5)
    25
    >>> snapshot()["spans"]["square"]["calls"]
    1
    >>> _ = disable()
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder = _ACTIVE
            if recorder is None:
                return fn(*args, **kwargs)
            with recorder.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
