"""Spans around the public calls of each layer, for the traced run.

The benchmark records its own spans: :class:`Tracer` wraps a fixed set
of public entry points (``Simulator.run``, ``save_feeds``,
``load_feeds``, ``compute_daily_metrics``, ``CovidImpactStudy.summary``,
``ArtifactCache.get``, ...) with a timer for as long as it is
installed, and turns a ``repro.telemetry`` recorder on beside them.
The recorder's snapshot supplies the sub-phases and counters the
program already measures (``scatter``, ``dwell_assembly``,
``build_world``, the cache and store counters); nothing in the program
is changed.

Spans are kept in memory per operation and reduced to per-layer
metrics by :func:`layer_metrics` when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time

#: (module, attribute path, span name) of every wrapped entry point.
#: Names are looked up where the caller resolves them: the analysis
#: kernels as ``repro.analysis.mobility`` imported them, the store
#: calls through ``repro.io`` as ``repro.api`` imports them.
WRAPPED = (
    ("repro.simulation.engine", "Simulator.run", "simulation.run"),
    ("repro.io", "save_feeds", "io.save"),
    ("repro.io", "load_feeds", "io.load"),
    ("repro.io", "append_feeds", "io.append"),
    ("repro.analysis.mobility", "compute_daily_metrics", "analysis.metrics"),
    ("repro.analysis.mobility", "detect_homes", "analysis.homes"),
    ("repro.analysis.mobility", "night_win_counts", "analysis.homes"),
    ("repro.analysis.mobility", "label_kpis", "core.label_kpis"),
    ("repro.analysis.cache", "ArtifactCache.get", "analysis.cache_read"),
    ("repro.core.study", "CovidImpactStudy.summary", "core.summary"),
    ("repro.core.study", "CovidImpactStudy.report", "core.report"),
    ("repro.core.study", "CovidImpactStudy.fig3", "core.fig3"),
    ("repro.core.study", "CovidImpactStudy.fig8", "core.fig8"),
    ("repro.core.study", "CovidImpactStudy.fig10", "core.fig10"),
    ("repro.api", "Run.advance", "api.advance"),
)


def _metrics_user_days(args, kwargs) -> int:
    """User-days one ``compute_daily_metrics`` call covers."""
    feeds = args[0] if args else kwargs["feeds"]
    day_range = kwargs.get("day_range")
    days = (
        feeds.mobility.num_days
        if day_range is None
        else day_range[1] - day_range[0]
    )
    return int(feeds.num_users) * int(days)


class Tracer:
    """Times the wrapped calls of one operation at a time.

    Use as a context manager around the traced part of a run; call
    :meth:`begin_op` / :meth:`end_op` around each operation.  Only
    calls made in this process are seen: pool workers run the layers'
    inner kernels, whose time the recorder snapshot brings back.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._calls: list[tuple[str, float]] = []
        self._metrics_user_days = 0
        self._recorder = None
        self.ops: list[dict] = []

    # -- install / remove ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        import importlib

        for module_name, attribute, span in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, name = attribute.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, span))
        return self

    def __exit__(self, *exc_info) -> bool:
        from repro import telemetry

        telemetry.disable()
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False

    def _wrap(self, original, span: str):
        calls = self._calls
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                calls.append((span, time.perf_counter() - start))
                if span == "analysis.metrics":
                    tracer._metrics_user_days += _metrics_user_days(
                        args, kwargs
                    )

        return timed

    # -- per operation ------------------------------------------------------
    def begin_op(self) -> None:
        from repro import telemetry

        self._calls.clear()
        self._metrics_user_days = 0
        self._recorder = telemetry.enable(telemetry.TelemetryRecorder())

    def end_op(self, **facts) -> None:
        """Close one operation; ``facts`` are benchmark-side counts
        (simulated user-days, bytes saved) kept beside its spans."""
        from repro import telemetry

        snapshot = self._recorder.snapshot()
        telemetry.disable()
        self.ops.append(
            {
                "calls": list(self._calls),
                "metrics_user_days": self._metrics_user_days,
                "snapshot": snapshot,
                **facts,
            }
        )


# -- reduction ------------------------------------------------------------

#: Every per-layer metric :func:`layer_metrics` reports, with its unit.
UNITS = {
    "simulation.run_s": "s",
    "simulation.user_days_per_s": "1/s",
    "simulation.scatter_s": "s",
    "simulation.dwell_assembly_s": "s",
    "simulation.build_world_s": "s",
    "simulation.shard_retries": "count",
    "simulation.pool_degradations": "count",
    "io.save_s": "s",
    "io.save_mb_per_s": "MB/s",
    "io.load_s": "s",
    "io.digest_verifications": "count",
    "io.bytes_mapped": "B",
    "io.append_s": "s",
    "analysis.metrics_s": "s",
    "analysis.metrics_user_days_per_s": "1/s",
    "analysis.homes_s": "s",
    "analysis.shards_dispatched": "count",
    "analysis.pool_degraded": "count",
    "analysis.cache_hits": "count",
    "analysis.cache_misses": "count",
    "analysis.cache_hit_ratio": "1",
    "analysis.cache_bytes_written": "B",
    "analysis.cache_read_s.p50": "s",
    "core.summary_s": "s",
    "core.report_s": "s",
    "core.fig3_s": "s",
    "core.fig8_s": "s",
    "core.fig10_s": "s",
    "core.label_kpis_s": "s",
    "api.advance_s": "s",
    "trace.overhead_frac": "1",
}


def _span_seconds(op: dict, name: str) -> float:
    return sum(seconds for span, seconds in op["calls"] if span == name)


def _phase_seconds(op: dict, leaf: str) -> float:
    """Summed recorder time of every span path ending in ``leaf``."""
    return sum(
        stats["seconds"]
        for path, stats in op["snapshot"]["spans"].items()
        if path.rsplit("/", 1)[-1] == leaf
    )


def _counter(op: dict, name: str) -> float:
    return float(op["snapshot"]["counters"].get(name, 0))


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the traced operations.

    Timings are the median over operations of the time one operation
    spent in the layer; counts are the median per operation; rates
    divide the summed work by the summed time.  The caller adds
    ``trace.overhead_frac``, which needs the untraced run.
    """

    def per_op(fn) -> float:
        return _median(fn(op) for op in ops)

    def total(fn) -> float:
        return float(sum(fn(op) for op in ops))

    sim_s = total(lambda op: _span_seconds(op, "simulation.run"))
    save_s = total(lambda op: _span_seconds(op, "io.save"))
    metrics_s = total(lambda op: _span_seconds(op, "analysis.metrics"))
    hits = total(lambda op: _counter(op, "cache.hits"))
    misses = total(lambda op: _counter(op, "cache.misses"))
    cache_reads = [
        seconds
        for op in ops
        for span, seconds in op["calls"]
        if span == "analysis.cache_read"
    ]
    return {
        "simulation.run_s": per_op(
            lambda op: _span_seconds(op, "simulation.run")
        ),
        "simulation.user_days_per_s": _rate(
            total(lambda op: op.get("simulated_user_days", 0)), sim_s
        ),
        "simulation.scatter_s": per_op(
            lambda op: _phase_seconds(op, "scatter")
        ),
        "simulation.dwell_assembly_s": per_op(
            lambda op: _phase_seconds(op, "dwell_assembly")
        ),
        "simulation.build_world_s": per_op(
            lambda op: _phase_seconds(op, "build_world")
        ),
        "simulation.shard_retries": per_op(
            lambda op: _counter(op, "engine.shard_retries")
        ),
        "simulation.pool_degradations": per_op(
            lambda op: _counter(op, "engine.pool_degradations")
        ),
        "io.save_s": per_op(lambda op: _span_seconds(op, "io.save")),
        "io.save_mb_per_s": _rate(
            total(lambda op: op.get("saved_bytes", 0)) / 1e6, save_s
        ),
        "io.load_s": per_op(lambda op: _span_seconds(op, "io.load")),
        "io.digest_verifications": per_op(
            lambda op: _counter(op, "store.digest_verifications")
        ),
        "io.bytes_mapped": per_op(
            lambda op: _counter(op, "store.bytes_mapped")
        ),
        "io.append_s": per_op(lambda op: _span_seconds(op, "io.append")),
        "analysis.metrics_s": per_op(
            lambda op: _span_seconds(op, "analysis.metrics")
        ),
        "analysis.metrics_user_days_per_s": _rate(
            total(lambda op: op["metrics_user_days"]), metrics_s
        ),
        "analysis.homes_s": per_op(
            lambda op: _span_seconds(op, "analysis.homes")
        ),
        "analysis.shards_dispatched": per_op(
            lambda op: _counter(op, "analysis.shards_dispatched")
        ),
        "analysis.pool_degraded": per_op(
            lambda op: _counter(op, "analysis.pool_degraded")
        ),
        "analysis.cache_hits": per_op(
            lambda op: _counter(op, "cache.hits")
        ),
        "analysis.cache_misses": per_op(
            lambda op: _counter(op, "cache.misses")
        ),
        "analysis.cache_hit_ratio": _rate(hits, hits + misses),
        "analysis.cache_bytes_written": per_op(
            lambda op: _counter(op, "cache.bytes_written")
        ),
        "analysis.cache_read_s.p50": _median(cache_reads),
        "core.summary_s": per_op(lambda op: _span_seconds(op, "core.summary")),
        "core.report_s": per_op(lambda op: _span_seconds(op, "core.report")),
        "core.fig3_s": per_op(lambda op: _span_seconds(op, "core.fig3")),
        "core.fig8_s": per_op(lambda op: _span_seconds(op, "core.fig8")),
        "core.fig10_s": per_op(lambda op: _span_seconds(op, "core.fig10")),
        "core.label_kpis_s": per_op(
            lambda op: _span_seconds(op, "core.label_kpis")
        ),
        "api.advance_s": per_op(lambda op: _span_seconds(op, "api.advance")),
    }
