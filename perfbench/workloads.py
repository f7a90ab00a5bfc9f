"""The benchmark's three workloads over the public pipeline.

Each workload has a set-up, which builds its inputs and the reference
its outputs are checked against, and an operation, which the run
repeats and times.  ``prepare`` runs before every operation, untimed,
to put the workspace back in the state the operation starts from.

Every operation's output is checked:

- ``batch_study`` / ``reanalyze``: the SHA-256 of the summary and of
  the full report must equal the reference made at set-up, and every
  paper verdict that passes on the reference must still pass.
- ``live_advance``: the summary after the advance must equal the
  summary of a run simulated from scratch to the same day count (the
  live-vs-batch contract of ``Run.advance``).

Each reference comes from another path through the program than the
operation it checks, so a check compares two implementations rather
than one run with itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Study days in a run (the paper's February–May 2020 window).
STUDY_DAYS = 98
#: Engine shards of every simulation; results do not depend on it.
SHARDS = 2
#: The live run is set up to this day: past the day-49 lockdown, so the
#: summary's intervention deltas exist (earlier days are "warming up").
LIVE_START_DAY = 56

#: (users, radio sites) per workload and size.  ``default`` is what
#: BENCHMARK.json measures; ``tiny`` keeps the smoke test short.
SIZES = {
    "default": {
        "batch_study": (3_000, 180),
        "reanalyze": (5_000, 300),
        "live_advance": (3_000, 180),
    },
    "tiny": {
        "batch_study": (1_500, 150),
        "reanalyze": (1_500, 150),
        "live_advance": (1_500, 150),
    },
}


def summary_sha(summary: dict) -> str:
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()
    ).hexdigest()


def text_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def passing_verdicts(summary: dict) -> frozenset[str]:
    from repro.core.paper_targets import evaluate_summary

    return frozenset(
        verdict.target.key
        for verdict in evaluate_summary(summary)
        if verdict.passed
    )


def run_bytes(directory: Path) -> int:
    """Bytes of a run directory's files, its analysis cache excluded."""
    return sum(
        path.stat().st_size
        for path in directory.rglob("*")
        if path.is_file()
        and "cache" not in path.relative_to(directory).parts
    )


@dataclass(frozen=True)
class Reference:
    """What a correct operation must reproduce."""

    summary_sha: str
    report_sha: str | None
    passing: frozenset[str]

    def problems(self, summary: dict, report: str | None) -> list[str]:
        found = []
        if summary_sha(summary) != self.summary_sha:
            found.append("summary digest differs from the reference")
        if report is not None and text_sha(report) != self.report_sha:
            found.append("report digest differs from the reference")
        lost = self.passing - passing_verdicts(summary)
        if lost:
            found.append(f"verdicts no longer pass: {sorted(lost)}")
        return found


@dataclass
class Sample:
    """One timed operation."""

    op_s: float
    analyze_s: float
    user_days: int
    problems: list[str] = field(default_factory=list)
    #: Benchmark-side counts the traced run keeps beside its spans.
    facts: dict = field(default_factory=dict)
    #: Calibration seconds just before and just after the operation.
    speed: tuple[float, float] = (0.0, 0.0)
    #: The process's peak resident set once the operation finished.
    rss_mb: float = 0.0


class Workload:
    """One workload; subclasses name it and define its set-up and
    operation (why each exists: BENCHMARK.json and the README)."""

    name = ""

    def __init__(self, workdir: Path, seed: int, size: str) -> None:
        from repro.simulation.config import SimulationConfig

        self.workdir = workdir
        # Process-pool width: two, or fewer on a smaller machine.
        self.workers = max(1, min(2, os.cpu_count() or 1))
        users, sites = SIZES[size][self.name]
        self.config = SimulationConfig(
            num_users=users, target_site_count=sites, seed=seed
        ).with_parallelism(SHARDS, self.workers)
        self.reference: Reference | None = None

    @property
    def users(self) -> int:
        return int(self.config.num_users)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: reset the workspace for the next operation."""

    def op(self) -> Sample:
        raise NotImplementedError

    def _analyze(self, directory: Path, *, cache: bool, workers=None):
        """Lazy open, then the summary and the full report."""
        from repro import api

        study = api.Run.open(directory, lazy=True).study(
            cache=cache, workers=workers
        )
        return study.summary(), study.report(full=True)


class BatchStudy(Workload):
    """simulate → lazy open → summary + full report on a cold cache."""

    name = "batch_study"

    def setup(self) -> None:
        # Reference: the same shards run in-process, in memory, analysed
        # uncached — the operation runs them on the process pool,
        # persisted, then opens lazily and analyses through the cache.
        # (Shard count stays: KPI sums are only allclose across it.)
        from repro import api

        run = api.simulate(self.config.with_parallelism(SHARDS, 1))
        study = run.study(cache=False)
        summary = study.summary()
        self.reference = Reference(
            summary_sha(summary),
            text_sha(study.report(full=True)),
            passing_verdicts(summary),
        )

    def prepare(self) -> None:
        shutil.rmtree(self.workdir / "batch", ignore_errors=True)

    def op(self) -> Sample:
        from repro import api

        directory = self.workdir / "batch"
        start = time.perf_counter()
        api.simulate(self.config, directory)
        simulated = time.perf_counter()
        summary, report = self._analyze(directory, cache=True)
        end = time.perf_counter()
        user_days = self.users * STUDY_DAYS
        return Sample(
            op_s=end - start,
            analyze_s=end - simulated,
            user_days=user_days,
            problems=self.reference.problems(summary, report),
            facts={
                "simulated_user_days": user_days,
                "saved_bytes": run_bytes(directory),
            },
        )


class Reanalyze(Workload):
    """Cold re-analysis of one stored run, the artifact cache bypassed."""

    name = "reanalyze"

    def setup(self) -> None:
        # Reference: an eager open with the artifact cache attached —
        # the operation opens lazily, uncached, on the process pool.
        from repro import api

        directory = self.workdir / "stored"
        shutil.rmtree(directory, ignore_errors=True)
        api.simulate(self.config, directory)
        study = api.Run.open(directory).study()
        summary = study.summary()
        self.reference = Reference(
            summary_sha(summary),
            text_sha(study.report(full=True)),
            passing_verdicts(summary),
        )

    def op(self) -> Sample:
        start = time.perf_counter()
        summary, report = self._analyze(
            self.workdir / "stored", cache=False, workers=self.workers
        )
        end = time.perf_counter()
        return Sample(
            op_s=end - start,
            analyze_s=end - start,
            user_days=self.users * STUDY_DAYS,
            problems=self.reference.problems(summary, report),
        )


class LiveAdvance(Workload):
    """One live day: ``Run.advance(1)``, then a watch-style refresh."""

    name = "live_advance"

    def setup(self) -> None:
        # The live run at LIVE_START_DAY, refreshed once as a watch loop
        # would have (warming the per-range artifacts), and the
        # reference: a run simulated from scratch to one day more.
        from repro import api

        live = self.workdir / "live-start"
        scratch = self.workdir / "from-scratch"
        for directory in (live, scratch):
            shutil.rmtree(directory, ignore_errors=True)
        api.simulate(self.config, live, days=LIVE_START_DAY)
        self._refresh(live)
        api.simulate(self.config, scratch, days=LIVE_START_DAY + 1)
        summary = api.Run.open(scratch, lazy=True).study(cache=False).summary()
        shutil.rmtree(scratch)
        self.reference = Reference(
            summary_sha(summary), None, passing_verdicts(summary)
        )

    def prepare(self) -> None:
        from repro import api

        directory = self.workdir / "live"
        shutil.rmtree(directory, ignore_errors=True)
        shutil.copytree(self.workdir / "live-start", directory)
        # A watch loop holds its handle across days; opening it is not
        # part of a day's cost (the previous advance re-loaded it).
        self._run = api.Run.open(directory)

    def _refresh(self, directory: Path) -> dict:
        """The ``repro watch`` refresh: the summary from the cache when
        stored, else a lazy recompute that reuses range artifacts."""
        from repro import api
        from repro.analysis.cache import ArtifactCache, summary_params

        cache = ArtifactCache.open(directory)
        if cache is not None:
            summary = cache.get("summary", summary_params())
            if isinstance(summary, dict):
                return summary
        return (
            api.Run.open(directory, lazy=True)
            .study(cache=cache if cache is not None else False)
            .summary()
        )

    def op(self) -> Sample:
        start = time.perf_counter()
        self._run.advance(1)
        advanced = time.perf_counter()
        summary = self._refresh(self.workdir / "live")
        end = time.perf_counter()
        return Sample(
            op_s=end - start,
            analyze_s=end - advanced,
            user_days=self.users,
            problems=self.reference.problems(summary, None),
            facts={"simulated_user_days": self.users},
        )


WORKLOADS = {cls.name: cls for cls in (BatchStudy, Reanalyze, LiveAdvance)}
