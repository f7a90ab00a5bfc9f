"""The end-to-end study driver.

:class:`CovidImpactStudy` runs (or receives) a simulation and exposes
one method per paper artifact — ``fig2()`` through ``fig12()``,
``table1()``, the §2.4 RAT shares and the §4.4 correlations — plus a
``summary()`` of every headline number and a printable ``report()``.

All results are computed lazily and cached in memory, so a study object
can be shared across figures without recomputation.  Two further layers
make repeated analysis cheap:

- **Persistent artifacts** — given an
  :class:`~repro.analysis.cache.ArtifactCache` (attached automatically
  by :meth:`repro.api.Run.study` and the CLI for persisted runs), every
  intermediate and figure payload is fetched from / stored into the
  run's content-addressed ``cache/analysis/`` store, so a second
  process never recomputes what the first already produced.  Cached and
  fresh results are bitwise identical; without a cache the cost is one
  ``None`` check per artifact.
- **Parallel fan-out** — ``summary()`` and ``report()`` compute the
  independent figure chains concurrently.  With ``workers`` > 1 on a
  persisted, cached run the chains run in *process-pool* workers
  (:func:`repro.analysis.parallel.map_figure_chains`): each worker
  rebuilds the study from the run directory and lands its artifacts in
  the shared content-addressed cache, sidestepping the GIL the
  CPU-bound figure reductions otherwise serialize behind; when the
  pool is unavailable, the chains it did not finish run in-process.
  Otherwise the chains fan out across threads.  The fan-out is skipped
  while telemetry is enabled, because span paths nest by call order and
  a profile interleaved across workers would be unreadable; results are
  identical every way, each artifact is computed exactly once.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property, wraps

import numpy as np

from repro import telemetry
from repro.analysis.cache import report_params, summary_params
from repro.core.correlation import (
    EntropyCasesResult,
    cluster_users_volume_correlation,
    entropy_cases_correlation,
)
from repro.core.home import HomeDetectionResult
from repro.core.mobility_series import (
    MobilitySeries,
    geodemographic_mobility,
    national_mobility,
    regional_mobility,
)
from repro.core.performance import (
    PERF_METRICS,
    WeeklySeries,
    performance_series,
)
from repro.core.relocation import RelocationMatrix, relocation_matrix
from repro.core.report import render_series_block
from repro.core.rat_usage import rat_time_share
from repro.core.statistics import MobilityDailyMetrics
from repro.core.validation import HomeValidation, validate_against_census
from repro.core.voice_analysis import VOICE_METRICS, voice_series
from repro.geo.oac import oac_table
from repro.simulation.clock import BASELINE_WEEK
from repro.simulation.config import SimulationConfig
from repro.simulation.feeds import DataFeeds

__all__ = ["CovidImpactStudy"]


def _memoized(method):
    """Memoize a no-argument method in its instance's ``__dict__``.

    Like ``cached_property``, the result is freed with the study;
    ``functools.cache`` on a method would keep every study alive.
    """
    key = f"_memo_{method.__name__}"

    @wraps(method)
    def memoized(self):
        if key not in self.__dict__:
            self.__dict__[key] = method(self)
        return self.__dict__[key]

    return memoized


class CovidImpactStudy:
    """Reproduce the paper's evaluation on a data-feeds bundle.

    Parameters
    ----------
    feeds:
        The data feeds to analyze.
    gyration_mode:
        Passed through to :func:`~repro.core.statistics.
        compute_daily_metrics`.
    cache:
        An :class:`~repro.analysis.cache.ArtifactCache` to fetch/store
        every artifact through, or ``None`` (the default) for purely
        in-memory computation.
    parallel:
        Allow ``summary()``/``report()`` to fan the independent figure
        chains out concurrently (default).  ``False`` forces the
        serial order.
    workers:
        Process-pool width for the shard-streaming kernels (metrics,
        home detection) and the figure fan-out on a persisted cached
        run.  ``None`` (default) keeps the kernels serial and the
        figure fan-out on threads; results are bitwise identical for
        every value.
    """

    def __init__(
        self,
        feeds: DataFeeds,
        gyration_mode: str = "weighted",
        *,
        cache: "object | None" = None,
        parallel: bool = True,
        workers: int | None = None,
    ) -> None:
        self._feeds = feeds
        self._gyration_mode = gyration_mode
        self._cache = cache
        self._parallel = parallel
        self._workers = workers
        # Highest fan-out level already run: 0 none, 1 summary-level
        # artifacts, 2 the full-report set.
        self._materialized = 0

    @classmethod
    def run(
        cls,
        config: SimulationConfig | None = None,
        gyration_mode: str = "weighted",
    ) -> "CovidImpactStudy":
        """Simulate with ``config`` and wrap the result in a study."""
        from repro.simulation.engine import Simulator

        feeds = Simulator(config or SimulationConfig()).run()
        return cls(feeds, gyration_mode=gyration_mode)

    @property
    def feeds(self) -> DataFeeds:
        return self._feeds

    @property
    def artifact_cache(self):
        """The attached artifact cache (``None`` when uncached)."""
        return self._cache

    def _artifact(self, name: str, params: dict, compute):
        """Route one artifact through the persistent cache, if any."""
        if self._cache is None:
            return compute()
        return self._cache.get_or_compute(name, params, compute)

    def _mobility_params(self) -> dict:
        return {"gyration_mode": self._gyration_mode}

    # -- shared intermediates ------------------------------------------------
    # Each stage runs under a telemetry span (recorded only while
    # repro.telemetry is enabled). Spans fire on first computation —
    # cached re-reads cost nothing — and nest by call stack, so the
    # phase table shows each stage under whichever artifact actually
    # triggered it.
    # The three shared intermediates compute through
    # repro.analysis.mobility: on a segmented live run their
    # whole-window keys miss after every advance (the digest map
    # changed), but the composition recomputes only the appended
    # segment — the prefix ranges are served from their own
    # segment-keyed cache entries, bitwise-identical to a from-scratch
    # recomputation.
    @cached_property
    def metrics(self) -> MobilityDailyMetrics:
        """Per-user-day entropy/gyration over the whole window."""
        from repro.analysis.mobility import incremental_daily_metrics

        with telemetry.span("metrics") as sp:
            result = self._artifact(
                "metrics",
                self._mobility_params(),
                lambda: incremental_daily_metrics(
                    self._feeds,
                    gyration_mode=self._gyration_mode,
                    cache=self._cache,
                    workers=self._workers,
                ),
            )
            sp.add(
                "user_days",
                self._feeds.num_users * self._feeds.mobility.num_days,
            )
            return result

    @cached_property
    def homes(self) -> HomeDetectionResult:
        from repro.analysis.mobility import incremental_homes

        with telemetry.span("home_detection"):
            return self._artifact(
                "homes",
                {},
                lambda: incremental_homes(
                    self._feeds, cache=self._cache, workers=self._workers
                ),
            )

    @cached_property
    def labeled_kpis(self):
        from repro.analysis.mobility import incremental_labeled_kpis

        with telemetry.span("label_kpis"):
            return self._artifact(
                "labeled_kpis",
                {},
                lambda: incremental_labeled_kpis(
                    self._feeds, cache=self._cache
                ),
            )

    # -- paper artifacts ------------------------------------------------------
    def table1(self) -> list[tuple[str, str]]:
        """Table 1: the geodemographic cluster catalog."""
        return oac_table()

    @_memoized
    def fig2(self) -> HomeValidation:
        """Fig 2: inferred vs census LAD populations."""
        with telemetry.span("fig2"):
            return self._artifact(
                "fig2",
                {},
                lambda: validate_against_census(self._feeds, self.homes),
            )

    @_memoized
    def fig3(self) -> dict[str, MobilitySeries]:
        """Fig 3: national daily gyration/entropy change."""
        with telemetry.span("fig3"):
            return self._artifact(
                "fig3",
                self._mobility_params(),
                lambda: national_mobility(self.metrics, self._feeds),
            )

    @_memoized
    def fig4(self) -> EntropyCasesResult:
        """Fig 4: entropy change vs cumulative confirmed cases."""
        with telemetry.span("fig4"):
            return self._artifact(
                "fig4",
                self._mobility_params(),
                lambda: entropy_cases_correlation(self.fig3(), self._feeds),
            )

    @_memoized
    def fig5(self) -> dict[str, MobilitySeries]:
        """Fig 5: regional mobility (five high-density regions)."""
        with telemetry.span("fig5"):
            return self._artifact(
                "fig5",
                self._mobility_params(),
                lambda: regional_mobility(self.metrics, self._feeds),
            )

    @_memoized
    def fig6(self) -> dict[str, MobilitySeries]:
        """Fig 6: mobility per geodemographic cluster."""
        with telemetry.span("fig6"):
            return self._artifact(
                "fig6",
                self._mobility_params(),
                lambda: geodemographic_mobility(self.metrics, self._feeds),
            )

    @_memoized
    def fig7(self) -> RelocationMatrix:
        """Fig 7: the Inner-London relocation mobility matrix."""
        with telemetry.span("fig7"):
            return self._artifact(
                "fig7",
                {},
                lambda: relocation_matrix(self._feeds, self.homes),
            )

    def _performance(
        self, name: str, grouping: str, county: str | None = None
    ) -> dict[str, WeeklySeries]:
        """Every data-traffic KPI's weekly series for one grouping."""
        with telemetry.span(name):
            return self._artifact(
                name,
                {"percentile": 50.0},
                lambda: {
                    metric: performance_series(
                        self._feeds, metric, grouping=grouping,
                        restrict_county=county,
                        labeled=self.labeled_kpis,
                    )
                    for metric in PERF_METRICS
                },
            )

    @_memoized
    def fig8(self) -> dict[str, WeeklySeries]:
        """Fig 8: UK + regional series for every data-traffic KPI."""
        return self._performance("fig8", "county")

    @_memoized
    def fig9(self) -> dict[str, WeeklySeries]:
        """Fig 9: national voice-traffic series (QCI = 1)."""
        with telemetry.span("fig9"):
            return self._artifact(
                "fig9",
                {"percentile": 50.0},
                lambda: voice_series(
                    self._feeds, labeled=self.labeled_kpis
                ),
            )

    @_memoized
    def fig10(self) -> dict[str, WeeklySeries]:
        """Fig 10: network performance per geodemographic cluster."""
        return self._performance("fig10", "oac")

    @_memoized
    def fig11(self) -> dict[str, WeeklySeries]:
        """Fig 11: Inner-London postal-district network performance."""
        return self._performance("fig11", "district_area", "Inner London")

    @_memoized
    def fig12(self) -> dict[str, WeeklySeries]:
        """Fig 12: London network performance per OAC cluster."""
        return self._performance("fig12", "oac", "Inner London")

    @_memoized
    def rat_share(self) -> dict[str, float]:
        """§2.4: connected-time share per RAT."""
        with telemetry.span("rat_share"):
            return self._artifact(
                "rat_share",
                {},
                lambda: rat_time_share(self._feeds.rat_time),
            )

    @_memoized
    def cluster_correlations(self) -> dict[str, float]:
        """§4.4: users-vs-DL-volume correlation per cluster."""
        with telemetry.span("cluster_correlations"):
            def fresh() -> dict[str, float]:
                fig10 = self.fig10()
                return cluster_users_volume_correlation(
                    fig10["connected_users"], fig10["dl_volume_mb"]
                )

            return self._artifact(
                "cluster_correlations", {"percentile": 50.0}, fresh
            )

    def verdicts(self):
        """Score this run against every machine-readable paper target."""
        from repro.core.paper_targets import evaluate_summary

        return evaluate_summary(self.summary())

    def recovery_ranking(self, metric: str = "gyration"):
        """§3.2 quantified: regional recovery slopes, fastest first."""
        from repro.core.recovery import rank_recoveries

        return rank_recoveries(self.fig5()[metric])

    def weekly_rhythm(self, metric: str = "gyration"):
        """Weekday/weekend gap of the national series, per week."""
        from repro.core.seasonality import weekly_rhythm

        series = self.fig3()[metric]
        return weekly_rhythm(
            series.values["UK"], series.x, self._feeds.calendar
        )

    # -- parallel fan-out -----------------------------------------------------
    #: The independent artifact chains of the summary-level fan-out,
    #: ordered so every artifact is computed exactly once (``fig4``
    #: rides with ``fig3``, the cluster correlations with ``fig10``).
    _SUMMARY_CHAINS = (
        ("fig2",),
        ("fig3", "fig4"),
        ("fig7",),
        ("fig8",),
        ("fig9",),
        ("fig10", "cluster_correlations"),
        ("fig11",),
        ("rat_share",),
    )
    #: Chains the full report adds on top of the summary set.
    _FULL_CHAINS = (("fig5",), ("fig6",), ("fig12",))

    def _materialize_artifacts(self, full: bool) -> None:
        """Compute the independent artifact chains concurrently.

        The shared intermediates are forced first on the calling
        thread.  With explicit ``workers`` > 1 on a persisted cached
        run the chains go to a process pool
        (:func:`repro.analysis.parallel.map_figure_chains`) whose
        workers warm the shared artifact cache; a chain that pool does
        not finish runs on this study.  Otherwise they fan out across
        threads.  Skipped entirely (falling back to the identical
        serial order) when ``parallel=False``, while telemetry is
        enabled (span paths nest by call order), or for the thread path
        on a single-CPU host.
        """
        level = 2 if full else 1
        if self._materialized >= level:
            return
        if not self._parallel or telemetry.enabled():
            return
        from repro.analysis import parallel as _parallel

        explicit = (
            self._workers is not None
            and _parallel.resolve_workers(self._workers) > 1
            and not _parallel.use_serial()
        )
        directory = getattr(self._feeds, "source_directory", None)
        processes = (
            explicit and self._cache is not None and directory is not None
        )
        cpus = os.cpu_count() or 1
        if not processes and cpus <= 1:
            return
        _ = (self.metrics, self.homes, self.labeled_kpis)
        chains = list(self._SUMMARY_CHAINS)
        if full:
            chains += list(self._FULL_CHAINS)
        if processes:
            _parallel.map_figure_chains(
                self,
                str(directory),
                self._gyration_mode,
                chains,
                workers=_parallel.resolve_workers(self._workers),
            )
        else:
            with ThreadPoolExecutor(
                max_workers=min(len(chains), cpus)
            ) as pool:
                futures = [
                    pool.submit(
                        lambda names=chain: [
                            getattr(self, name)() for name in names
                        ]
                    )
                    for chain in chains
                ]
                for future in futures:
                    future.result()
        self._materialized = level

    # -- headline numbers -----------------------------------------------------
    @telemetry.timed("summary")
    def summary(self) -> dict[str, float]:
        """Every takeaway number of the paper, measured on this run."""
        def fresh() -> dict[str, float]:
            self._materialize_artifacts(full=False)
            return self._summary_fresh()

        return self._artifact(
            "summary", summary_params(self._gyration_mode), fresh
        )

    def _summary_fresh(self) -> dict[str, float]:
        feeds = self._feeds
        weeks_of_day = feeds.calendar.weeks[
            np.flatnonzero(feeds.calendar.weeks >= BASELINE_WEEK)
        ]
        fig3 = self.fig3()
        fig4 = self.fig4()
        fig8 = self.fig8()
        fig9 = self.fig9()
        fig10 = self.fig10()
        fig7 = self.fig7()
        validation = self.fig2()

        def weekly_avg(series: MobilitySeries, week: int) -> float:
            return series.at_week("UK", week, weeks_of_day=weeks_of_day)

        # The lockdown weeks the data holds: a live run before day 56
        # ends inside week 13.
        lockdown_weeks = [
            week for week in (13, 14) if np.any(weeks_of_day == week)
        ]
        lockdown_gyration = min(
            weekly_avg(fig3["gyration"], week) for week in lockdown_weeks
        )
        lockdown_entropy = min(
            weekly_avg(fig3["entropy"], week) for week in lockdown_weeks
        )

        dl = fig8["dl_volume_mb"]
        ul = fig8["ul_volume_mb"]
        # The paper quotes the uplink range "during lockdown" (§1):
        # restrict to weeks 13+ (weeks 10–12 show the pre-lockdown
        # growth the paper reports separately).
        ul_lockdown = ul.values["UK"][ul.weeks >= 13]
        users = fig8["dl_active_users"]
        throughput = fig8["user_dl_throughput_mbps"]
        load = fig8["radio_load_pct"]
        voice_vol = fig9["voice_volume_mb"]
        dl_loss = fig9["voice_dl_loss_rate"]
        ul_loss = fig9["voice_ul_loss_rate"]

        lockdown_days = np.flatnonzero(
            feeds.calendar.weeks[fig7.days] >= 14
        )
        # No week-14 day yet (a live run before day 56): no lockdown
        # share either.
        away = (
            np.mean([fig7.away_share(int(day)) for day in lockdown_days])
            if lockdown_days.size else np.nan
        )
        baseline_days = np.flatnonzero(
            feeds.calendar.weeks[fig7.days] == BASELINE_WEEK
        )
        away_baseline = np.mean(
            [fig7.away_share(int(day)) for day in baseline_days]
        )

        correlations = self.cluster_correlations()
        rat = self.rat_share()

        result = {
            "gyration_change_lockdown_pct": lockdown_gyration,
            "entropy_change_lockdown_pct": lockdown_entropy,
            "home_detection_rate": self.homes.detection_rate,
            "fig2_r_squared": validation.r_squared,
            "fig4_pearson_pre_lockdown": fig4.pearson_r_pre_lockdown,
            "fig4_pearson_pre_declaration": fig4.pearson_r_pre_declaration,
            "dl_volume_week10_pct": dl.at_week("UK", 10),
            "dl_volume_min_pct": dl.minimum("UK")[1],
            "dl_volume_min_week": dl.minimum("UK")[0],
            "ul_volume_lockdown_min_pct": float(ul_lockdown.min()),
            "ul_volume_lockdown_max_pct": float(ul_lockdown.max()),
            "ul_volume_week10_pct": ul.at_week("UK", 10),
            "active_users_min_pct": users.minimum("UK")[1],
            "throughput_min_pct": throughput.minimum("UK")[1],
            "radio_load_min_pct": load.minimum("UK")[1],
            "voice_volume_peak_pct": voice_vol.maximum("UK")[1],
            "voice_volume_peak_week": voice_vol.maximum("UK")[0],
            "voice_dl_loss_peak_pct": dl_loss.maximum("UK")[1],
            "voice_dl_loss_final_pct": float(dl_loss.values["UK"][-1]),
            "voice_ul_loss_min_pct": ul_loss.minimum("UK")[1],
            "inner_london_away_share_lockdown": float(away),
            "inner_london_away_share_baseline": float(away_baseline),
            "inner_london_dl_min_pct": dl.minimum("Inner London")[1],
            "outer_london_dl_min_pct": dl.minimum("Outer London")[1],
            "cosmopolitan_users_min_pct": (
                fig10["connected_users"].minimum("Cosmopolitans")[1]
            ),
            "rural_dl_min_pct": fig10["dl_volume_mb"].minimum(
                "Rural Residents"
            )[1],
            "corr_cosmopolitans": correlations.get("Cosmopolitans", 0.0),
            "corr_ethnicity_central": correlations.get(
                "Ethnicity Central", 0.0
            ),
            "corr_rural": correlations.get("Rural Residents", 0.0),
            "corr_suburbanites": correlations.get("Suburbanites", 0.0),
            "ec_dl_min_pct": self._fig11_min("EC"),
            "wc_dl_min_pct": self._fig11_min("WC"),
            "n_active_users_peak_pct": self._fig11_n_peak(),
            "rat_share_4g": rat.get("4G", 0.0),
        }
        # §4.1 / §4.2 growth framings ("rewound by one year", "seven
        # years of voice growth in days").
        from repro.core.annual_context import contextualize_summary

        result.update(contextualize_summary(result))
        return result

    def _fig11_min(self, area: str) -> float:
        series = self.fig11()["dl_volume_mb"]
        if area not in series.values:
            return float("nan")
        return series.minimum(area)[1]

    def _fig11_n_peak(self) -> float:
        """Max N-district active-user change over weeks 10–14 (§5.1)."""
        series = self.fig11()["dl_active_users"]
        if "N" not in series.values:
            return float("nan")
        mask = (series.weeks >= 10) & (series.weeks <= 14)
        return float(series.values["N"][mask].max())

    @telemetry.timed("report")
    def report(self, full: bool = False) -> str:
        """Printable study report: every figure as a text panel.

        The default report covers the national figures (3, 8, 9) plus
        the headline summary; ``full=True`` adds the Fig 2/4 scatters
        and the regional/cluster/London panels (5, 6, 10, 11, 12).
        """
        def fresh() -> str:
            self._materialize_artifacts(full=full)
            return self._report_fresh(full)

        return self._artifact(
            "report", report_params(full, self._gyration_mode), fresh
        )

    def _report_fresh(self, full: bool) -> str:
        from repro.core.baseline import weekly_mean
        from repro.core.report import scatter_plot

        blocks = []
        fig3 = self.fig3()
        weeks_of_day = self._feeds.calendar.weeks[fig3["gyration"].x]

        for metric in ("gyration", "entropy"):
            weeks, weekly = weekly_mean(
                fig3[metric].values["UK"], weeks_of_day
            )
            blocks.append(
                render_series_block(
                    f"Fig 3 — national {metric} (weekly mean of daily % change)",
                    weeks,
                    {"UK": weekly},
                )
            )
        if full:
            validation = self.fig2()
            blocks.append(
                "Fig 2 — inferred vs census LAD population "
                f"(r² = {validation.r_squared:.3f})\n"
                + scatter_plot(
                    validation.table["census_population"].astype(float),
                    validation.table["inferred_users"].astype(float),
                    x_label="census",
                    y_label="inferred users",
                )
            )
            fig4 = self.fig4()
            blocks.append(
                "Fig 4 — entropy change vs cumulative cases "
                f"(pre-declaration r = {fig4.pearson_r_pre_declaration:+.2f})\n"
                + scatter_plot(
                    fig4.cumulative_cases,
                    fig4.entropy_change_pct,
                    x_label="cumulative cases",
                    y_label="entropy change %",
                )
            )
            for fig_name, figure in (
                ("Fig 5", self.fig5()), ("Fig 6", self.fig6()),
            ):
                for metric in ("gyration", "entropy"):
                    series = figure[metric]
                    blocks.append(
                        render_series_block(
                            f"{fig_name} — {metric} "
                            "(% vs national week 9)",
                            series.x,
                            dict(sorted(series.values.items())),
                        )
                    )
        for metric, series in self.fig8().items():
            blocks.append(
                render_series_block(
                    f"Fig 8 — {metric}", series.weeks, series.values
                )
            )
        for metric, series in self.fig9().items():
            blocks.append(
                render_series_block(
                    f"Fig 9 — {metric}", series.weeks, series.values
                )
            )
        if full:
            for fig_name, figure in (
                ("Fig 10", self.fig10()),
                ("Fig 11 (Inner London)", self.fig11()),
                ("Fig 12 (London clusters)", self.fig12()),
            ):
                for metric in ("dl_volume_mb", "connected_users"):
                    series = figure[metric]
                    blocks.append(
                        render_series_block(
                            f"{fig_name} — {metric}",
                            series.weeks,
                            dict(sorted(series.values.items())),
                        )
                    )
        summary = self.summary()
        lines = ["Headline numbers", "----------------"]
        lines.extend(
            f"{key:<40} {value:>10.3f}" for key, value in summary.items()
        )
        blocks.append("\n".join(lines))
        return "\n\n".join(blocks)
