"""Fault injection, retry/backoff, and pool degradation.

The engine's recovery ladder has three rungs — retry the shard with
capped exponential backoff, fall back from a broken process pool to
in-process execution, and (when retries are exhausted) fail loudly
with the completed days checkpointed.  Each rung must leave the feeds
*bitwise* what a fault-free run produces, and each event must land in
the telemetry counters.  The deterministic fault hook
(``fault_spec`` / ``REPRO_FAULTS``) drives all of it without any real
crashes or real clocks.
"""

import datetime as dt

import pytest

import repro.executor as executor
import repro.simulation.engine as engine
from repro import telemetry
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.faults import (
    FaultPlan,
    InjectedFault,
    RecoverySettings,
    ShardExecutionError,
)

from tests.simulation.harness import assert_feeds_equivalent

_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=14)


def _config(**overrides):
    return SimulationConfig.tiny(seed=11).with_overrides(
        num_users=160, target_site_count=40, calendar=_CALENDAR, **overrides
    )


@pytest.fixture(scope="module")
def clean_feeds():
    """The fault-free K=2 run every recovery path must reproduce."""
    return engine.Simulator(_config().with_parallelism(2)).run()


@pytest.fixture
def fake_sleep(monkeypatch):
    """Replace the retry sleep with a recorder — no real waiting."""
    delays = []
    monkeypatch.setattr(executor, "_RETRY_SLEEP", delays.append)
    return delays


@pytest.fixture
def counters():
    telemetry.enable()
    yield lambda: telemetry.snapshot()["counters"]
    telemetry.disable()


class TestRecoverySettings:
    def test_capped_exponential(self):
        settings = RecoverySettings(
            max_retries=6, backoff_base_s=0.25, backoff_cap_s=4.0
        )
        assert [settings.delay(attempt) for attempt in range(6)] == [
            0.25, 0.5, 1.0, 2.0, 4.0, 4.0,
        ]

    def test_defaults_are_modest(self):
        settings = RecoverySettings()
        assert settings.max_retries == 2
        assert settings.delay(settings.max_retries) <= settings.backoff_cap_s


class TestFaultPlan:
    def test_parse_rules(self):
        plan = FaultPlan.parse("kill:shard=2,day=60;flaky:times=2")
        with pytest.raises(InjectedFault):
            plan.check(2, 60, attempt=0, in_pool=False)
        # flaky with no shard/day constraint hits everything, twice
        with pytest.raises(InjectedFault):
            plan.check(0, 0, attempt=1, in_pool=False)
        plan.check(0, 0, attempt=2, in_pool=False)  # third attempt passes
        # kill ignores the attempt ordinal entirely
        with pytest.raises(InjectedFault):
            plan.check(2, 60, attempt=99, in_pool=False)

    def test_non_matching_days_pass(self):
        plan = FaultPlan.parse("kill:shard=2,day=60")
        plan.check(2, 59, attempt=0, in_pool=False)
        plan.check(1, 60, attempt=0, in_pool=False)

    def test_parse_rejects_garbage(self):
        for bad in ("explode:day=1", "kill:day=x", "kill:nonsense=1", ":"):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_env_overrides_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill:day=1")
        plan = FaultPlan.active(_config())
        with pytest.raises(InjectedFault):
            plan.check(0, 1, attempt=0, in_pool=False)

    def test_inactive_without_spec(self):
        assert FaultPlan.active(_config()) is None


class TestRetry:
    # workers=1 retries in process, workers=2 resubmits to the pool:
    # the same ladder, the same counters, the same bytes.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_flaky_shard_retried_to_success(
        self, clean_feeds, fake_sleep, counters, workers
    ):
        config = _config(
            fault_spec="flaky:shard=1,day=3,times=2",
            recovery=RecoverySettings(
                max_retries=3, backoff_base_s=0.25, backoff_cap_s=4.0
            ),
        ).with_parallelism(2, workers=workers)
        feeds = engine.Simulator(config).run()
        assert fake_sleep == [0.25, 0.5]
        assert counters()["engine.shard_retries"] == 2
        assert counters()["engine.faults_injected"] == 2
        assert_feeds_equivalent(clean_feeds, feeds, bitwise=True)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exhausted_retries_fail_loudly(
        self, fake_sleep, counters, workers
    ):
        config = _config(
            fault_spec="kill:shard=0,day=3",
            recovery=RecoverySettings(max_retries=1, backoff_base_s=0.25),
        ).with_parallelism(2, workers=workers)
        with pytest.raises(ShardExecutionError, match="--resume"):
            engine.Simulator(config).run()
        assert fake_sleep == [0.25]
        assert counters()["engine.shard_retries"] == 1

    def test_failed_run_checkpoints_completed_days(
        self, fake_sleep, tmp_path
    ):
        from repro.simulation.checkpoint import CheckpointStore

        config = _config(
            fault_spec="kill:shard=1,day=3",
            recovery=RecoverySettings(max_retries=0),
        ).with_parallelism(2)
        with pytest.raises(ShardExecutionError):
            engine.Simulator(config).run(checkpoint_dir=tmp_path / "run")
        store = CheckpointStore.open(tmp_path / "run")
        assert store.completed_days(0) == list(range(14))  # unaffected
        assert store.completed_days(1) == [0, 1, 2]  # up to the fault


class TestPoolDegradation:
    def test_dead_pool_degrades_to_in_process(
        self, clean_feeds, fake_sleep, counters
    ):
        # The 'exit' fault hard-kills the worker process (os._exit), so
        # the pool breaks for real; in-process it is inert, so the
        # degraded rerun completes.  One bounce, identical feeds.
        config = _config(
            fault_spec="exit:shard=1,day=3",
            recovery=RecoverySettings(max_retries=0),
        ).with_parallelism(2, workers=2)
        feeds = engine.Simulator(config).run()
        assert counters()["engine.pool_degradations"] == 1
        assert_feeds_equivalent(clean_feeds, feeds, bitwise=True)

    def test_degraded_run_reuses_checkpoints(
        self, clean_feeds, fake_sleep, counters, tmp_path
    ):
        config = _config(
            fault_spec="exit:shard=1,day=3",
            recovery=RecoverySettings(max_retries=0),
        ).with_parallelism(2, workers=2)
        feeds = engine.Simulator(config).run(checkpoint_dir=tmp_path / "r")
        # Days the pool workers finished before dying were restored
        # from the checkpoint store, not recomputed.
        assert counters().get("engine.checkpoint_days_restored", 0) > 0
        assert_feeds_equivalent(clean_feeds, feeds, bitwise=True)


class TestCorruptCheckpoint:
    def test_corrupt_checkpoint_stops_the_run(self, fake_sleep, tmp_path):
        # A poisoned checkpoint must surface as CheckpointError — never
        # be retried into a silent pool degradation (CheckpointError is
        # a ValueError, which the degrade path would otherwise catch).
        from repro.simulation.checkpoint import CheckpointError, CheckpointStore

        config = _config(recovery=RecoverySettings(max_retries=0))
        with pytest.raises(ShardExecutionError):
            engine.Simulator(
                config.with_overrides(fault_spec="kill:day=5")
            ).run(checkpoint_dir=tmp_path / "run")
        store = CheckpointStore.open(tmp_path / "run")
        from repro.simulation.faults import corrupt_file

        corrupt_file(store.day_path(0, 2))
        with pytest.raises(CheckpointError, match=r"day002\.npz"):
            engine.Simulator.resume(tmp_path / "run")
        assert fake_sleep == []  # corruption is not a transient fault
