"""The static world is built once per process per configuration.

``build_world`` keeps the last world it built, keyed by the pickled
configuration: the engine, every ``load_feeds`` and every pool
initializer of the same configuration share one world, with read-only
arrays.  These tests count the underlying builds, check what hits and
what misses the memo, and check that a spawned pool (which builds its
own world per worker) gives the same results as a forked one (which
inherits the coordinator's).
"""

import datetime as dt
import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import api
from repro.simulation import engine
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.faults import RecoverySettings

_CAL = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=12)


def _config(shards: int = 1) -> SimulationConfig:
    config = SimulationConfig.tiny(seed=31).with_overrides(
        num_users=96,
        target_site_count=30,
        calendar=_CAL,
        recovery=RecoverySettings(max_retries=0),
    )
    return config.with_parallelism(shards, workers=1)


@pytest.fixture
def builds(monkeypatch):
    """Count the underlying world builds (each builds one geography)."""
    calls = []
    build_geography = engine.build_uk_geography

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return build_geography(*args, **kwargs)

    monkeypatch.setattr(engine, "build_uk_geography", counting)
    return calls


class TestMemo:
    def test_live_advance_and_open_do_not_rebuild(self, tmp_path, builds):
        run = api.simulate(_config(shards=2), tmp_path / "live", days=5)
        builds.clear()
        run.advance(1)
        reopened = api.Run.open(tmp_path / "live", lazy=True)
        assert (run.days, reopened.days) == (6, 6)
        assert builds == []

    def test_pickled_config_hits(self, builds):
        config = _config()
        world = engine.build_world(config)
        builds.clear()
        copy = pickle.loads(pickle.dumps(config))
        reused = engine.build_world(copy)
        assert builds == []
        assert reused.config is copy
        assert world.config is config
        assert reused.agents is world.agents

    @pytest.mark.parametrize(
        "change",
        [
            lambda c: c.with_overrides(fault_spec="flaky:shard=0,day=1"),
            lambda c: c.with_parallelism(2, workers=1),
        ],
        ids=["fault_spec", "parallelism"],
    )
    def test_other_config_misses(self, builds, change):
        config = _config()
        world = engine.build_world(config)
        builds.clear()
        other = change(config)
        rebuilt = engine.build_world(other)
        assert len(builds) == 1
        assert rebuilt.config is other
        assert rebuilt.agents is not world.agents


class TestReadOnlyWorld:
    def test_loaded_agents_reject_writes(self, tmp_path):
        api.simulate(_config(), tmp_path / "run")
        feeds = api.Run.open(tmp_path / "run").feeds
        with pytest.raises(ValueError, match="read-only"):
            feeds.agents.compliance[0] = 0.5


_SCRIPT = textwrap.dedent(
    """
    import hashlib, json, multiprocessing, sys

    from repro import api
    from repro.simulation.config import SimulationConfig

    if __name__ == "__main__":
        multiprocessing.set_start_method(sys.argv[1], force=True)
        config = SimulationConfig.tiny(seed=5).with_overrides(
            num_users=400, target_site_count=60,
        ).with_parallelism(2, workers=2)
        run = api.simulate(config, sys.argv[2], days=56)
        run.advance(2)
        summary = run.study(workers=2).summary()
        print(hashlib.sha256(
            json.dumps(summary, sort_keys=True).encode()
        ).hexdigest())
    """
)


def test_spawn_matches_fork(tmp_path):
    script = tmp_path / "pipeline.py"
    script.write_text(_SCRIPT)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    digests = {}
    for method in ("fork", "spawn"):
        result = subprocess.run(
            [sys.executable, str(script), method, str(tmp_path / method)],
            capture_output=True, text=True, timeout=600, env=env,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        digests[method] = result.stdout.strip()
    assert len(digests["fork"]) == len(hashlib.sha256().hexdigest())
    assert digests["spawn"] == digests["fork"]
