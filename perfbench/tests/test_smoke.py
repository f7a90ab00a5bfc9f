"""Smoke test: every workload at the tiny size, untraced and traced.

Runs ``perfbench/run.py --workload all`` twice (about two minutes on
two cores) and checks that every metric BENCHMARK.json names is
emitted with its unit and that no operation failed.  Run it from the
root of the repository::

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_all(trace: int) -> tuple[dict, str]:
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "all", "--seed", "3", "--seconds", "1",
         "--size", "tiny", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        check=True,
    )
    lines = child.stdout.strip().splitlines()
    return json.loads(lines[-1]), child.stdout


@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_every_metric_is_emitted_and_nothing_fails(trace, section):
    result, text = run_all(trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            entry = result["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float)
    assert text.startswith("fingerprint ")
    failed_fracs = re.findall(r"^\s+failed_frac\s+(\S+)", text, re.M)
    assert [float(value) for value in failed_fracs] == [0.0] * len(WORKLOADS)
