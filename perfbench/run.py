"""Run one pipeline workload (or all of them) and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload batch_study --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --trace 1

A run sets the workload up several times (``setup_s`` is the median),
then repeats its operation for ``--seconds`` seconds, checking every
output.  With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` the run is
split in two halves, untraced then traced, and the JSON holds the
per-layer metrics of the traced half plus ``trace.overhead_frac``.
Every metric is also printed by name, with its unit, above that line,
after the machine fingerprint.  End-to-end times are scaled to a
reference machine speed (``speed.py``); the raw medians are printed
as ``raw.*`` lines.

``--workload all`` runs each workload in its own process, so peak RSS
is the workload's own.  See ``perfbench/README.md`` for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import adjust, calibrate

ROOT = Path(__file__).resolve().parents[1]
#: How many times a run performs its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: ``peak_rss_mb`` is read after this many timed operations (plus the
#: warm-up), so it does not depend on how many fit in ``--seconds``:
#: the process's memory can grow with every operation.
RSS_AFTER_OPS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "analyze_s.p50": "s",
    "user_days_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}


def fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, tracer=None):
    """Repeat the operation for ``seconds`` (at least once).

    Each operation is bracketed by machine-speed calibrations.  Returns
    the passing samples and the number of operations that raised or
    failed their output check.
    """
    samples, failed = [], 0
    calibration = calibrate()
    deadline = time.perf_counter() + seconds
    while not (samples or failed) or time.perf_counter() < deadline:
        workload.prepare()
        if tracer is not None:
            tracer.begin_op()
        sample = None
        try:
            sample = workload.op()
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.end_op(**(sample.facts if sample else {}))
        before, calibration = calibration, calibrate()
        if sample is None or sample.problems:
            failed += 1
            if sample is not None:
                print(f"check failed: {sample.problems}", file=sys.stderr)
            continue
        sample.speed = (before, calibration)
        sample.rss_mb = peak_rss_mb()
        samples.append(sample)
        print(
            f"op {len(samples)}: {sample.op_s:.3f} s "
            f"(analyze {sample.analyze_s:.3f} s, "
            f"calibration {before * 1e3:.2f}/{calibration * 1e3:.2f} ms)",
            file=sys.stderr,
        )
    return samples, failed


def end_to_end(samples, failed: int, setup) -> tuple[dict, dict]:
    """The end-to-end metrics at reference speed, and the raw medians."""

    def adjusted(field: str) -> list[float]:
        return [
            adjust(getattr(sample, field), *sample.speed)
            for sample in samples
        ]

    op_times = adjusted("op_s")
    rss_mb = (
        samples[min(RSS_AFTER_OPS, len(samples)) - 1].rss_mb
        if samples
        else peak_rss_mb()
    )
    metrics = {
        "setup_s": median(adjust(seconds, *speed) for seconds, speed in setup),
        "op_s.p50": median(op_times),
        "analyze_s.p50": median(adjusted("analyze_s")),
        "user_days_per_s": (
            sum(sample.user_days for sample in samples) / sum(op_times)
            if samples
            else 0.0
        ),
        "peak_rss_mb": rss_mb,
        "ok_frac": len(samples) / (len(samples) + failed),
    }
    raw = {
        "raw.setup_s": median(seconds for seconds, _ in setup),
        "raw.op_s.p50": median(sample.op_s for sample in samples),
        "raw.analyze_s.p50": median(sample.analyze_s for sample in samples),
        "raw.calibration_s": median(
            sum(sample.speed) / 2 for sample in samples
        ),
        "raw.peak_rss_mb": peak_rss_mb(),
    }
    return metrics, raw


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    from layers import Tracer, layer_metrics
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](workdir, seed, size)
        setup, references = [], []
        calibration = calibrate()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            before, calibration = calibration, calibrate()
            setup.append((elapsed, (before, calibration)))
            references.append(workload.reference)
        setup_ok = len(set(references)) == 1
        if not setup_ok:
            print("set-up is not deterministic: references differ",
                  file=sys.stderr)

        # One checked but untimed operation first: it pays the imports
        # and first-use costs a long-running process pays once.
        _, warmup_failed = measure(workload, 0)
        plain_seconds = seconds / 2 if trace else seconds
        samples, failed = measure(workload, plain_seconds)
        untraced, raw = end_to_end(samples, failed, setup)
        result = {
            "workload": name,
            "seed": seed,
            "size": size,
            "samples": len(samples),
            "attempted": 1 + len(samples) + failed,
            "failed": failed + warmup_failed,
            "setup_ok": setup_ok,
            "end_to_end": untraced,
            "raw": raw,
        }
        if trace:
            with Tracer() as tracer:
                traced, traced_failed = measure(workload, seconds / 2, tracer)
            layers = layer_metrics(tracer.ops)
            traced_p50 = end_to_end(traced, traced_failed, setup)[0][
                "op_s.p50"
            ]
            layers["trace.overhead_frac"] = (
                traced_p50 / untraced["op_s.p50"] - 1.0
                if untraced["op_s.p50"] > 0
                else 0.0
            )
            result["per_layer"] = layers
            result["traced_samples"] = len(traced)
            result["attempted"] += len(traced) + traced_failed
            result["failed"] += traced_failed
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def emit(results: list[dict], trace: bool, prefix: bool) -> None:
    """Print every metric by name and unit, then the JSON line."""
    from layers import UNITS as LAYER_UNITS

    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    attempted = failed = 0
    correct = True
    metrics = {}
    for result in results:
        name = result["workload"]
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0 and result["setup_ok"]
        print(
            f"== {name} (seed {result['seed']}, size {result['size']}, "
            f"{result['samples']} untraced ops, "
            f"{result.get('traced_samples', 0)} traced ops)"
        )
        failed_frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':<36} {failed_frac:>14.6g} 1")
        for metric, value in result["raw"].items():
            unit = "MB" if metric.endswith("_mb") else "s"
            print(f"  {metric:<36} {value:>14.6g} {unit}")
        sections = [("end_to_end", END_TO_END)]
        if trace:
            sections.append(("per_layer", LAYER_UNITS))
        for section, units in sections:
            for metric, value in result[section].items():
                print(f"  {metric:<36} {value:>14.6g} {units[metric]}")
        section, units = sections[-1]
        for metric, value in result[section].items():
            key = f"{name}/{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": units[metric]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS, SIZES

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="default")
    # Internal: a child of --workload all prints its raw result.
    parser.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> list[dict]:
    """Each workload in a child process; returns their results."""
    from workloads import WORKLOADS

    results = []
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size, "--raw"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if child.returncode != 0:
            raise SystemExit(f"workload {name} exited {child.returncode}")
        results.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return results


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"cannot find the program: no src/repro under {ROOT}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    if args.workload == "all":
        emit(run_all(args), bool(args.trace), prefix=True)
        return 0
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size
    )
    if args.raw:
        print(json.dumps(result))
    else:
        emit([result], bool(args.trace), prefix=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
