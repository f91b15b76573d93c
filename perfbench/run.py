"""The glaw benchmark: four CLI workloads timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One client, one closed loop: every pass runs its jobs one after another in a
fresh process (perfbench/child.py) through `glaw.cli.main`.  With --trace 0
the run sets up SETUP_REPEATS times in processes of their own, then runs
untraced passes while another one fits in --seconds (at least one), and
reports each end-to-end metric as the median of its per-pass values.  Times
are seconds at reference speed (see child.py); the measured times are printed
beside them.  With --trace 1 it runs one untraced and one traced pass, both
without the speed sampler, and reports the per-layer metrics, trace coverage
and tracing overhead.  The last line of stdout is the result as JSON; the exit
code is 1 when any job's output differs from its oracle and 2 when the
benchmark could not run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
PREDICTIONS = Path(__file__).resolve().parent / "layers.json"
PER_LAYER = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
SETUP_REPEATS = 5
UNITS = {"wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(CHILD), str(ROOT), workload, str(seed), mode, repr(deadline)]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.time() + 5))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} process ran past the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def job_p90(latencies: list[float]) -> float:
    """The 90th percentile where at least ten jobs lie beyond it, else the
    lower median: a pass of one job has no tail to report."""
    if len(latencies) < 100:
        return statistics.median_low(latencies)
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, int, list]:
    setups = [child(workload, seed, "setup", deadline) for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(child(workload, seed, "pass", deadline))
        spent = time.monotonic() - t
        if time.monotonic() - start + spent > seconds or time.time() + spent > deadline:
            break
    ran = [p for p in passes if p["latencies_ms"]]
    if not ran:
        raise BenchError(f"{workload}: no job ran before the run's time limit")
    per_pass = {
        "wall_s": [p["wall_s"] for p in ran],
        "job_p50_ms": [statistics.median_low(p["latencies_ms"]) for p in ran],
        "job_p90_ms": [job_p90(p["latencies_ms"]) for p in ran],
        "setup_s": [p["setup_s"] for p in setups + passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in ran],
    }
    metrics = {name: (statistics.median(values), UNITS[name]) for name, values in per_pass.items()}
    measured = {
        "wall_s": statistics.median(p["measured_wall_s"] for p in ran),
        "job_p50_ms": statistics.median(statistics.median_low(p["measured_latencies_ms"]) for p in ran),
        "job_p90_ms": statistics.median(job_p90(p["measured_latencies_ms"]) for p in ran),
        "setup_s": statistics.median(p["measured_setup_s"] for p in setups + passes),
    }
    speed = statistics.median(p["speed_factor"] for p in setups + passes)
    print(f"{workload:14} {len(ran)} passes, {len(setups) + len(passes)} set-ups, median speed factor {speed:.3f}; "
          "measured " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    return metrics, sum(p["attempted"] for p in passes), [f for p in passes for f in p["failures"]]


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[dict, int, list]:
    plain = child(workload, seed, "plain", deadline)
    traced = child(workload, seed, "traced", deadline)
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.self_sum_s"] = traced["self_sum_s"]
    values["trace.coverage"] = traced["self_sum_s"] / traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"spans of the traced pass: {traced['trace_file']}")
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    return metrics, plain["attempted"] + traced["attempted"], plain["failures"] + traced["failures"]


def environment(seed: int) -> dict:
    src = ROOT / "src" / "glaw"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "glaw_max_degree": {name: w.glaw_max_degree for name, w in WORKLOADS.items()},
        "glaw_commit": _git_head(),
        "glaw_src_sha256": digest.hexdigest(),
    }


def _git_head() -> str:
    """HEAD of the repository the benchmark sits in, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failures = {}, 0, []
    try:
        if args.trace and set(json.loads(PREDICTIONS.read_text())) != set(PER_LAYER):
            raise BenchError("perfbench/layers.json and BENCHMARK.json's per_layer name different metrics")
        for name in names:
            deadline = time.time() + RUN_LIMIT_S
            if args.trace:
                got, tried, failed = measure_traced(name, args.seed, deadline)
            else:
                got, tried, failed = measure(name, args.seed, args.seconds, deadline)
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, (value, unit) in got.items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
                print(f"{name:14} {metric:32} {value:14.6f} {unit}")
            print(f"{name:14} {'fail_frac':32} {len(failed) / tried:14.6f} ({len(failed)} of {tried} jobs)")
            attempted += tried
            failures += failed
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"FAILED {failure['job']}: {failure['why']}", file=sys.stderr)
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
