"""One fresh process of the glaw benchmark: set up, then run one pass.

    python3 perfbench/child.py ROOT WORKLOAD SEED MODE DEADLINE

MODE is `setup` (set up and stop), `pass` (untraced pass with the speed
sampler), `plain` (untraced pass without it) or `traced`.  DEADLINE is a
`time.time()` value after which no job may run.  Set-up is the import of glaw,
generating the workload's specs with `glaw gen` and writing them to files.
Each job runs in this process through `glaw.cli.main`, one after another, with
its output captured and checked against the job's oracle.  The result is one
JSON line on stdout.

Speed sampling.  The machines this benchmark runs on share their cores, and
the same pure-Python loop runs up to twice as slow while a neighbour is busy,
in phases from a fraction of a second to minutes long.  In `setup` and `pass`
mode a profiling timer interrupts the process every SAMPLE_PERIOD_S of CPU
time and times a fixed Fraction loop (`calibrate`, about REFERENCE_SLICE_S on
an idle core).  Each reported time is the measured interval minus the slices
it holds, divided by the speed factor of the slices around it: seconds at
reference speed.  The measured times are reported beside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import LAYERS, Tracer, layer_metrics, self_times
from workloads import DERIVED_SPECS, SPECS, WORKLOADS, needs

JOB_LIMIT_S = 60.0
SAMPLE_PERIOD_S = 0.02  # CPU seconds between two calibration slices
REFERENCE_SLICE_S = 0.0005  # one slice on an idle core of a 2-vCPU Xeon, Python 3.11
WINDOW_S = 0.5  # slices this close to an interval set its speed factor
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


class JobTimeout(BaseException):
    """Raised by the alarm inside a job that ran past its limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def calibrate() -> Fraction:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, 7) * Fraction(3, i + 1)
    return total


class SpeedSampler:
    """Times `calibrate` on every SIGPROF while the process runs."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, seconds)

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        calibrate()
        self.slices.append((start, time.perf_counter() - start))

    def reference_seconds(self, start: float, end: float) -> float:
        """The interval's time at reference speed."""
        inside = sum(d for t, d in self.slices if start <= t < end)
        near = [d for t, d in self.slices if start - WINDOW_S <= t < end + WINDOW_S] or [d for _, d in self.slices]
        if not near:
            raise SystemExit("the speed sampler took no slice")
        return (end - start - inside) * REFERENCE_SLICE_S / statistics.fmean(near)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def run_cli(cli, argv: list[str], limit: float) -> tuple[int | str, str, str, float, float]:
    """Run `glaw argv` in-process; the exit code is "timeout" past the limit."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except JobTimeout:
        rc = "timeout"
    except SystemExit as exc:  # argparse refusing the command line
        rc = exc.code
    except Exception as exc:  # an uncaught error is a traceback (exit 1) for a user
        rc = 1
        err.write(repr(exc))
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, out.getvalue(), err.getvalue(), start, end


def set_up(cli, workload, work: Path) -> dict[str, str]:
    """Generate the workload's specs with `glaw gen`; returns name -> path."""
    paths: dict[str, str] = {}
    pending = workload.specs()
    while pending:
        name = next(n for n in pending if all(base in paths for base in needs(n)))
        pending.remove(name)
        path = work / f"{name}.json"
        if name in DERIVED_SPECS:
            spec = json.loads(Path(paths[DERIVED_SPECS[name]]).read_text())
            spec["B0"] = spec["B0"][:-1]
            path.write_text(canonical(spec))
        else:
            argv = ["gen"] + [_fill(a, paths) for a in SPECS[name]]
            rc, out, err, _, _ = run_cli(cli, argv, JOB_LIMIT_S)
            if rc != 0:
                raise SystemExit(f"set-up: glaw {' '.join(argv)} exited {rc}: {err}")
            path.write_text(out)
        paths[name] = str(path)
    return paths


def _fill(arg: str, paths: dict[str, str]) -> str:
    return paths[arg[1:-1]] if arg.startswith("{") and arg.endswith("}") else arg


def _derived(report: dict) -> dict:
    """The report plus the facts the oracles state in other shapes."""
    view = dict(report)
    if "degrees" in report:
        degrees = report["degrees"]
        top = max(degrees) + 1
        view["degree_dims"] = [degrees.count(d) for d in range(1, top + 1)]
        view["negative_degree_dims"] = [degrees.count(-d) for d in range(1, top + 1)]
    if isinstance(report.get("witness"), dict):
        view["witness_indices"] = [report["witness"]["dual_indices"], report["witness"]["v_indices"]]
    if "certificate" in report:
        view["residuals_zero"] = report["certificate"]["residuals_zero"]
    return view


def check(job, rc, out: str, err: str) -> str | None:
    """Why the job's result differs from its oracle, or None if it agrees."""
    if rc != job.exit:
        return f"exit {rc}, expected {job.exit}: {err.strip()[:200]}"
    try:
        if job.exit == 0:
            report = json.loads(out)
            report.pop("timings", None)
            digest = hashlib.sha256(canonical(report).encode()).hexdigest()
            if digest != DIGESTS.get(job.name):
                return f"report digest {digest} differs from the recorded one"
            view = _derived(report)
        else:
            if out:
                return "a refused job printed a report"
            view = json.loads(err.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    for key, want in job.facts.items():
        if view.get(key) != want:
            return f"{key} is {view.get(key)!r}, expected {want!r}"
    return None


def run_pass(cli, workload, seed: int, paths: dict[str, str], deadline: float, tracer: Tracer | None,
             sampler: SpeedSampler | None) -> dict:
    latencies, measured, failures = [], [], []
    first = last = None
    jobs = workload.jobs(seed)
    os.environ["GLAW_MAX_DEGREE"] = workload.glaw_max_degree
    for index, job in enumerate(jobs):
        limit = min(JOB_LIMIT_S, deadline - time.time())
        if limit <= 0:
            failures.append({"job": job.name, "why": "not run: the run's time limit passed"})
            continue
        if tracer:
            tracer.job = index
        rc, out, err, start, end = run_cli(cli, [_fill(a, paths) for a in job.argv], limit)
        first = start if first is None else first
        last = end
        measured.append((end - start) * 1000.0)
        latencies.append(sampler.reference_seconds(start, end) * 1000.0 if sampler else measured[-1])
        why = check(job, rc, out, err)
        if why:
            failures.append({"job": job.name, "why": why})
    wall = None
    if latencies:
        wall = sampler.reference_seconds(first, last) if sampler else last - first
    return {
        "wall_s": wall,
        "measured_wall_s": (last - first) if latencies else None,
        "latencies_ms": latencies,
        "measured_latencies_ms": measured,
        "attempted": len(jobs),
        "failures": failures,
    }


def main(root: str, workload_name: str, seed: str, mode: str, deadline: str) -> int:
    t0 = time.perf_counter()
    sampler = SpeedSampler() if mode in ("setup", "pass") else None
    if sampler:
        sampler.start()
    sys.path.insert(0, str(Path(root) / "src"))
    import glaw.cli as cli

    src = (Path(root) / "src" / "glaw").resolve()
    if Path(cli.__file__).resolve().parent != src:
        raise SystemExit(f"glaw was imported from {cli.__file__}, not from {src}")
    # The traced set-up is seen at the generator boundary only, so that
    # generators.gen covers all of spec generation and no job layer counts it.
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install(["generators.gen"])
    workload = WORKLOADS[workload_name]
    signal.signal(signal.SIGALRM, _on_alarm)
    bench_dir = Path(root) / ".perfbench"
    bench_dir.mkdir(exist_ok=True)
    work = bench_dir / f"{workload_name}-{os.getpid()}"
    work.mkdir()
    try:
        paths = set_up(cli, workload, work)
        t1 = time.perf_counter()
        if tracer:
            tracer.install([name for name in LAYERS if name != "generators.gen"])
        result = {}
        if mode != "setup":
            result.update(run_pass(cli, workload, int(seed), paths, float(deadline), tracer, sampler))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if sampler:
            sampler.stop()
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = sampler.reference_seconds(t0, t1) if sampler else t1 - t0
    result["measured_setup_s"] = t1 - t0
    if sampler:
        result["speed_factor"] = statistics.fmean(d for _, d in sampler.slices) / REFERENCE_SLICE_S
    if tracer:
        result["layers"] = layer_metrics(tracer.spans)
        own = zip(tracer.spans, self_times(tracer.spans))
        result["self_sum_s"] = sum(t for span, t in own if span["job"] is not None)
        trace_file = bench_dir / f"trace-{workload_name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"workload": workload_name, "seed": int(seed), "spans": tracer.spans}))
        result["trace_file"] = str(trace_file.relative_to(root))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
