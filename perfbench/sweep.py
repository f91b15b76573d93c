"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads grow-wide,cli-mix --seeds 1-10 \
        --seconds 26 [--sets 2] [--out perfbench/baseline.json]

A set runs every workload on every seed with `--trace 0`.  For every set,
workload and end-to-end metric it prints the median of the runs, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
distance between the quartiles as a share of the median; for the second and
later sets also the median's change against the first set.  Runs are made one
after another, never side by side, so that they do not slow each other down.
`--out` writes the command, the environment of the first run and every set's
runs and summary; perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def run_set(workloads: list[str], seed_list: list[int], seconds: int, environment: dict) -> tuple[dict, bool]:
    result, ok = {}, True
    for workload in workloads:
        runs = []
        for seed in seed_list:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            out = json.loads(lines[-1])
            if not environment:
                environment.update(json.loads(lines[-2].removeprefix("env: ")))
                environment.pop("seed")
            metrics = {name: m["value"] for name, m in out["metrics"].items()}
            runs.append({"seed": seed, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics})
        summary = {name: summarize([r["metrics"][name] for r in runs]) for name in (runs[0]["metrics"] if runs else [])}
        result[workload] = {"summary": summary, "runs": runs}
    return result, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="a seed or a range like 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--sets", type=int, default=1, help="how many sets to run, one after another")
    parser.add_argument("--out", help="write the runs and their summaries to this JSON file")
    args = parser.parse_args()
    environment: dict = {}
    report = {"command": " ".join(["python3", "perfbench/sweep.py"] + sys.argv[1:]),
              "environment": environment, "seconds": args.seconds, "sets": []}
    ok = True
    for index in range(args.sets):
        result, set_ok = run_set(args.workloads.split(","), seeds(args.seeds), args.seconds, environment)
        ok = ok and set_ok
        report["sets"].append(result)
        for workload, data in result.items():
            for name, m in data["summary"].items():
                line = (f"set {index + 1} {workload:14} {name:12} median {m['median']:12.6f}  q1 {m['q1']:12.6f}  "
                        f"q3 {m['q3']:12.6f}  spread {m['spread']:.4f}")
                if index:
                    first = report["sets"][0][workload]["summary"][name]["median"]
                    line += f"  vs set 1 {m['median'] / first - 1:+.4f}"
                print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
