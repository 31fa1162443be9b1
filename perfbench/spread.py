"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload battery --seeds 10 --seconds 30

For every metric it prints the median and quartiles of the per-run values
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, and marks the spreads over
a third of the metric's bound in ``BENCHMARK.json``.  Runs are sequential.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit("run failed (%s): %s" % (" ".join(cmd), proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"python": platform.python_version(), "nproc": os.cpu_count(), "workloads": {}}
    for workload in args.workload:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        results = [run_once(workload, s, args.seconds) for s in seeds]
        summary = summarise(results)
        report["workloads"][workload] = {
            "seconds": args.seconds,
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": summary,
            # end-to-end metrics that did not hold within a tenth across the runs
            "flagged": sorted(n for n, m in summary.items() if m["spread"] > 0.1),
        }
        for name, s in summary.items():
            flag = ""
            if name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = "  over a third of bound %.2f" % bounds[name]
            print(
                "%-8s %-26s median %12.6g %-5s spread %6.3f%s"
                % (workload, name, s["median"], s["unit"], s["spread"], flag),
                file=sys.stderr,
            )
    print(json.dumps(report, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
