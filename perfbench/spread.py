"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload iso-aut --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload all --seeds 1 2 3 4 5 6 7 8 9 10 --out spread.json

Each seed is one untraced run of run.py in its own process, one after
another.  For every end-to-end metric it prints the median, and the
spread (Q3 - Q1) / median with the quartiles as
``statistics.quantiles(values, n=4)`` gives them, against the metric's
bound in BENCHMARK.json.  A spread below a third of the bound is
``steady``, one below the bound is ``within``, and one at or above it
is ``OVER``; setup_s is judged like every other metric.  The exit code
is 1 when a metric is OVER or a run is not correct.  ``--out`` writes
every run's result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def run_seeds(workload: str, seeds: list[int], seconds: float) -> list[dict]:
    finals = []
    for seed in seeds:
        report, final = run_child(workload, seed, seconds, 0)
        final["seed"] = seed
        final["slowest_ok"] = report["slowest_ok"]
        finals.append(final)
        print(f"  {workload} seed {seed}: correct={final['correct']} "
              f"attempted={final['attempted']} failed={final['failed']}", flush=True)
    return finals


def judge(spread: float, bound: float) -> str:
    if spread < bound / 3:
        return "steady"
    return "within" if spread < bound else "OVER"


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("a spread needs at least two seeds")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out, ok = {}, True
    for name in names:
        finals = run_seeds(name, args.seeds, args.seconds)
        ok &= all(f["correct"] for f in finals)
        summary = {}
        for metric in finals[0]["metrics"]:
            row = summarize([f["metrics"][metric]["value"] for f in finals])
            row["bound"] = bounds[metric]
            row["verdict"] = judge(row["spread"], row["bound"])
            ok &= row["verdict"] != "OVER"
            summary[metric] = row
            print(f"{name:12s} {metric:16s} median {row['median']:<12.6g} "
                  f"spread {row['spread']:7.4f} bound {row['bound']} {row['verdict']}")
        out[name] = {"runs": finals, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
