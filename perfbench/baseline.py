"""Record a baseline that later changes diff against.

    python3 perfbench/baseline.py --out perfbench/baseline/BENCH_1.json

Per workload: ten untraced runs (seeds 11-20) with their summary as
spread.py makes it, the slowest op that succeeded in any of them, and
one traced run (seed 11).  Every run lasts BENCHMARK.json's
run_seconds.  The sanity block holds the B5 and H4 construction times
that warm-oracle's set-up measures from outside, to set beside the
ROADMAP's baseline figures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run_child  # noqa: E402
from spread import judge, run_seeds, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = list(range(11, 21))
TRACED_SEED = 11


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out: dict = {
        "about": (f"untraced: runs with seeds {SEEDS[0]}-{SEEDS[-1]}; summary holds the "
                  "median, the quartiles (statistics.quantiles, n=4), spread = "
                  "(Q3 - Q1) / median and its verdict against the bound. traced: one "
                  f"--trace 1 run with seed {TRACED_SEED}. Made with "
                  "`python3 perfbench/baseline.py --out <this file>`. provenance.git_commit "
                  "is the commit checked out at the time, which may lack uncommitted "
                  "benchmark changes; source_sha256 and benchmark_sha256 name the code "
                  "measured."),
        "run_seconds": seconds, "untraced": {}, "traced": {},
    }
    for workload in WORKLOADS:
        finals = run_seeds(workload, SEEDS, seconds)
        summary = {}
        for metric in finals[0]["metrics"]:
            row = summarize([f["metrics"][metric]["value"] for f in finals])
            row["verdict"] = judge(row["spread"], bounds[metric])
            summary[metric] = row
        out["untraced"][workload] = {
            "runs": [{"seed": f["seed"], "correct": f["correct"], "attempted": f["attempted"],
                      "failed": f["failed"],
                      "metrics": {k: v["value"] for k, v in f["metrics"].items()}}
                     for f in finals],
            "summary": summary,
            "slowest_ok": max((f["slowest_ok"] for f in finals), key=lambda s: s["ms"]),
        }
        report, final = run_child(workload, TRACED_SEED, seconds, 1)
        out["traced"][workload] = {
            "seed": TRACED_SEED, "correct": final["correct"], "attempted": final["attempted"],
            "failed": final["failed"],
            "metrics": {k: v["value"] for k, v in final["metrics"].items()},
            **{k: report[k] for k in ("passes", "exact", "failures", "kinds", "setup")},
        }
        provenance = {k: v for k, v in report["provenance"].items()
                      if k not in ("workload", "seed", "trace", "seconds")}
        out.setdefault("provenance", provenance)
    build = out["traced"]["warm-oracle"]["setup"]["group_build_seconds"]
    out["sanity"] = {
        "note": ("warm-oracle set-up times parse + EnumeratedGroup (roots and BFS) per "
                 "group from outside, the median over the traced run's set-ups; "
                 "ROADMAP 'Baseline' gives L1 + L2 as 3 + 48 ms for B5 and "
                 "4 + 149 ms for H4 on the same kind of machine."),
        "B5_construct_ms": round(build["B5"][0] * 1e3, 1),
        "H4_construct_ms": round(build["H4"][0] * 1e3, 1),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out["sanity"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
