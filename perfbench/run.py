"""Benchmark of coxtools: cold CLI queries, warm oracle checks and
isomorphism / Aut searches.

    python3 perfbench/run.py --workload cold-query --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; it imports coxtools from ``src/`` next to this
directory and from nowhere else.  One client with one thread runs the
seeded op list of the workload in a closed loop, pass after pass, until
``--seconds`` have passed (a pass always finishes).  Every op checks its
own answer.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a JSON report with provenance, set-up details,
failures, exact counts and the answer digest; it is also written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy can be imported: the
# benchmark is one client with one thread.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median


class SetupError(Exception):
    pass


def declared(section: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares in a section."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"no {path}")
    return [(m["name"], m["unit"]) for m in json.loads(path.read_text())[section]]


def load_coxtools():
    """Import coxtools from this checkout's src/, refusing any other copy."""
    if not (SRC / "coxtools" / "__init__.py").is_file():
        raise SetupError(f"no coxtools package under {SRC}")
    sys.path.insert(0, str(SRC))
    import coxtools

    if SRC not in Path(coxtools.__file__).resolve().parents:
        raise SetupError(f"imported coxtools from {coxtools.__file__}, not from {SRC}")
    return coxtools


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing coxtools: the start-up
    every `coxtools` command pays before its first call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import coxtools"], env=env, cwd=ROOT,
                   check=True, timeout=120, capture_output=True)
    return perf_counter() - start


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, cx) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit,
        "source_sha256": source_digest(SRC / "coxtools"),
        "benchmark_sha256": source_digest(HERE),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "coxtools": cx.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "deadline_s": harness.DEADLINE_S,
    }


def check_repeat(key: str, record: dict) -> list[str]:
    """Compare this run's exact counts and digests with an earlier run
    of the same workload, seed, coxtools source and benchmark code in
    this checkout."""
    path = WORK / "repeat" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return [f"{field} drifted from an earlier run: {before[field]} -> {record[field]}"
                for field in record if before.get(field) != record[field]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return []


def kind_summary(rounds) -> dict:
    """Per op kind: ops, failures, the median op and the slowest op that
    succeeded (the margin the deadline leaves)."""
    out: dict = {}
    for rnd in rounds:
        for r in rnd.results:
            row = out.setdefault(r.kind, {"ops": 0, "failed": 0, "ms": [], "ok_ms": []})
            row["ops"] += 1
            row["failed"] += not r.ok
            row["ms"].append(r.seconds * 1e3)
            if r.ok:
                row["ok_ms"].append(r.seconds * 1e3)
    for row in out.values():
        ms, ok_ms = row.pop("ms"), row.pop("ok_ms")
        row["p50_ms"] = round(harness.percentile(ms, 50), 3)
        row["max_ok_ms"] = round(max(ok_ms, default=0.0), 3)
    return dict(sorted(out.items()))


def slowest_ok(ops, rounds) -> dict:
    """The slowest op that succeeded, over every pass."""
    seconds, op = max((r.seconds, i) for rnd in rounds
                      for i, r in enumerate(rnd.results) if r.ok)
    return {"kind": ops[op].kind, "params": ops[op].params, "ms": round(seconds * 1e3, 3)}


def run_workload(args) -> tuple[dict, dict]:
    layer_metrics = declared("per_layer")
    cx = load_coxtools()
    ops = workloads.generate(args.workload, args.seed)
    execute = workloads.executor(cx)
    tracer = harness.Tracer()
    setups, builds = [], []
    for _ in range(SETUPS):
        state = None  # let the previous set-up's groups go first
        start = perf_counter()
        imported = import_seconds()
        state = workloads.setup(args.workload, ops, cx, WORK)
        setups.append({"seconds": perf_counter() - start, "import_seconds": imported})
        builds.append(dict(getattr(state, "build_seconds", {})))
    on_deadline = getattr(state, "rebuild", None)
    begin_pass = getattr(state, "begin_pass", lambda: None)

    untraced, traced = [], []
    start = perf_counter()
    while True:
        tracer.enabled = bool(args.trace) and len(untraced) > len(traced)
        begin_pass()
        rnd = harness.run_round(ops, execute, state, tracer, on_deadline=on_deadline)
        (traced if rnd.traced else untraced).append(rnd)
        if perf_counter() - start >= args.seconds and (traced or not args.trace):
            break
    rounds = untraced + traced

    faults = []
    first = rounds[0]
    for i, rnd in enumerate(rounds[1:], start=2):
        if rnd.exact() != first.exact() or rnd.digest() != first.digest():
            faults.append(f"pass {i} differs from pass 1 in its exact counts or answers")
    record = {"ops": harness.sha256([op.key() for op in ops]),
              "exact": first.exact(), "answers": first.digest()}
    key = f"{args.workload}-{args.seed}-{source_digest(SRC / 'coxtools')}-{source_digest(HERE)}"
    faults += check_repeat(key, record)

    results = [r for rnd in rounds for r in rnd.results]
    wrong = [r for r in results if r.reason in harness.WRONG_REASONS]
    setup_s = statistics.median(s["seconds"] for s in setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = harness.per_layer(traced, untraced, layer_metrics)
    else:
        metrics = harness.end_to_end(untraced, setup_s, peak_rss_mb)
    failures: dict = {}
    for r in results:
        if not r.ok:
            row = failures.setdefault(f"{r.kind}.{r.reason}", {"count": 0, "first": r.message})
            row["count"] += 1
    report = {
        "provenance": provenance(args, cx),
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "ops_per_pass": len(ops),
                   "pass_seconds": [round(rnd.seconds, 4) for rnd in rounds]},
        # Per warm group, [construct, fill the lazy tables] seconds: the
        # median over the set-ups.
        "setup": {"runs": setups,
                  "group_build_seconds": {
                      name: [statistics.median(b[name][i] for b in builds) for i in (0, 1)]
                      for name in builds[0]}},
        "kinds": kind_summary(rounds),
        "slowest_ok": slowest_ok(ops, rounds),
        "failures": failures,
        "exact": record,
        "faults": faults,
    }
    final = {"correct": not wrong and not faults, "attempted": len(results),
             "failed": sum(not r.ok for r in results), "metrics": metrics}
    return report, final


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run of one workload in a fresh interpreter: its report line
    and its result line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    report, final = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(final)


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    ok = True
    for name in workloads.WORKLOADS:
        _, final = run_child(name, args.seed, args.seconds, args.trace)
        ok &= final["correct"]
        print(f"== {name}: correct={final['correct']} attempted={final['attempted']} "
              f"failed={final['failed']}")
        for metric, m in final["metrics"].items():
            print(f"  {metric:45s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        report, final = run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for fault in report["faults"]:
        print(f"perfbench: fault: {fault}", file=sys.stderr)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"report": report, "result": final}, indent=1, sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
