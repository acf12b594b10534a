"""Tests of the benchmark itself (not of coxtools).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import coxtools as cx  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import Op, Tracer  # noqa: E402

EXECUTE = workloads.executor(cx)


@pytest.fixture
def fresh(tmp_path):
    return workloads.setup("cold-query", [], cx, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [op.key() for op in workloads.generate(workload, 7)]
    again = [op.key() for op in workloads.generate(workload, 7)]
    other = [op.key() for op in workloads.generate(workload, 8)]
    assert first == again
    assert first != other
    assert len(first) >= 100


def test_cli_op_checks_its_expected_answer(tmp_path):
    good = Op("cli", {"command": "order", "types": ["B3"]},
              expect=workloads._cli_expect("order", ("B3",)))
    wrong = Op("cli", good.params, expect=[0, {"order": 47}])
    state = workloads.setup("cold-query", [good], cx, tmp_path)
    assert harness.run_op(good, EXECUTE, state, Tracer()).ok
    result = harness.run_op(wrong, EXECUTE, state, Tracer())
    assert result.reason == "wrong"
    assert result.reason in harness.WRONG_REASONS


def test_a_failed_oracle_check_is_a_wrong_answer(fresh, monkeypatch):
    op = Op("core", {"type": "B3", "subset": ["s1"]})
    assert harness.run_op(op, EXECUTE, fresh, Tracer()).answer == ["special_B", 8]
    # Feed the check a brute-force core that disagrees with the closed form.
    monkeypatch.setattr(cx, "core", lambda G, H: G.trivial_subgroup())
    assert harness.run_op(op, EXECUTE, fresh, Tracer()).reason == "wrong"


def test_deadline_stops_an_op_and_the_run_goes_on(fresh):
    slow = Op("core", {"type": "A5", "subset": ["s1", "s2"]})
    cheap = Op("roots", {"type": "A2"})
    stopped = harness.run_op(slow, EXECUTE, fresh, Tracer(), deadline=0.002)
    assert stopped.reason == "deadline"
    assert stopped.seconds < 1.0
    after = harness.run_op(cheap, EXECUTE, fresh, Tracer())
    assert after.ok and after.answer == 3


def test_deadline_rebuilds_the_shared_group_it_interrupted():
    state = workloads.WarmState.__new__(workloads.WarmState)
    state.cx, state.groups, state.build_seconds = cx, {}, {}
    state.build("H3")
    before = state.groups["H3"][1]
    op = Op("core", {"type": "H3", "subset": ["s1"]})
    rnd = harness.run_round([op], EXECUTE, state, Tracer(), deadline=1e-4,
                            on_deadline=state.rebuild)
    assert rnd.results[0].reason == "deadline"
    assert state.groups["H3"][1] is not before


def test_self_times_and_unattributed_sum_to_op_wall(fresh):
    ops = [Op("core", {"type": "A3", "subset": ["s2"]}),
           Op("longest", {"type": "B3", "subset": ["s1", "s2"]}),
           Op("deodhar_table", {"type": "E6"})]
    tracer = Tracer(enabled=True)
    rnd = harness.run_round(ops, EXECUTE, fresh, tracer)
    assert all(r.ok for r in rnd.results)
    selfs = harness.self_times(rnd.spans)
    wall = harness.op_wall(rnd.spans)
    attributed = sum(v for k, v in selfs.items() if k != harness.OP_SPAN)
    assert attributed > 0 and selfs[harness.OP_SPAN] > 0
    assert attributed + selfs[harness.OP_SPAN] == pytest.approx(wall, rel=1e-9)
    assert wall <= rnd.seconds


def test_exact_counts_and_digest_repeat(fresh):
    ops = [Op("roots", {"type": "I2(600)"}),
           Op("deodhar_table", {"type": "I2(600)"}),   # RootLookupError today
           Op("richardson", {"type": "D4", "word": ["s1", "s3", "s2", "s3", "s1"]})]
    a = harness.run_round(ops, EXECUTE, fresh, Tracer())
    b = harness.run_round(ops, EXECUTE, fresh, Tracer(enabled=True))
    assert a.exact() == b.exact()
    assert a.digest() == b.digest()
    assert a.exact()["ops.failed.deodhar_table.RootLookupError"] == 1
    assert a.exact()["rootspace.roots"] == 2 * 600 + 2 * 600 + 2 * 12


def test_benchmark_json_matches_the_metrics_printed(fresh):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    rnd = harness.run_round([Op("roots", {"type": "A2"})], EXECUTE, fresh, Tracer(enabled=True))
    e2e = harness.end_to_end([rnd], 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(k, v["unit"]) for k, v in e2e.items()]
    layers = harness.per_layer([rnd], [rnd], run.declared("per_layer"))
    assert list(layers) == [m["name"] for m in bench["per_layer"]]
    assert layers["rootspace.roots"]["value"] == 6
    assert layers["rootspace.enumerate_roots.s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
