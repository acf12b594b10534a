import contextlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coxtools import cli
from coxtools.classify import build_named
from coxtools.cli import run
from coxtools.deodhar import decompose_on_table, deodhar_decompose, longest_element
from coxtools.engine import enumerate_group
from coxtools.graph import ISO_VERTEX_CAP, CoxeterGraph, render_graph
from coxtools.rootspace import enumerate_roots
from conftest import assert_decomposes_w0


@pytest.fixture
def cox_dir(tmp_path):
    files = {}
    for name in ("A2", "B2", "B3", "H3", "D4"):
        p = tmp_path / f"{name.lower()}.cox"
        p.write_text(render_graph(build_named(name)))
        files[name] = str(p)
    a1a3 = CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A3"))
    p = tmp_path / "a1_a3.cox"
    p.write_text(render_graph(a1a3))
    files["A1A3"] = str(p)
    return files


def test_classify_command(cox_dir, capsys):
    assert run(["classify", cox_dir["B3"]]) == 0
    assert capsys.readouterr().out.strip() == "B3 (order 48)"
    assert run(["classify", cox_dir["A1A3"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"components": ["A1", "A3"], "order": 48}


def test_order_command(cox_dir, capsys):
    assert run(["order", cox_dir["H3"]]) == 0
    assert capsys.readouterr().out.strip() == "120"


def test_roots_command(cox_dir, capsys):
    assert run(["roots", cox_dir["A2"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("0: ")


def test_longest_and_deodhar_commands(cox_dir, capsys):
    assert run(["longest", cox_dir["B2"]]) == 0
    out = capsys.readouterr().out
    assert "length 4" in out
    assert run(["deodhar", cox_dir["H3"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generator_sequence"] == [["s1", "s3"], ["s1"], []]


def test_center_factor_and_indecomposable(cox_dir, capsys):
    assert run(["center-factor", cox_dir["B3"]]) == 0
    assert "Yes" in capsys.readouterr().out
    assert run(["center-factor", cox_dir["D4"]]) == 1
    capsys.readouterr()
    assert run(["indecomposable", cox_dir["D4"]]) == 0
    capsys.readouterr()
    assert run(["indecomposable", cox_dir["B3"]]) == 1


def test_core_command(cox_dir, capsys):
    assert run(["core", cox_dir["A2"], "--subset", "s1"]) == 0
    assert capsys.readouterr().out.strip() == "case (iii): Z(W), order 1"
    assert run(["core", cox_dir["B3"], "--subset", "s1", "--verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "special_B"
    assert payload["subgroup_order"] == 8
    assert 0 in payload["element_ids"]


def test_centralizer_command(cox_dir, capsys):
    code = run(["centralizer", cox_dir["B3"], "--involution", "s1", "--verify", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "special_B" and payload["subgroup_order"] == 8


def test_richardson_command(cox_dir, capsys):
    assert run(["richardson", cox_dir["A2"], "--word", "s1-s2-s1"]) == 0
    out = capsys.readouterr().out
    assert "I = {s1}" in out


def test_isomorphic_command(cox_dir, capsys):
    assert run(["isomorphic", cox_dir["B3"], cox_dir["A1A3"]]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    assert run(["isomorphic", cox_dir["B3"], cox_dir["A1A3"], "--verify"]) == 0
    assert "oracle agrees" in capsys.readouterr().out
    assert run(["isomorphic", cox_dir["B3"], cox_dir["B2"]]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_aut_commands(cox_dir, tmp_path, capsys):
    a1a2 = CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A2"))
    p = tmp_path / "a1_a2.cox"
    p.write_text(render_graph(a1a2))
    assert run(["aut", str(p), "--verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aut_order"] == 12 and payload["brute_order"] == 12
    # A decomposable component is split before the budget is computed.
    assert run(["aut", cox_dir["B3"], "--verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aut_order"] == payload["brute_order"]
    assert run(["aut-order", "--sym", "0,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "12"


def test_aut_order_refuses_an_empty_item(capsys):
    # An empty item is a typo, not a multiplicity: `1,,2` once answered
    # |Aut(Sym1 x Sym2^2)|.  Only `--sym ''` is the empty product.
    for sym, item in [("1,,2", 2), ("1,", 2), (",", 1)]:
        assert run(["aut-order", "--sym", sym]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --sym item {item} is empty\n"
    for sym, order in [("0,1,1", "12"), ("", "1")]:
        assert run(["aut-order", "--sym", sym]) == 0
        assert capsys.readouterr().out.strip() == order


@pytest.mark.parametrize("args,err", [
    (["centralizer", "--involution", "s1-s2"], "element 4 (s1 s2) is not an involution"),
    (["richardson", "--word", "s1-s2"], "element 4 (s1 s2) is not an involution"),
    (["richardson", "--word", "s1--s2"], "--word 's1--s2' item 2 is empty"),
    (["centralizer", "--involution", "s1-"], "--involution 's1-' item 2 is empty"),
    (["richardson", "--word", ""], "element 0 (the identity) is not an involution"),
], ids=["centralizer", "richardson", "empty-letter", "trailing-dash", "identity"])
def test_element_arguments_name_the_element_and_the_position(cox_dir, capsys, args, err):
    # An id alone, or "unknown generator ''", named neither the element
    # nor where the word went wrong.
    assert run([args[0], cox_dir["B3"], *args[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}\n"


def test_aut_order_names_an_item_that_is_not_a_multiplicity(capsys):
    # int() once leaked its own message for 'a', and -1 reached the
    # library's check, which names no position.
    for sym, item in [("1,a", "'a'"), ("1,-1", "'-1'")]:
        assert run(["aut-order", "--sym", sym]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --sym item 2 is not a nonnegative integer: {item}\n"


def test_aut_verify_above_order_1024(tmp_path, capsys):
    # W(F4) has order 1152: the brute-force count runs on the same
    # table-backed search as every smaller group.
    p = tmp_path / "f4.cox"
    p.write_text(render_graph(build_named("F4")))
    assert run(["aut", str(p), "--verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aut_order"] == payload["brute_order"] == 4608


def test_aut_verify_counts_aut_of_w_a1_to_the_fourth(tmp_path, capsys):
    # |Aut(W(A1)^4)| = |GL_4(F2)|: the brute-force count multiplies
    # orbit sizes instead of listing 20160 maps.
    p = tmp_path / "a1x4.cox"
    p.write_text(render_graph(CoxeterGraph.disjoint_union(
        *(build_named("A1").relabel({"s1": f"x{i}"}) for i in range(4)))))
    assert run(["aut", str(p), "--verify"]) == 0
    assert "brute force agrees (20160)" in capsys.readouterr().out


def test_isomorphic_verify_reports_a_wrong_verdict(cox_dir, capsys, monkeypatch):
    # W(B3) and W(A1) x W(A3) are isomorphic; a decider saying NO is caught.
    monkeypatch.setattr(cli, "coxeter_isomorphic", lambda a, b: "NO")
    assert run(["isomorphic", cox_dir["B3"], cox_dir["A1A3"], "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: decider said NO")


@pytest.mark.parametrize("command", ["center-factor", "indecomposable"])
def test_connected_only_commands_reject_a_disconnected_graph(cox_dir, capsys, command):
    assert run([command, cox_dir["A1A3"]]) == 2
    assert f"{command} expects a connected graph" in capsys.readouterr().err


def test_isomorphic_verify_searches_up_to_the_cap(tmp_path, capsys):
    # W(B5) has order 3840: above the search's default cap, within --cap.
    p = tmp_path / "b5.cox"
    p.write_text(render_graph(build_named("B5")))
    assert run(["isomorphic", str(p), str(p), "--verify"]) == 0
    assert capsys.readouterr().out.strip() == "YES (oracle agrees)"


def test_isomorphic_verify_names_what_it_cannot_enumerate(tmp_path, capsys):
    # W(H4) has order 14400, above the default --cap 10000.
    p = tmp_path / "h4.cox"
    p.write_text(render_graph(build_named("H4")))
    assert run(["isomorphic", str(p), str(p), "--verify", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "group order 14400 exceeds the cap 10000" in captured.err
    q = tmp_path / "inf.cox"
    q.write_text("vertices: a b\nedge a b inf\n")
    assert run(["isomorphic", str(q), str(q), "--verify"]) == 2
    assert "infinite Coxeter group" in capsys.readouterr().err


def test_isomorphic_verify_runs_the_oracle_on_an_unknown_verdict(tmp_path, capsys):
    a = tmp_path / "a1_affine.cox"
    a.write_text("vertices: a b\nedge a b inf\n")
    b = tmp_path / "a2_affine.cox"
    b.write_text("vertices: a b c\nedge a b 3\nedge b c 3\nedge a c 3\n")
    assert run(["isomorphic", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "UNKNOWN"
    assert run(["isomorphic", str(a), str(b), "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot enumerate an infinite Coxeter group" in captured.err


@pytest.mark.parametrize("name,length", [("E8", 120), ("B8", 64), ("A8", 36)])
def test_longest_reads_only_the_root_table(tmp_path, capsys, name, length):
    # Each group is far above the default --cap 10000; its roots are not.
    g = build_named(name)
    p = tmp_path / f"{name}.cox"
    p.write_text(render_graph(g))
    assert run(["longest", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["length"] == len(payload["word"]) == length
    # The word spells w0, the one element that sends every positive
    # root negative, and sigma is read off its simple-root images.
    table = enumerate_roots(g)
    p, perm = table.n_positive, np.arange(len(table))
    for s in payload["word"]:
        perm = perm.take(table.generator_perm(s))
    assert (perm[:p] >= p).all()
    assert payload["sigma"] == {s: g.vertices[perm[k] - p] for k, s in enumerate(g.vertices)}


def test_longest_answers_on_a_finite_subset_of_an_infinite_graph(tmp_path, capsys):
    p = tmp_path / "a2_affine.cox"
    p.write_text("vertices: a b c\nedge a b 3\nedge b c 3\nedge a c 3\n")
    assert run(["longest", str(p), "--subset", "c,a"]) == 0
    assert capsys.readouterr().out == "w0 = a c a\nlength 3\nsigma: a->c c->a\n"
    assert run(["longest", str(p)]) == 2
    assert "infinite" in capsys.readouterr().err


def test_deodhar_answers_on_a_finite_subset_of_an_infinite_graph(tmp_path, capsys):
    # {a, c} spans an A2 inside affine A2: its highest root a + c, padded
    # with a zero at b.
    p = tmp_path / "a2_affine.cox"
    p.write_text("vertices: a b c\nedge a b 3\nedge b c 3\nedge a c 3\n")
    assert run(["deodhar", str(p), "--subset", "a,c"]) == 0
    assert capsys.readouterr().out == "roots:\n  1 0 1\ngenerator sequence: {}\n"
    assert run(["deodhar", str(p)]) == 2
    assert "infinite" in capsys.readouterr().err


@pytest.mark.parametrize("subset", [""])
def test_an_explicit_empty_subset_is_the_trivial_parabolic(cox_dir, capsys, subset):
    # As for core, an empty --subset is I = {}; no --subset is every vertex.
    b3 = cox_dir["B3"]
    assert run(["longest", b3, "--subset", subset]) == 0
    assert capsys.readouterr().out == "w0 = (identity)\nlength 0\nsigma: \n"
    assert run(["longest", b3, "--subset", subset, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"word": [], "length": 0, "sigma": {}}
    assert run(["deodhar", b3, "--subset", subset]) == 0
    assert capsys.readouterr().out == "roots:\ngenerator sequence: \n"
    assert run(["deodhar", b3, "--subset", subset, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"roots": [], "generator_sequence": []}
    assert run(["core", b3, "--subset", subset]) == 0
    assert capsys.readouterr().out == "W, order 48\n"
    assert run(["longest", b3, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["length"] == 9


@pytest.mark.parametrize("m", [500, 1000])
def test_deodhar_command_on_large_dihedral_types(tmp_path, capsys, m):
    g = build_named(f"I2({m})")
    p = tmp_path / "i2.cox"
    p.write_text(render_graph(g))
    assert run(["deodhar", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generator_sequence"] == [["s1"], []]
    G = enumerate_group(g)
    dec = deodhar_decompose(G, g.vertices)
    assert payload["roots"] == [G.table.coefficients(b).tolist() for b in dec.root_ids]
    assert G.mult_many(dec.reflections) == longest_element(G, g.vertices)[0]
    assert_decomposes_w0(G.table, dec.root_ids, [G.perms[r] for r in dec.reflections])


@pytest.mark.parametrize("name,reflections", [("E8", 8), ("B8", 8), ("A8", 4)])
def test_deodhar_command_reads_only_the_root_table(tmp_path, capsys, name, reflections):
    # W(E8) has order 696729600, far above the cap, but only 240 roots.
    g = build_named(name)
    p = tmp_path / "g.cox"
    p.write_text(render_graph(g))
    assert run(["deodhar", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = enumerate_roots(g)
    root_ids = decompose_on_table(table, g.vertices)[0]
    assert len(root_ids) == reflections
    assert payload["roots"] == [table.coefficients(r).tolist() for r in root_ids]


def test_aut_verify_names_the_cayley_table_limit(tmp_path, capsys):
    # W(A1 x A1 x F4) has order 4608: within --cap, above the table limit.
    p = tmp_path / "a1a1f4.cox"
    p.write_text(render_graph(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "x"}), build_named("A1").relabel({"s1": "y"}),
        build_named("F4"))))
    assert run(["aut", str(p), "--verify"]) == 2
    assert "order 4608 exceeds the Cayley-table limit 4096" in capsys.readouterr().err


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cox"
    bad.write_text("vertices: a b\nedge a b 2\n")
    assert run(["classify", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert run(["classify", str(tmp_path / "missing.cox")]) == 2
    capsys.readouterr()


def test_verify_command_single_suite(capsys):
    assert run(["verify", "--suite", "orders"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS] orders:")


def test_core_words_flag(cox_dir, capsys):
    assert run(["core", cox_dir["B2"], "--subset", "s1", "--words", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["words"][0] == "e"
    assert "s2-s1-s2" in payload["words"]


def test_indecomposable_infinite_note(tmp_path, capsys):
    p = tmp_path / "inf.cox"
    p.write_text("vertices: a b\nedge a b inf\n")
    # A connected graph gives an irreducible group, so the paper's
    # theorem applies; the text and the JSON note state and cite it.
    theorem = ("any irreducible Coxeter group of infinite order is directly "
               "indecomposable as an abstract group (Nuida, Comm. Algebra 34 (2006))")
    assert run(["indecomposable", str(p)]) == 0
    assert capsys.readouterr().out == f"directly indecomposable: {theorem}\n"
    assert run(["indecomposable", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["note"] == theorem and payload["indecomposable"] is True


def test_unknown_subset_vertex_is_an_error(cox_dir, capsys):
    assert run(["longest", cox_dir["B3"], "--subset", "s1,zz"]) == 2
    assert "zz" in capsys.readouterr().err
    assert run(["deodhar", cox_dir["B3"], "--subset", "zz"]) == 2
    assert "zz" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_cap_env_is_an_error(cox_dir, capsys, monkeypatch, value):
    monkeypatch.setenv("COXTOOLS_CAP", value)
    assert run(["longest", cox_dir["B2"]]) == 2
    assert "COXTOOLS_CAP" in capsys.readouterr().err


def test_cap_env_and_flag(cox_dir, capsys, monkeypatch):
    monkeypatch.setenv("COXTOOLS_CAP", "5")
    assert run(["longest", cox_dir["B3"]]) == 2
    assert "cap 5" in capsys.readouterr().err
    assert run(["longest", cox_dir["B3"], "--cap", "48"]) == 0
    capsys.readouterr()
    assert run(["longest", cox_dir["B3"], "--cap", "0"]) == 2
    assert "--cap" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["10", "-1", "0", "1e-6", "nan", "1e-7"])
def test_eps_out_of_range_is_an_error(cox_dir, capsys, value):
    # Roots are identified exactly, so there is no tolerance to set:
    # argparse rejects --eps whatever its value, 1e-7 included.
    with pytest.raises(SystemExit) as exc:
        run(["longest", cox_dir["B2"], f"--eps={value}"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # Every command pays the package import; SciPy alone would add about
    # half a second and 35 MB to it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, coxtools; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_aut_above_the_cayley_table_limit(tmp_path, capsys):
    # W(B4) x W(A3) has order 9216: within --cap, above the table limit,
    # which the budget without --verify no longer needs.
    p = tmp_path / "b4a3.cox"
    p.write_text(render_graph(CoxeterGraph.disjoint_union(
        build_named("B4").relabel({f"s{i}": f"b{i}" for i in range(1, 5)}),
        build_named("A3").relabel({f"s{i}": f"a{i}" for i in range(1, 4)}))))
    assert run(["aut", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["h1"], payload["h2"], payload["h3"], payload["h4"]) == (8, 18432, 1, 4)
    assert payload["aut_order"] == 36864 and payload["brute_order"] is None


def test_python_dash_m_runs_the_cli(cox_dir):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-m", "coxtools", "classify", cox_dir["B3"]],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "B3 (order 48)"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_cli_silently(tmp_path):
    # The read end of the child's stdout is closed before it starts, so
    # its first write raises SIGPIPE, which ends it as it ends head-fed
    # tools: no message, no exit code of its own.
    p = tmp_path / "e8.cox"
    p.write_text(render_graph(build_named("E8")))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "coxtools", "roots", str(p)], env=env,
                             stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert out.stderr == b""
    assert out.returncode == -signal.SIGPIPE


def test_aut_counts_w_a1_to_the_fifth_in_closed_form(tmp_path, capsys):
    # W(A1)^5: Hom(G, Z(G)) has 32^5 maps of 32 values, but |H1| and
    # |H4| are ranks over F2, so no map is enumerated.
    p = tmp_path / "a1x5.cox"
    p.write_text("vertices: a b c d e\n")
    t0 = time.perf_counter()
    assert run(["aut", str(p), "--json"]) == 0
    # About 0.3 s; the bound only catches a return to listing maps.
    assert time.perf_counter() - t0 < 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["aut_order"] == payload["h1"] == 9999360  # |GL_5(F2)|


def test_aut_on_w_a1_to_the_thirteenth(tmp_path, capsys):
    # Order 8192, inside the default cap: Hom(G, Z(G)) is read off
    # |Z(G)| - 1 central products.  An N x |Z(G)| table of them took
    # 7.7 s and 809 MB peak RSS on a 2-vCPU VM.
    p = tmp_path / "a1x13.cox"
    p.write_text("vertices: " + " ".join(f"v{i}" for i in range(13)) + "\n")
    assert run(["aut", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aut_order"] == payload["h1"] == \
        216123289355092695876117433338079655078664339456000  # |GL_13(F2)|


def test_aut_verify_on_w_a1_cubed_times_w_b2(tmp_path, capsys):
    p = tmp_path / "a1x3b2.cox"
    p.write_text("vertices: a b c x y\nedge x y 4\n")
    assert run(["aut", str(p), "--verify"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("|Aut| = 688128 ") and "brute force agrees (688128)" in out


_BASE_ARGV = {
    "classify": [], "order": [], "roots": [], "longest": [], "deodhar": [],
    "center-factor": [], "indecomposable": [], "core": ["--subset", "s1"],
    "centralizer": ["--involution", "s1"], "richardson": ["--word", "s1"],
    "isomorphic": ["B3"], "aut": [], "aut-order": None, "verify": None,
}
_READS = {
    "--cap": {"roots", "longest", "deodhar", "core", "centralizer", "richardson",
              "isomorphic", "aut"},
    "--verify": {"core", "centralizer", "isomorphic", "aut"},
    "--seed": {"verify"},
}
_IGNORED = [(command, flag) for command in _BASE_ARGV for flag in _READS
            if command not in _READS[flag]]


@pytest.mark.parametrize("command,flag", _IGNORED, ids=[f"{c}{f}" for c, f in _IGNORED])
def test_flags_a_command_does_not_read_are_rejected(cox_dir, capsys, command, flag):
    base = _BASE_ARGV[command]
    if base is None:
        argv = [command] + (["--sym", "0,1"] if command == "aut-order" else [])
    else:
        argv = [command, cox_dir["B3"]] + [cox_dir[a] if a in cox_dir else a for a in base]
    argv += [flag] + ([] if flag == "--verify" else ["3"])
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_READS["--cap"]))
def test_cap_env_is_checked_for_every_command_that_takes_cap(cox_dir, capsys, monkeypatch,
                                                             command):
    monkeypatch.setenv("COXTOOLS_CAP", "abc")
    base = _BASE_ARGV[command]
    argv = [command, cox_dir["B3"]] + [cox_dir[a] if a in cox_dir else a for a in base]
    assert run(argv) == 2
    assert "COXTOOLS_CAP" in capsys.readouterr().err


_CASE_OUTPUTS = [
    (["core", "A2", "--subset", "s1,s2"], "W", "whole",
     "e s1 s2 s1-s2 s2-s1 s1-s2-s1"),
    (["core", "B2", "--subset", "s1"], "case (i): tau(G_B)", "special_B",
     "e s1 s2-s1-s2 s1-s2-s1-s2"),
    (["core", "A3", "--subset", "s1,s3"], "case (ii): tau(G_D)", "special_D",
     "e s1-s3 s2-s1-s3-s2 s1-s2-s1-s3-s2-s1"),
    (["core", "A2", "--subset", "s1"], "case (iii): Z(W)", "center", "e"),
    (["centralizer", "B2", "--involution", "s1-s2-s1-s2"], "W", "whole",
     "e s1 s2 s1-s2 s2-s1 s1-s2-s1 s2-s1-s2 s1-s2-s1-s2"),
    (["centralizer", "B2", "--involution", "s1"], "case (i): tau(G_B)", "special_B",
     "e s1 s2-s1-s2 s1-s2-s1-s2"),
    (["centralizer", "A3", "--involution", "s1-s3"], "case (ii): tau(G_D)", "special_D",
     "e s1-s3 s2-s1-s3-s2 s1-s2-s1-s3-s2-s1"),
    (["centralizer", "A2", "--involution", "s1"], "Z(W)", "center", "e"),
]


@pytest.mark.parametrize("argv,case,kind,words", _CASE_OUTPUTS,
                         ids=[f"{a[0]}-{k}" for a, _, k, _ in _CASE_OUTPUTS])
def test_case_outputs_are_pinned(tmp_path, capsys, argv, case, kind, words):
    # D_3 is A3: its tower starts at {s1, s3}, the image of S(D_2).
    command, name, *rest = argv
    p = tmp_path / f"{name}.cox"
    p.write_text(render_graph(build_named(name)))
    args = [command, str(p), *rest, "--words"]
    order = len(words.split())
    assert run(args) == 0
    assert capsys.readouterr().out == f"{case}, order {order}\n{words}\n"
    assert run(args + ["--verify", "--json"]) == 0
    G = enumerate_group(build_named(name))
    assert json.loads(capsys.readouterr().out) == {
        "case": kind, "subgroup_order": order, "words": words.split(),
        "element_ids": [G.from_word(w.split("-")) if w != "e" else 0 for w in words.split()],
    }


@pytest.mark.parametrize("command", ["core", "longest", "deodhar"])
def test_an_empty_subset_item_is_refused(cox_dir, capsys, command):
    # An empty item is a typo, as for --sym: `s1,,s2` once answered for
    # {s1, s2} and `,` for I = {}.  Only `--subset ''` is I = {}.
    for subset, item in [("s1,,s2", 2), ("s1,", 2), (",", 1)]:
        assert run([command, cox_dir["B3"], "--subset", subset]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --subset item {item} is empty\n"


@pytest.mark.parametrize("command", ["core", "longest"])
def test_unknown_subset_vertices_name_the_first_in_sorted_order(cox_dir, capsys, command):
    assert run([command, cox_dir["B3"], "--subset", "zz,s1,yy,xz"]) == 2
    assert capsys.readouterr().err == "error: unknown vertex 'xz'\n"


def _fresh_run(argv, env_cap):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("COXTOOLS_CAP", None)
    if env_cap is not None:
        env["COXTOOLS_CAP"] = env_cap
    out = subprocess.run([sys.executable, "-m", "coxtools", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    return out.returncode, out.stdout, out.stderr


def test_one_process_prints_what_fresh_processes_print(cox_dir, capsys, monkeypatch):
    # The parser is built once per process; parsing a failing command
    # line must leave nothing behind for the next call.
    calls = [
        (["core", cox_dir["B3"]], None),                       # argparse error
        (["longest", cox_dir["B3"]], "abc"),                   # bad COXTOOLS_CAP
        (["core", cox_dir["B3"], "--subset", "s1", "--words"], None),
        (["centralizer", cox_dir["D4"], "--involution", "s1", "--verify", "--json"], None),
        (["longest", cox_dir["B3"], "--subset", "s2,s3"], "5"),
        (["longest", cox_dir["B3"], "--subset", "s2,s3"], "100"),
        (["longest", cox_dir["B3"], "--cap", "48", "--json"], "5"),
        (["classify", cox_dir["A1A3"]], None),
    ]
    for argv, cap in calls:
        if cap is None:
            monkeypatch.delenv("COXTOOLS_CAP", raising=False)
        else:
            monkeypatch.setenv("COXTOOLS_CAP", cap)
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_run(argv, cap), argv


# Labels of the grammar, each three times so that most edges parse,
# then labels outside it.
_LABELS = ["3", "4", "5", "6", "inf"] * 3 + ["0", "1", "2", "-3", "3.5", "9" * 20]


@st.composite
def _fuzzed_cox_texts(draw):
    """.cox text from the grammar, in half the draws with up to three
    mutations: a line dropped or duplicated, an unknown or a repeated
    vertex.  Labels are drawn inside and outside the grammar, and some
    graphs have more vertices than the graph isomorphism search takes.
    Returns the text and its first vertex."""
    n = draw(st.sampled_from([1, 2, 3, 4, ISO_VERTEX_CAP + 1]))
    names = [f"v{i}" for i in range(n)]
    if n > ISO_VERTEX_CAP:
        edges = list(zip(names, names[1:], itertools.repeat("3"))) if draw(st.booleans()) else []
    elif n > 1:
        edges = [(a, b, m) for (a, b), m in draw(st.lists(
            st.tuples(st.sampled_from(list(itertools.combinations(names, 2))),
                      st.sampled_from(_LABELS)),
            max_size=4, unique_by=lambda e: e[0]))]
    else:
        edges = []
    lines = [f"vertices: {' '.join(names)}"] + [f"edge {a} {b} {m}" for a, b, m in edges]
    mutations = st.lists(st.sampled_from(["drop", "duplicate", "unknown", "repeat"]), max_size=3)
    for mutation in draw(mutations) if draw(st.booleans()) else []:
        i = draw(st.integers(0, len(lines) - 1))
        if mutation == "drop" and len(lines) > 1:
            del lines[i]
        elif mutation == "duplicate":
            lines.insert(i, lines[i])
        elif mutation == "unknown":
            lines.append(f"edge {names[0]} zz 3")
        elif mutation == "repeat":
            lines[0] += f" {draw(st.sampled_from(names))}"
    return "\n".join(lines) + "\n", names[0]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzzed.cox"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn=_fuzzed_cox_texts())
def test_fuzzed_cox_text_exits_with_a_code(fuzz_file, drawn):
    """Every command answers (0 or 1) or names an error (2); nothing
    escapes ``cli.run`` as a traceback."""
    text, first = drawn
    fuzz_file.write_text(text)
    f = str(fuzz_file)
    for argv in (["classify", f], ["order", f], ["roots", f], ["core", f, "--subset", first],
                 ["aut", f], ["isomorphic", f, f, "--verify"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        assert code in (0, 1, 2), (argv, text)
