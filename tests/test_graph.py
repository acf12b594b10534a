import random

import pytest
from hypothesis import given, settings, strategies as st

from coxtools.errors import GraphParseError
from coxtools.graph import (
    INF,
    CoxeterGraph,
    automorphisms,
    components,
    distance,
    graph_isomorphism,
    graph_isomorphisms,
    is_connected,
    parse_graph,
    perp,
    render_graph,
)
from coxtools.classify import build_named
from coxtools.deodhar import decompose_on_table, longest_element, longest_word
from coxtools.engine import enumerate_group
from coxtools.structure import core_of_normalizer


def test_parse_simple_edge():
    g = parse_graph("vertices: a b\nedge a b 4\n")
    assert g.vertices == ("a", "b")
    assert g.m("a", "b") == 4
    assert g.m("b", "a") == 4
    assert g.m("a", "a") == 1


def test_parse_single_vertex():
    g = parse_graph("vertices: a\n")
    assert g.vertices == ("a",)
    assert len(list(g.edges())) == 0


def test_parse_comments_and_inf():
    g = parse_graph("# a comment\nvertices: x y z\nedge x y inf\n")
    assert g.m("x", "y") == INF
    assert g.m("y", "z") == 2


def test_parse_label_below_three_rejected():
    with pytest.raises(GraphParseError) as err:
        parse_graph("vertices: a b\nedge a b 2\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text,line", [
    ("vertices: a a\n", 1),
    ("vertices: a b\nedge a c 3\n", 2),
    ("vertices: a b\nedge a b x\n", 2),
    ("vertices: a b\nbad line\n", 2),
    ("vertices: a b\nedge a b 3\nedge b a 4\n", 3),
    ("edge a b 3\n", 1),
    # Checks made only by CoxeterGraph, reported at the line being read.
    ("vertices: a b\n# c\nedge a a 3\n", 3),
    ("vertices: a b\nedge a b 2\n", 2),
    ("vertices: a b\nedge a b 1\n", 2),
    ("vertices: a b\nedge a b 0\n", 2),
    ("vertices: a b\nedge a b -3\n", 2),
    ("vertices: a b c\nedge a b 3\nedge zz c 3\n", 3),
    ("vertices: a b\nvertices: c\n", 2),
    ("# c\n\nvertices: a b c b\nedge a b 3\n", 3),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.line == line


def test_parse_duplicate_vertex_is_named():
    with pytest.raises(GraphParseError, match="duplicate vertex 'b'"):
        parse_graph("vertices: a b c b\n")


def test_parse_accepts_unspaced_vertices_and_signed_label():
    assert parse_graph("vertices:a b\nedge a b +3\n") == build_named("A2").relabel(
        {"s1": "a", "s2": "b"})


def test_render_round_trip():
    for name in ("A1", "B3", "D4", "F4", "H4", "I2(7)"):
        g = build_named(name)
        assert parse_graph(render_graph(g)) == g
    g = parse_graph("vertices: a b c\nedge a b inf\nedge b c 5\n")
    assert parse_graph(render_graph(g)) == g


def test_components_plain_and_odd():
    b3 = build_named("B3")
    assert components(b3) == [("s1", "s2", "s3")]
    assert components(b3, odd_only=True) == [("s1",), ("s2", "s3")]
    f4 = build_named("F4")
    assert components(f4, odd_only=True) == [("s1", "s2"), ("s3", "s4")]


def test_components_partition_and_no_crossing_edges():
    g = parse_graph("vertices: a b c d e\nedge a b 3\nedge d e inf\n")
    comps = components(g)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == sorted(g.vertices)
    for x, y, _ in g.edges():
        home = [c for c in comps if x in c]
        assert y in home[0]


def test_isomorphism_a3_vs_renamed_path():
    a3 = build_named("A3")
    other = parse_graph("vertices: p q r\nedge q p 3\nedge q r 3\n")
    mapping = graph_isomorphism(a3, other)
    assert mapping is not None
    for s in a3.vertices:
        for t in a3.vertices:
            assert a3.m(s, t) == other.m(mapping[s], mapping[t])


def test_isomorphism_none_on_label_mismatch():
    assert graph_isomorphism(build_named("B2"), build_named("A2")) is None
    assert graph_isomorphisms(build_named("A2"), build_named("A3"), all_maps=True) == []


def test_automorphism_counts():
    assert len(automorphisms(build_named("D4"))) == 6
    assert len(automorphisms(build_named("B2"))) == 2
    for n in (3, 4, 5):
        assert len(automorphisms(build_named(f"B{n}"))) == 1
    for n in (5, 6):
        assert len(automorphisms(build_named(f"D{n}"))) == 2


def test_every_iso_is_label_preserving():
    d4 = build_named("D4")
    for tau in graph_isomorphisms(d4, d4, all_maps=True):
        for s in d4.vertices:
            for t in d4.vertices:
                assert d4.m(s, t) == d4.m(tau[s], tau[t])


def test_perp():
    b3 = build_named("B3")
    assert perp(b3, ["s1"]) == ("s3",)
    assert perp(b3, ["s2"]) == ()
    assert perp(b3, []) == ("s1", "s2", "s3")


def test_disjoint_union_and_subgraph():
    u = CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "t1"}), build_named("A2"))
    assert len(u) == 3
    assert u.m("t1", "s1") == 2
    sub = u.subgraph(["s1", "s2"])
    assert sub == build_named("A2") and hash(sub) == hash(build_named("A2"))
    assert repr(sub) == "CoxeterGraph(['s1', 's2'], [s1-s2:3])"


def _random_graphs(seed: int = 3, count: int = 50):
    """Seeded random graphs with 1-8 vertices and labels 3, 4, 5, 7, 12, inf."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        names = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    edges.append((names[i], names[j], rng.choice([3, 4, 5, 7, 12, INF])))
        yield CoxeterGraph(names, edges)


def test_parser_round_trips_random_graphs():
    for g in _random_graphs():
        assert parse_graph(render_graph(g)) == g


def test_components_and_distance_match_references():
    """components against a union-find, distance against Floyd-Warshall."""
    for g in _random_graphs():
        for odd_only in (False, True):
            parent = {v: v for v in g.vertices}

            def find(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            for a, b, m in g.edges():
                if not odd_only or (m != INF and m % 2 == 1):
                    parent[find(a)] = find(b)
            want = {}
            for v in g.vertices:
                want.setdefault(find(v), []).append(v)
            assert components(g, odd_only) == sorted(
                (tuple(c) for c in want.values()), key=lambda c: g.index(c[0]))
        far = float("inf")
        d = {(a, b): 0 if a == b else (1 if g.m(a, b) != 2 else far)
             for a in g.vertices for b in g.vertices}
        for k in g.vertices:
            for a in g.vertices:
                for b in g.vertices:
                    d[a, b] = min(d[a, b], d[a, k] + d[k, b])
        for s in g.vertices:
            for t in g.vertices:
                assert distance(g, s, [t]) == (-1 if d[s, t] == far else d[s, t])
            targets = g.vertices[::2]
            nearest = min(d[s, t] for t in targets)
            assert distance(g, s, targets) == (-1 if nearest == far else nearest)
        assert is_connected(g) == (len(components(g)) == 1)


_COX_TOKENS = ["vertices:", "vertices:a", "edge", "a", "b", "zz", "3", "+3", "-3", "0", "1", "2",
               "inf", "x", "#", "\t", "\n"]


@st.composite
def _cox_texts(draw):
    """A valid .cox text with 2-4 vertices, then up to three tokens of
    the .cox alphabet inserted or swapped in anywhere."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=2, max_size=4, unique=True))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names),
                  st.sampled_from(["3", "4", "5", "inf"])).filter(lambda e: e[0] != e[1]),
        max_size=5, unique_by=lambda e: frozenset(e[:2])))
    lines = [["vertices:", *names]] + [["edge", *e] for e in edges]
    for _ in range(draw(st.integers(0, 3))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(line)))
        line[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(_COX_TOKENS))]
    return "\n".join(" ".join(line) for line in lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_cox_texts())
def test_parse_graph_returns_a_graph_or_a_parse_error(text):
    """Text over the .cox token alphabet either parses to a graph that
    round-trips through render_graph or raises GraphParseError."""
    try:
        g = parse_graph(text)
    except GraphParseError as exc:
        assert 1 <= exc.line <= max(1, len(text.splitlines()))
        return
    assert parse_graph(render_graph(g)) == g



_UNKNOWN_VERTEX_CALLS = {
    "perp": lambda G, names: perp(G.graph, names),
    "longest_element": lambda G, names: longest_element(G, names),
    "longest_word": lambda G, names: longest_word(G.table, names),
    "decompose_on_table": lambda G, names: decompose_on_table(G.table, names),
    "core_of_normalizer": lambda G, names: core_of_normalizer(G.graph, names),
    "subgraph": lambda G, names: G.graph.subgraph(names),
}


@pytest.mark.parametrize("entry", sorted(_UNKNOWN_VERTEX_CALLS))
def test_unknown_vertex_names_the_first_in_sorted_order(entry):
    G = enumerate_group(build_named("B3"))
    for names, first in ((["s1", "zz"], "zz"), (["zz", "s2", "yy", "xz"], "xz")):
        with pytest.raises(ValueError) as exc:
            _UNKNOWN_VERTEX_CALLS[entry](G, names)
        assert str(exc.value) == f"unknown vertex {first!r}"
