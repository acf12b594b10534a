import pytest

from coxtools.errors import GraphParseError
from coxtools.graph import (
    INF,
    CoxeterGraph,
    automorphisms,
    components,
    graph_isomorphism,
    graph_isomorphisms,
    parse_graph,
    perp,
    render_graph,
)
from coxtools.classify import build_named
from coxtools.deodhar import decompose_on_table, longest_element, longest_perm
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
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.line == line


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
    assert sub == build_named("A2")


def test_parser_round_trips_random_graphs():
    import random

    from coxtools.graph import INF

    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 8)
        names = [f"v{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                roll = rng.random()
                if roll < 0.3:
                    label = rng.choice([3, 4, 5, 7, 12, INF])
                    edges.append((names[i], names[j], label))
        g = CoxeterGraph(names, edges)
        assert parse_graph(render_graph(g)) == g



_UNKNOWN_VERTEX_CALLS = {
    "perp": lambda G, names: perp(G.graph, names),
    "longest_element": lambda G, names: longest_element(G, names),
    "longest_perm": lambda G, names: longest_perm(G.table, names),
    "decompose_on_table": lambda G, names: decompose_on_table(G.table, names),
    "core_of_normalizer": lambda G, names: core_of_normalizer(G.graph, names),
}


@pytest.mark.parametrize("entry", sorted(_UNKNOWN_VERTEX_CALLS))
def test_unknown_vertex_names_the_first_in_sorted_order(entry):
    G = enumerate_group(build_named("B3"))
    for names, first in ((["s1", "zz"], "zz"), (["zz", "s2", "yy", "xz"], "xz")):
        with pytest.raises(ValueError) as exc:
            _UNKNOWN_VERTEX_CALLS[entry](G, names)
        assert str(exc.value) == f"unknown vertex {first!r}"
