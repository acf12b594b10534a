import pytest

from coxtools.classify import (
    INFINITE,
    INFINITE_FAMILIES,
    TypeLabel,
    build_named,
    classify_components,
    classify_irreducible,
    group_order,
    parse_type_label,
    positive_root_count,
)
from coxtools.engine import EnumeratedGroup, enumerate_group
from coxtools.errors import InfiniteTypeError
from coxtools.graph import CoxeterGraph, parse_graph
from coxtools.rootspace import enumerate_roots
from coxtools.structure import has_nontrivial_center


def test_recognize_b3_path():
    g = parse_graph("vertices: a b c\nedge a b 4\nedge b c 3\n")
    assert classify_irreducible(g) == TypeLabel("B", 3)


def test_path_of_threes_is_a3_never_d3():
    g = parse_graph("vertices: a b c\nedge a b 3\nedge b c 3\n")
    assert classify_irreducible(g) == TypeLabel("A", 3)


def test_infinite_dihedral_is_unknown():
    g = parse_graph("vertices: a b\nedge a b inf\n")
    assert classify_irreducible(g) == TypeLabel("Unknown")


def test_low_rank_coincidences_canonicalized():
    assert classify_irreducible(build_named("I2(3)")) == TypeLabel("A", 2)
    assert classify_irreducible(build_named("I2(4)")) == TypeLabel("B", 2)
    assert classify_irreducible(build_named("B1")) == TypeLabel("A", 1)
    assert TypeLabel("D", 3).canonical() == TypeLabel("A", 3)
    assert TypeLabel("B", 1).canonical() == TypeLabel("A", 1)


def test_classify_components():
    u = CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "t1"}), build_named("A3"))
    assert classify_components(u) == [TypeLabel("A", 1), TypeLabel("A", 3)]
    d2 = build_named("D2")
    assert classify_components(d2) == [TypeLabel("A", 1), TypeLabel("A", 1)]
    mixed = CoxeterGraph.disjoint_union(
        build_named("B4"),
        parse_graph("vertices: x y\nedge x y inf\n"))
    assert classify_components(mixed) == [TypeLabel("B", 4), TypeLabel("Unknown")]


def test_group_orders():
    assert group_order(TypeLabel("A", 2)) == 6
    assert group_order(TypeLabel("H", 3)) == 120
    assert group_order(TypeLabel("H3plus")) == 60
    assert group_order(TypeLabel("E7plus")) == 2903040 // 2
    assert group_order(TypeLabel("E", 8)) == 696729600
    assert group_order(TypeLabel("Binf")) == INFINITE
    assert group_order(TypeLabel("B", 20)) == 2**20 * 2432902008176640000


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "D4", "H3", "I2(5)", "I2(12)"])
def test_order_matches_enumeration(name):
    label = classify_irreducible(build_named(name))
    G = enumerate_group(build_named(name), cap=10_000)
    assert len(G) == group_order(label)


def test_classification_round_trip():
    for name in ("A1", "A4", "B2", "B5", "D4", "D6", "E6", "E7", "E8",
                  "F4", "H3", "H4", "I2(5)", "I2(9)", "I2(14)"):
        label = parse_type_label(name)
        assert classify_irreducible(build_named(label)) == label.canonical()


def test_classification_is_relabelling_invariant():
    g = build_named("D5")
    renamed = g.relabel({v: f"x{9 - i}" for i, v in enumerate(g.vertices)})
    assert classify_irreducible(renamed) == TypeLabel("D", 5)


_DEGREE_LABELS = (
    [TypeLabel("A", n) for n in range(1, 9)] + [TypeLabel("B", n) for n in range(1, 9)]
    + [TypeLabel("D", n) for n in range(2, 9)] + [TypeLabel("E", n) for n in (6, 7, 8)]
    + [TypeLabel("F", 4), TypeLabel("H", 3), TypeLabel("H", 4)]
    + [TypeLabel("I2", m) for m in range(3, 40)])


@pytest.mark.parametrize("label", _DEGREE_LABELS, ids=str)
def test_degree_facts_match_enumeration(label):
    # The facts derived from the degrees against the root BFS and the
    # element BFS, which count roots and elements themselves.
    g = build_named(label)
    assert positive_root_count(label) == enumerate_roots(g).n_positive
    if group_order(label) <= 20_000:
        G = EnumeratedGroup(g, cap=20_000)
        assert group_order(label) == len(G)
        assert has_nontrivial_center(label) == (len(G.center()) > 1)


def test_positive_root_counts():
    assert positive_root_count(TypeLabel("A", 3)) == 6
    assert positive_root_count(TypeLabel("B", 4)) == 16
    assert positive_root_count(TypeLabel("H", 3)) == 15
    with pytest.raises(InfiniteTypeError):
        positive_root_count(TypeLabel("Ainf"))


def test_parameterless_labels_parse_from_their_text():
    for family in INFINITE_FAMILIES:
        assert parse_type_label(str(TypeLabel(family))) == TypeLabel(family)
    assert [str(TypeLabel(f)) for f in ("E7plus", "H3plus")] == ["E7+", "H3+"]


def test_label_parsing_and_rendering():
    for text in ("A3", "B4", "I2(7)", "E7+", "H3+", "Ainf", "AinfInf", "Unknown"):
        assert str(parse_type_label(text)) == text
    with pytest.raises(ValueError):
        parse_type_label("Q9")
    with pytest.raises(ValueError):
        TypeLabel("E", 5)
    with pytest.raises(ValueError):
        TypeLabel("I2", 2)
    with pytest.raises(ValueError):
        TypeLabel("A", True)  # a bool is not a rank


def test_build_named_rejects_infinite_families():
    with pytest.raises(InfiniteTypeError):
        build_named("Ainf")
