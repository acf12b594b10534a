import itertools

import pytest

from coxtools.classify import TypeLabel, build_named
from coxtools.deodhar import longest_element, special_subgroup, special_subgroup_via
from coxtools.engine import centralizer, normalizer
from coxtools.errors import VerificationError
from coxtools.structure import (
    center_direct_factor,
    centralizer_of_normal_closure,
    core_of_normalizer,
    homs_to_pm1,
    is_directly_indecomposable,
    richardson_form,
    sgn_character,
    x_h,
)
from conftest import group_of


def test_homs_to_pm1_counts():
    assert len(homs_to_pm1(build_named("A2"))) == 2
    assert len(homs_to_pm1(build_named("B2"))) == 4
    assert len(homs_to_pm1(build_named("F4"))) == 4


def test_characters_are_homomorphisms(b2):
    for ch in homs_to_pm1(b2.graph):
        for a in b2.element_ids():
            for b in b2.element_ids():
                assert ch.of_element(b2, b2.mult(a, b)) == \
                    ch.of_element(b2, a) * ch.of_element(b2, b)


def test_sgn_is_length_parity(b3):
    ch = sgn_character(b3.graph)
    for a in b3.element_ids():
        assert ch.of_element(b3, a) == (-1) ** b3.length(a)


def test_center_direct_factor_decisions():
    yes = center_direct_factor(TypeLabel("B", 3))
    assert yes.proper_factor and yes.complement == TypeLabel("A", 3)
    assert not center_direct_factor(TypeLabel("B", 4)).proper_factor
    h3 = center_direct_factor(TypeLabel("H", 3))
    assert h3.proper_factor and h3.complement_is_even_subgroup
    i10 = center_direct_factor(TypeLabel("I2", 10))
    assert i10.proper_factor and i10.complement == TypeLabel("I2", 5)
    i6 = center_direct_factor(TypeLabel("I2", 6))
    assert i6.complement == TypeLabel("A", 2)
    assert center_direct_factor(TypeLabel("A", 5)).center_trivial
    assert not center_direct_factor(TypeLabel("F", 4)).proper_factor


def test_indecomposability():
    assert not is_directly_indecomposable(TypeLabel("E", 7))
    assert is_directly_indecomposable(TypeLabel("E", 8))
    assert is_directly_indecomposable(TypeLabel("Ainf"))
    assert not is_directly_indecomposable(TypeLabel("B", 5))
    assert not is_directly_indecomposable(TypeLabel("I2", 14))
    assert is_directly_indecomposable(TypeLabel("I2", 12))
    assert is_directly_indecomposable(TypeLabel("A", 1))


def test_core_of_normalizer_b_case(b3):
    desc = core_of_normalizer(b3.graph, ["s1"], verify=True, G=b3)
    assert desc.kind == "special_B"
    resolved = desc.resolve(b3)
    assert len(resolved) == 8
    assert resolved == special_subgroup(b3, "B", 3)


def test_core_of_normalizer_trivial_and_center(a2, h3):
    desc = core_of_normalizer(a2.graph, ["s1"], verify=True, G=a2)
    assert desc.kind == "center" and len(desc.resolve(a2)) == 1
    desc = core_of_normalizer(h3.graph, ["s1", "s3"], verify=True, G=h3)
    assert desc.kind == "center" and len(desc.resolve(h3)) == 2


def test_core_of_normalizer_d_case(d4):
    desc = core_of_normalizer(d4.graph, ["s1", "s2"], verify=True, G=d4)
    assert desc.kind == "special_D"
    assert desc.resolve(d4) == special_subgroup(d4, "D", 4)
    # Non-prefix leaf pair through a graph automorphism.
    desc = core_of_normalizer(d4.graph, ["s1", "s4"], verify=True, G=d4)
    assert desc.kind == "special_D"
    # Through the middle vertex it is only the center.
    desc = core_of_normalizer(d4.graph, ["s1", "s3"], verify=True, G=d4)
    assert desc.kind == "center"


def test_core_of_normalizer_d3_shape(a3):
    # A path of label-3 edges carries the W(D3) structure: the pair of
    # ends is a D2 prefix under some labelling.
    ends = ["s1", "s3"]
    desc = core_of_normalizer(a3.graph, ends, verify=True, G=a3)
    assert desc.kind == "special_D"
    assert len(desc.resolve(a3)) == 4
    desc = core_of_normalizer(a3.graph, ["s1"], verify=True, G=a3)
    assert desc.kind == "center"


def test_core_of_normalizer_full_and_empty(b2):
    assert core_of_normalizer(b2.graph, [], G=b2).kind == "whole"
    assert core_of_normalizer(b2.graph, ["s1", "s2"], G=b2).kind == "whole"


def test_core_of_normalizer_b2_both_vertices(b2):
    for v in ("s1", "s2"):
        desc = core_of_normalizer(b2.graph, [v], verify=True, G=b2)
        assert desc.kind == "special_B"
        assert len(desc.resolve(b2)) == 4


def test_x_h_examples(a2, b2):
    assert x_h(b2, b2.trivial_subgroup()) == []
    gb2 = special_subgroup(b2, "B", 2)
    pairs = dict(x_h(b2, gb2))
    assert pairs[("s1",)] == b2.generator("s1")
    assert ("s2",) not in pairs
    assert ("s1", "s2") in pairs
    pairs = dict(x_h(a2, a2.whole()))
    assert set(pairs) == {("s1",), ("s2",)}


def test_centralizer_of_closure_cases(a2, b3, b2):
    desc = centralizer_of_normal_closure(b3.graph, [b3.generator("s1")],
                                         verify=True, G=b3)
    assert desc.kind == "special_B" and len(desc.resolve(b3)) == 8
    desc = centralizer_of_normal_closure(a2.graph, [a2.generator("s1")],
                                         verify=True, G=a2)
    assert desc.kind == "center" and len(desc.resolve(a2)) == 1
    w0 = b2.from_word(["s1", "s2", "s1", "s2"])
    desc = centralizer_of_normal_closure(b2.graph, [w0], verify=True, G=b2)
    assert desc.kind == "whole"


def test_centralizer_of_closure_rejects_non_involution(b2):
    with pytest.raises(ValueError):
        centralizer_of_normal_closure(b2.graph, [b2.from_word(["s1", "s2"])], G=b2)


def test_richardson_examples(a2, b2):
    u, subset = richardson_form(a2, a2.generator("s1"))
    assert u == 0 and subset == ("s1",)
    w0 = b2.from_word(["s1", "s2", "s1", "s2"])
    u, subset = richardson_form(b2, w0)
    assert u == 0 and subset == ("s1", "s2")
    w = a2.from_word(["s1", "s2", "s1"])
    u, subset = richardson_form(a2, w)
    assert subset == ("s1",)
    assert a2.conj(u, w) == a2.generator("s1")


def test_richardson_rejects_non_involutions(a2):
    with pytest.raises(ValueError):
        richardson_form(a2, a2.from_word(["s1", "s2"]))
    with pytest.raises(ValueError):
        richardson_form(a2, a2.identity)


def test_centralizer_of_longest_equals_normalizer(b3):
    # When w0(I) is central in W_I the two closed worlds coincide.
    for r in range(0, 4):
        for subset in itertools.combinations(b3.graph.vertices, r):
            w0, sigma = longest_element(b3, subset)
            if all(s == t for s, t in sigma.items()):
                assert centralizer(b3, [w0]) == normalizer(b3, b3.parabolic(subset))


def test_verify_flag_raises_on_sabotage(monkeypatch, b2):
    import coxtools.structure as structure

    def bad_match(g, subset):
        return None

    monkeypatch.setattr(structure, "_special_matches", bad_match)
    with pytest.raises(VerificationError):
        core_of_normalizer(b2.graph, ["s1"], verify=True, G=b2)


@pytest.mark.parametrize("name", ["B3", "D4", "H3", "F4", "I2(8)"])
def test_centralizer_closed_form_builds_no_normal_closure(monkeypatch, name):
    import coxtools.deodhar as deodhar
    import coxtools.engine as engine
    import coxtools.structure as structure

    G = group_of(name)
    plain = engine.subgroup_closure

    def no_normal(G, gens, normal=False):
        if normal:
            raise AssertionError("normal closure built")
        return plain(G, gens)

    for module in (engine, deodhar, structure):
        monkeypatch.setattr(module, "subgroup_closure", no_normal)
    reflections = {G.class_of(g) for g in G.generators}
    for cls in sorted(reflections):
        x = G.conjugacy_classes()[cls][0]
        for xs in ([x], [x, G.involutions()[-1]]):
            centralizer_of_normal_closure(G.graph, xs, G=G)
    w0 = longest_element(G, G.graph.vertices)[0]
    if w0 in G.center():
        assert centralizer_of_normal_closure(G.graph, [w0], G=G).kind == "whole"


@pytest.mark.parametrize("name", ["B2", "B3", "B4", "B5", "D4", "D5"])
def test_special_subgroups_are_normal(name):
    # The closed form decides N <= tau(G_{B_n}) / tau(G_{D_n}) by
    # membership of the involutions, which needs these to be normal.
    from coxtools.graph import graph_isomorphisms

    G = group_of(name)
    n = len(G.graph)
    families = ("B", "D") if n >= 3 else ("B",)
    for family in families:
        catalog = build_named(TypeLabel(family, n))
        for tau in graph_isomorphisms(catalog, G.graph, all_maps=True):
            assert special_subgroup_via(G, tau, family).is_normal()


@pytest.mark.parametrize("name", ["B4", "D5"])
def test_centralizer_closed_form_on_all_involution_class_sets(name):
    G = group_of(name)
    reps = [c[0] for c in G.conjugacy_classes()
            if c[0] != G.identity and G.mult(c[0], c[0]) == G.identity]
    kinds = set()
    for r in range(1, len(reps) + 1):
        for xs in itertools.combinations(reps, r):
            kinds.add(centralizer_of_normal_closure(G.graph, list(xs), verify=True, G=G).kind)
    assert "center" in kinds and len(kinds) > 1
