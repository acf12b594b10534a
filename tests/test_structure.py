import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coxtools.classify import TypeLabel, build_named, classify_components, parse_type_label
from coxtools.deodhar import longest_element, special_subgroup, special_subgroup_via
from coxtools.engine import centralizer, enumerate_group, normalizer, subgroup_closure
from coxtools.errors import VerificationError
from coxtools.graph import CoxeterGraph
from coxtools.hommonoid import f2_apply, hom_space
from coxtools.isomorph import coxeter_isomorphic
from coxtools.structure import (
    center_direct_factor,
    centralizer_of_normal_closure,
    core_of_normalizer,
    is_directly_indecomposable,
    richardson_form,
    x_h,
)
from coxtools.suites import _index2_normal_subgroups, _multiset_graph, _universe
from conftest import group_of


def _characters(G):
    """u.pi(w) for every mask u over the odd-graph components: row u is
    the character (-1)^(u.pi) as 0/1 per element id."""
    space = hom_space(G)
    return [f2_apply(u, space.pi) for u in itertools.product((0, 1), repeat=space.c)]


def test_characters_to_pm1_count():
    assert [len(_characters(group_of(name))) for name in ("A2", "B2", "F4")] == [2, 4, 4]


def test_characters_are_homomorphisms(b2):
    M = b2.mult_table()
    for chi in _characters(b2):
        assert (chi[M] == chi[:, None] ^ chi[None, :]).all()


def test_sign_character_is_length_parity(b3):
    space = hom_space(b3)
    assert (f2_apply((1,) * space.c, space.pi) == b3.lengths % 2).all()


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
    assert str(center_direct_factor(TypeLabel("A", 5))) == "A5: center trivial"
    assert not center_direct_factor(TypeLabel("F", 4)).proper_factor


def test_indecomposability():
    assert not is_directly_indecomposable(TypeLabel("E", 7))
    assert is_directly_indecomposable(TypeLabel("E", 8))
    assert is_directly_indecomposable(TypeLabel("Ainf"))
    assert not is_directly_indecomposable(TypeLabel("B", 5))
    assert not is_directly_indecomposable(TypeLabel("I2", 14))
    assert is_directly_indecomposable(TypeLabel("I2", 12))
    assert is_directly_indecomposable(TypeLabel("A", 1))


def test_closed_forms_reject_a_group_of_another_graph(a3, b3):
    with pytest.raises(ValueError, match="not built from the graph"):
        core_of_normalizer(a3.graph, ["s1"], verify=True, G=b3)
    with pytest.raises(ValueError, match="not built from the graph"):
        centralizer_of_normal_closure(b3.graph, [a3.generator("s1")], G=a3)


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
    # Without G, verify enumerates the group itself.
    assert core_of_normalizer(h3.graph, ["s1", "s3"], verify=True) == desc


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
    # Without G the group is enumerated from the graph, with the same ids.
    assert centralizer_of_normal_closure(b3.graph, [b3.generator("s1")], verify=True) == desc
    desc = centralizer_of_normal_closure(a2.graph, [a2.generator("s1")],
                                         verify=True, G=a2)
    assert desc.kind == "center" and len(desc.resolve(a2)) == 1
    w0 = b2.from_word(["s1", "s2", "s1", "s2"])
    desc = centralizer_of_normal_closure(b2.graph, [w0], verify=True, G=b2)
    assert desc.kind == "whole"


def test_centralizer_of_closure_rejects_non_involution(b2):
    with pytest.raises(ValueError):
        centralizer_of_normal_closure(b2.graph, [b2.from_word(["s1", "s2"])], G=b2)


@pytest.mark.parametrize("bad", [-1, 48])
def test_centralizer_of_closure_rejects_ids_outside_the_group(b3, bad):
    # -1 would otherwise index w0 (id 47), which is central: "center"
    # in place of the error, and only verify=True would notice.
    with pytest.raises(ValueError, match=rf"element id {bad} outside the range \[0, 48\)"):
        centralizer_of_normal_closure(b3.graph, [bad], G=b3)


@pytest.mark.parametrize("bad", [-1, 48])
def test_richardson_form_rejects_ids_outside_the_group(b3, bad):
    # -1 would otherwise be read as w0 (id 47), and answered with u = s1.
    with pytest.raises(ValueError, match=rf"element id {bad} outside the range \[0, 48\)"):
        richardson_form(b3, bad)


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

    def no_towers(g):
        return iter(())

    monkeypatch.setattr(structure, "_tower_cases", no_towers)
    with pytest.raises(VerificationError):
        core_of_normalizer(b2.graph, ["s1"], verify=True, G=b2)


@pytest.mark.parametrize("name", ["B3", "D4", "H3", "F4", "I2(8)"])
def test_closed_forms_answer_without_closures_or_the_center(monkeypatch, name):
    # Both closed forms decide their case without building a subgroup:
    # with the closure routine and Z(W) refusing, they still give the
    # kinds that the oracle confirms.
    import coxtools.engine as engine

    G = group_of(name)
    subsets = [c for r in range(len(G.graph) + 1)
               for c in itertools.combinations(G.graph.vertices, r)]
    sets = [[x] for x in G.involutions()] + [G.involutions()]
    cores = [core_of_normalizer(G.graph, I, verify=True, G=G).kind for I in subsets]
    cents = [centralizer_of_normal_closure(G.graph, xs, verify=True, G=G).kind for xs in sets]

    def refuse(*args, **kwargs):
        raise AssertionError("closure or center built")

    monkeypatch.setattr(engine, "_closure", refuse)
    monkeypatch.setattr(engine.EnumeratedGroup, "center", refuse)
    assert [core_of_normalizer(G.graph, I, G=G).kind for I in subsets] == cores
    assert [centralizer_of_normal_closure(G.graph, xs, G=G).kind for xs in sets] == cents
    towers = {"B3": {"special_B"}, "D4": {"special_D"}}.get(name, set())
    assert set(cents) == towers | {"center", "whole"}


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


def _reference_tower_maps(g):
    """(family, tau, proper prefix images) from both catalog families,
    searched without the type filter."""
    from coxtools.graph import graph_isomorphisms

    n = len(g)
    out = []
    for family, first in (("B", 1), ("D", 2)):
        if n > first:
            for tau in graph_isomorphisms(build_named(TypeLabel(family, n)), g, all_maps=True):
                image = [tau[f"s{i}"] for i in range(1, n + 1)]
                out.append((family, tau, [set(image[:k]) for k in range(first, n)]))
    return out


def _renamed_reordered(g, seed):
    import random

    from coxtools.graph import CoxeterGraph

    rng = random.Random(seed)
    names = dict(zip(g.vertices, (f"v{i}" for i in rng.sample(range(100), len(g)))))
    order = [names[v] for v in g.vertices]
    rng.shuffle(order)
    return CoxeterGraph(order, [(names[a], names[b], m) for a, b, m in g.edges()])


_TOWER_SEARCH_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + ["D3"]
    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(4, 13)]
)


@pytest.mark.parametrize("name", _TOWER_SEARCH_TYPES)
def test_tower_search_matches_the_unfiltered_search(name):
    # Only the family of g's canonical type is searched; the answer must
    # be what searching both catalog families finds, in the same order.
    # A3 and D3 find two D_3 maps, I2(4) two B_2 maps and D4 six D_4 maps.
    from coxtools import structure

    for seed, g in enumerate([build_named(name)] + [
            _renamed_reordered(build_named(name), seed) for seed in range(3)]):
        got = [(d.kind[-1], dict(d.tau), prefixes)
               for d, prefixes in structure._tower_cases(g)]
        assert got == _reference_tower_maps(g), (name, seed)
    if name in ("A3", "D3", "I2(4)", "D4"):
        assert len(got) == (6 if name == "D4" else 2)


@pytest.mark.parametrize("call", ["core", "centralizer"])
def test_verify_names_both_orders_on_a_forced_mismatch(monkeypatch, b2, call):
    from coxtools.structure import SubgroupDescription

    monkeypatch.setattr(SubgroupDescription, "resolve", lambda self, G: G.trivial_subgroup())
    with pytest.raises(VerificationError) as exc:
        if call == "core":
            core_of_normalizer(b2.graph, ["s1"], verify=True, G=b2)
        else:
            centralizer_of_normal_closure(b2.graph, [b2.generator("s1")], verify=True, G=b2)
    assert str(exc.value) == (
        "core-of-normalizer mismatch on I=['s1']: closed form tau(G_B) has order 1, "
        "brute force order 4" if call == "core" else
        "centralizer mismatch: closed form tau(G_B) has order 1, brute force order 4")


def _index2_by_seeds(G):
    """Index-2 subgroups as closures of the derived subgroup and every
    set of at most four of its coset representatives."""
    s = np.array(G.generators)
    inv = G.inverse_table()
    comms = G.mult_ids(s[:, None], s[None, :], inv[s][:, None], inv[s][None, :])
    derived = subgroup_closure(G, comms.ravel().tolist(), normal=True)
    covered = derived.mask()
    reps = []
    while not covered.all():
        reps.append(int(np.argmin(covered)))
        covered[G.mult_ids(reps[-1], derived.sorted_ids())] = True
    found = set()
    for r in range(min(len(reps), 4) + 1):
        for seed in itertools.combinations(reps, r):
            H = subgroup_closure(G, derived.generating_set() + list(seed))
            if 2 * len(H) == len(G):
                found.add(H.ids)
    return sorted(found, key=sorted)


@pytest.mark.parametrize("labels,count", [
    (("B2", "I2(6)"), 15), (("A1",) * 4, 15), (("B3",), 3), (("B4",), 3),
], ids=["B2xI2(6)", "A1^4", "B3", "B4"])
def test_index2_subgroups_grow_one_coset_at_a_time(labels, count, monkeypatch):
    G = enumerate_group(_multiset_graph([parse_type_label(x) for x in labels]))
    calls = []
    mult_ids = G.mult_ids
    monkeypatch.setattr(G, "mult_ids", lambda *args: calls.append(1) or mult_ids(*args))
    found = _index2_normal_subgroups(G)
    # One product per grown span and coset, under 700 on these groups;
    # closing every seed of up to four cosets took 22711 on B2xI2(6).
    assert len(calls) < 1000
    monkeypatch.undo()
    assert len(found) == count
    assert [H.ids for H in found] == _index2_by_seeds(G)


# -- relabelling properties ----------------------------------------------------

CONNECTED = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "F4", "H3",
             "I2(5)", "I2(6)", "I2(8)", "I2(12)"]
PRODUCTS = _universe(1152)


def _relabelled(g: CoxeterGraph, data) -> tuple[CoxeterGraph, dict[str, str]]:
    """g with its vertices renamed and reordered, and the renaming."""
    order = data.draw(st.permutations(range(len(g))))
    names = {v: f"v{order[i]}" for i, v in enumerate(g.vertices)}
    vertices = data.draw(st.permutations(sorted(names.values())))
    return CoxeterGraph(vertices, [(names[a], names[b], m) for a, b, m in g.edges()]), names


def _assert_relabelling_carries_the_decider(g, h):
    kinds = [collections.Counter(map(str, classify_components(x))) for x in (g, h)]
    assert kinds[0] == kinds[1]
    assert coxeter_isomorphic(g, h) == "YES"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(labels=st.sampled_from(PRODUCTS), data=st.data())
def test_relabelling_carries_classification_and_isomorphism(labels, data):
    g = _multiset_graph(labels)
    _assert_relabelling_carries_the_decider(g, _relabelled(g, data)[0])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(CONNECTED), data=st.data())
def test_relabelling_carries_the_closed_forms(name, data):
    # On a connected type: the kind of the core of the normalizer of a
    # mapped subset, and of the centralizer of the normal closure of
    # involutions mapped by their words.  Every w0(I) is an involution,
    # so the tower cases come up, not only the centre and the whole group.
    g = group_of(name).graph
    h, names = _relabelled(g, data)
    _assert_relabelling_carries_the_decider(g, h)
    G, H = group_of(name), enumerate_group(h)
    subset = data.draw(st.sets(st.sampled_from(g.vertices)))
    assert (core_of_normalizer(g, subset, G=G).kind
            == core_of_normalizer(h, [names[s] for s in subset], verify=True, G=H).kind)
    xs = data.draw(st.lists(st.sampled_from(G.involutions()), min_size=1, max_size=3))
    ys = [H.from_word([names[s] for s in G.word(x)]) for x in xs]
    assert (centralizer_of_normal_closure(g, xs, G=G).kind
            == centralizer_of_normal_closure(h, ys, verify=True, G=H).kind)
