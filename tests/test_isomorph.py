import itertools
from collections import Counter

import numpy as np
import pytest

from coxtools.classify import TypeLabel, build_named, parse_type_label
from coxtools.engine import automorphism_count, enumerate_group, find_isomorphism
from coxtools.errors import CoxeterError
from coxtools.graph import CoxeterGraph, components, parse_graph
from coxtools.hommonoid import central_homs, f2_apply, flat, hom_space
from coxtools.isomorph import (
    NO,
    UNKNOWN,
    YES,
    ComponentMultiset,
    DirectDecomposition,
    FactoredIsomorphism,
    admissible_factor_handles,
    admissible_refinement,
    aut_decomposition,
    aut_order_symproduct,
    condition_ii_cardinalities,
    coxeter_isomorphic,
    factor_isomorphism,
)
from coxtools.suites import _multiset_graph


def _labels(*names):
    return [parse_type_label(n) for n in names]


def _refined(names):
    m = ComponentMultiset.from_labels(_labels(*names))
    return admissible_refinement(m).finite


def test_admissible_refinement():
    assert _refined(["B3"]) == Counter({TypeLabel("A", 1): 1, TypeLabel("A", 3): 1})
    assert _refined(["E7"]) == Counter({TypeLabel("A", 1): 1, TypeLabel("E7plus"): 1})
    assert _refined(["A5"]) == Counter({TypeLabel("A", 5): 1})
    assert _refined(["I2(6)"]) == Counter({TypeLabel("A", 1): 1, TypeLabel("A", 2): 1})
    assert _refined(["I2(10)"]) == Counter({TypeLabel("A", 1): 1, TypeLabel("I2", 5): 1})
    assert _refined(["H3", "B5"]) == Counter({
        TypeLabel("A", 1): 2, TypeLabel("H3plus"): 1, TypeLabel("D", 5): 1})


def test_decider_yes_cases():
    b3 = build_named("B3")
    a1a3 = CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A3"))
    assert coxeter_isomorphic(b3, a1a3) == YES
    i26 = build_named("I2(6)")
    a1a2 = CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A2"))
    assert coxeter_isomorphic(i26, a1a2) == YES
    assert coxeter_isomorphic(_labels("E7", "A1"), _labels("A1", "E7")) == YES


def test_decider_no_cases():
    b2 = build_named("B2")
    squares = CoxeterGraph.disjoint_union(
        *[build_named("A1").relabel({"s1": f"x{i}"}) for i in range(3)])
    assert coxeter_isomorphic(b2, squares) == NO
    assert coxeter_isomorphic(_labels("B4"), _labels("A1", "D4")) == NO
    assert coxeter_isomorphic(_labels("Ainf"), _labels("Binf")) == NO
    assert coxeter_isomorphic(_labels("A3", "Ainf"), _labels("A3")) == NO


def test_decider_unknown_on_nonisomorphic_infinite_graphs():
    x = parse_graph("vertices: a b\nedge a b inf\n")
    y = parse_graph("vertices: a b c\nedge a b inf\nedge b c inf\n")
    assert coxeter_isomorphic(x, y) == UNKNOWN
    assert coxeter_isomorphic(x, x) == YES
    # But a finite-part mismatch still decides NO.
    gx = CoxeterGraph.disjoint_union(x.relabel({"a": "p", "b": "q"}), build_named("B2"))
    gy = CoxeterGraph.disjoint_union(y.relabel({v: f"w{v}" for v in y.vertices}),
                                     build_named("A2"))
    assert coxeter_isomorphic(gx, gy) == NO


def test_condition_ii_list_matches_refinement():
    pairs = [
        (["B3"], ["A1", "A3"]),
        (["I2(6)"], ["A1", "A2"]),
        (["B5"], ["A1", "D5"]),
        (["I2(10)", "A1"], ["A1", "A1", "I2(5)"]),
        (["H3", "E7"], ["A1", "A1", "H3", "E7"]),
        (["B4"], ["A1", "D4"]),
        (["A2", "A2"], ["A2"]),
    ]
    for a, b in pairs:
        ca = Counter(t.canonical() for t in _labels(*a))
        cb = Counter(t.canonical() for t in _labels(*b))
        assert (condition_ii_cardinalities(ca) == condition_ii_cardinalities(cb)) == \
            (_refined(a) == _refined(b))


def _component_decomposition(G):
    return DirectDecomposition.of(
        G, [G.parabolic(c) for c in components(G.graph)])


def test_factor_identity_on_a1_x_a2():
    G = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A2")))
    dec = _component_decomposition(G)
    f = list(range(len(G)))
    result = factor_isomorphism(dec, dec, f)
    (noncentral,) = result.phi.keys()
    assert result.phi[noncentral] == noncentral
    gmap = result.g_lambda[noncentral]
    assert all(gmap[x] == x for x in gmap)
    # g_Z is trivial on the non-central factor and carries the center.
    for x in dec.factors[noncentral].ids:
        assert result.g_z[x] == 0
    central = [i for i in range(2) if i != noncentral][0]
    for x in dec.factors[central].ids:
        assert result.g_z[x] == x


def test_factor_swap_on_a2_x_a2():
    g = CoxeterGraph.disjoint_union(
        build_named("A2").relabel({"s1": "a1", "s2": "a2"}),
        build_named("A2").relabel({"s1": "b1", "s2": "b2"}))
    G = enumerate_group(g)
    swap = {"a1": "b1", "a2": "b2", "b1": "a1", "b2": "a2"}
    f = [G.from_word([swap[s] for s in G.word(a)]) for a in G.element_ids()]
    dec = _component_decomposition(G)
    result = factor_isomorphism(dec, dec, f)
    assert result.phi == {0: 1, 1: 0}
    assert all(v == 0 for v in result.g_z.values())


def test_factor_hflat_twist_on_a1_x_a2():
    # f = h_flat for a central hom h killing the A1 factor: phi is the
    # identity and g_Z recovers h on the A2 factor.
    G = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A2")))
    z = [x for x in G.center() if x != 0][0]
    h = next(f for f in central_homs(G)
             if f(G.generator("z")) == 0 and f(G.generator("s1")) == z)
    f = list(flat(h))
    dec = _component_decomposition(G)
    result = factor_isomorphism(dec, dec, f)
    (noncentral,) = result.phi.keys()
    assert result.phi[noncentral] == noncentral
    for x in dec.factors[noncentral].ids:
        # star-inverse convention: g_Z(w) = h(w)^-1 = h(w) here.
        assert result.g_z[x] == h(x)


def test_factor_rejects_non_isomorphism():
    G = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A2")))
    dec = _component_decomposition(G)
    bad = [0] * len(G)
    with pytest.raises(ValueError):
        factor_isomorphism(dec, dec, bad)


def test_aut_budget_examples():
    G = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A2")))
    budget = aut_decomposition(_component_decomposition(G))
    assert (budget.h1, budget.h2, budget.h3, budget.h4) == (2, 6, 1, 1)
    assert budget.aut_order == budget.brute_order == 12

    g = CoxeterGraph.disjoint_union(
        build_named("A2").relabel({"s1": "a1", "s2": "a2"}),
        build_named("A2").relabel({"s1": "b1", "s2": "b2"}))
    G = enumerate_group(g)
    budget = aut_decomposition(_component_decomposition(G))
    assert (budget.h1, budget.h2, budget.h3) == (1, 36, 2)
    assert budget.aut_order == 72

    A1 = enumerate_group(build_named("A1"))
    assert len(find_isomorphism(A1, A1, all_maps=True)) == 1


def test_aut_budget_d4_brute():
    G = enumerate_group(build_named("D4"))
    budget = aut_decomposition(DirectDecomposition.of(G, admissible_factor_handles(G)))
    assert (budget.h1, budget.h2, budget.h3, budget.h4) == (2, 1152, 1, 2)
    assert budget.aut_order == budget.brute_order == 1152


@pytest.mark.parametrize("name,budget", [
    ("H3", (1, 120, 1, 1, 120)),
    ("F4", (4, 4608, 1, 4, 4608)),
])
def test_aut_budget_on_admissible_factors(name, budget):
    G = enumerate_group(build_named(name))
    b = aut_decomposition(DirectDecomposition.of(G, admissible_factor_handles(G)))
    assert (b.h1, b.h2, b.h3, b.h4, b.aut_order) == budget
    assert b.brute_order == b.aut_order


def test_aut_decomposition_searches_w_d5():
    # Order 1920: the Cayley-table limit, 4096, is the only search limit.
    G = enumerate_group(build_named("D5"))
    b = aut_decomposition(DirectDecomposition.of(G, admissible_factor_handles(G)), brute=True)
    assert (b.h1, b.h2, b.h3, b.h4) == (1, 1920, 1, 1)
    assert b.aut_order == b.brute_order == 1920


def _renamed_and_reordered(g):
    """g with new vertex names, listed in a seeded shuffled order."""
    order = list(g.vertices)
    np.random.default_rng(len(order)).shuffle(order)
    name = {v: f"v{len(order) - i}" for i, v in enumerate(g.vertices)}
    return CoxeterGraph([name[v] for v in order],
                        [(name[a], name[b], m) for a, b, m in g.edges()])


@pytest.mark.parametrize("names", [("D4",), ("B3", "A2"), ("H3",), ("I2(6)", "A1")],
                         ids=["D4", "B3xA2", "H3", "I2(6)xA1"])
def test_aut_is_invariant_under_relabelling(names):
    parts = [build_named(n).relabel({v: f"{v}_{i}" for v in build_named(n).vertices})
             for i, n in enumerate(names)]
    g = CoxeterGraph.disjoint_union(*parts)
    relabelled = _renamed_and_reordered(g)
    assert relabelled.vertices != g.vertices
    budgets = []
    for graph in (g, relabelled):
        G = enumerate_group(graph)
        b = aut_decomposition(DirectDecomposition.of(G, admissible_factor_handles(G)))
        assert b.brute_order == automorphism_count(G)
        budgets.append((b.h1, b.h2, b.h3, b.h4, b.aut_order, b.brute_order))
    assert budgets[0] == budgets[1]


@pytest.mark.parametrize("graph", [
    CoxeterGraph.disjoint_union(build_named("A1").relabel({"s1": "z"}), build_named("A2")),
    build_named("B3"),
], ids=["A1xA2", "B3"])
def test_aut_decomposition_enumerates_no_hom(graph, monkeypatch):
    # |H1| and |H4| are closed counts: no map is built or expanded.
    from coxtools import hommonoid, isomorph

    def refuse(*args):
        raise AssertionError("Hom(G, Z(G)) was enumerated")

    for name in ("hom_matrices", "central_homs", "_values"):
        for module in (hommonoid, isomorph):
            monkeypatch.setattr(module, name, refuse, raising=False)
    G = enumerate_group(graph)
    budget = aut_decomposition(DirectDecomposition.of(G, admissible_factor_handles(G)), brute=True)
    assert budget.aut_order == budget.brute_order


def test_from_graph_reads_the_cached_classification(monkeypatch):
    from coxtools import classify, isomorph

    g = CoxeterGraph.disjoint_union(
        build_named("B3").relabel({f"s{i}": f"b{i}" for i in (1, 2, 3)}),
        build_named("A2"), parse_graph("vertices: p q r\nedge p q 4\nedge q r 4\n"))
    labels = classify.classify_components(g)
    calls = []
    original = classify.classify_irreducible

    def counted(sub):
        calls.append(sub)
        return original(sub)

    monkeypatch.setattr(classify, "classify_irreducible", counted)
    monkeypatch.setattr(isomorph, "classify_irreducible", counted, raising=False)
    m = ComponentMultiset.from_graph(g)
    assert calls == []
    assert m.finite == Counter(label for label in labels if label.is_finite())
    assert [h.vertices for h in m.unknown_graphs] == [("p", "q", "r")]


def test_subgroup_view_above_order_1024():
    # The parabolic subgroup on all vertices of W(F4) is a SubgroupHandle
    # of order 1152; its map to W(F4) is checked on all pairs, with
    # batched products in row blocks.
    G = enumerate_group(build_named("F4"))
    H = G.parabolic(G.graph.vertices)
    assert len(H) == 1152
    (f,) = find_isomorphism(H, G)
    local = np.array(H.sorted_ids())
    position = np.empty(len(G), dtype=np.intp)
    position[local] = np.arange(len(local))
    f = np.array(f)
    assert sorted(f) == list(G.element_ids())
    for lo in range(0, len(local), 64):
        a = np.arange(lo, min(lo + 64, len(local)))[:, None]
        b = np.arange(len(local))[None, :]
        lhs = f[position[G.mult_ids(local[a], local[b])]]
        assert (lhs == G.mult_ids(f[a], f[b])).all()


def test_aut_order_symproduct_values():
    assert aut_order_symproduct([0, 1, 1]) == 12
    assert aut_order_symproduct([0, 0, 2]) == 72
    assert aut_order_symproduct([0, 0, 0, 1]) == 24
    assert aut_order_symproduct([0, 2]) == 6
    assert aut_order_symproduct([5]) == 1
    assert aut_order_symproduct([]) == 1
    # Sym6 carries the exceptional outer automorphism factor 2^m6.
    assert aut_order_symproduct([0, 0, 0, 0, 0, 1]) == 2 * 720


def test_decider_no_on_unknown_count_mismatch():
    # One infinite component vs none is decidable: the counts of
    # (indecomposable) infinite factors must agree.
    inf_edge = parse_graph("vertices: a b\nedge a b inf\n")
    g1 = CoxeterGraph.disjoint_union(
        inf_edge, build_named("A1").relabel({"s1": "z"}))
    g2 = build_named("A1").relabel({"s1": "z"})
    assert coxeter_isomorphic(g1, g2) == NO


def test_factor_isomorphism_across_groups():
    # W(B3) -> W(A1) x W(A3): phi matches the D3-like complement onto
    # the A3 component and g_Z books the central coordinate.
    b3 = enumerate_group(build_named("B3"))
    target = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A3")))
    f = find_isomorphism(b3, target)[0]
    # Admissible decomposition of W(B3): center x kernel of a character
    # that is -1 on w0 but is not the sign character.
    w0 = [x for x in b3.center() if x != 0][0]
    space = hom_space(b3)
    u = next(u for u in itertools.product((0, 1), repeat=space.c)
             if f2_apply(u, int(space.pi[w0])) and not all(u))
    ker = b3.subgroup(np.flatnonzero(f2_apply(u, space.pi) == 0).tolist())
    dec1 = DirectDecomposition.of(
        b3, [b3.subgroup(frozenset({0, w0}), verified=True), ker])
    dec2 = DirectDecomposition.of(
        target, [target.parabolic(c) for c in components(target.graph)])
    result = factor_isomorphism(dec1, dec2, f)
    (i,) = result.phi.keys()
    j = result.phi[i]
    assert len(dec1.factors[i]) == 24 and len(dec2.factors[j]) == 24
    gmap = result.g_lambda[i]
    assert sorted(gmap) == dec1.factors[i].sorted_ids()
    assert set(gmap.values()) == dec2.factors[j].ids


COMPLEMENT_CASES = [
    (["B3"], [{"c0_s2", "c0_s3"}]),
    (["B5"], [{"c0_s2", "c0_s3", "c0_s4", "c0_s5"}]),
    (["I2(6)"], [{"c0_s1"}]),
    (["I2(10)"], [{"c0_s1"}]),
    (["H3"], [set()]),
    (["A1", "B3"], [{"c1_s2", "c1_s3"}]),
    (["B3", "I2(6)"], [{"c0_s2", "c0_s3"}, {"c1_s1"}]),
]


@pytest.mark.parametrize("names,kept", COMPLEMENT_CASES,
                         ids=["x".join(names) for names, _ in COMPLEMENT_CASES])
def test_admissible_factor_handles_pins_each_complement(names, kept):
    # Each split component gives {1, w0} and then a complement K: normal
    # of index 2 in W_comp, without w0, and holding these generators of
    # comp: for B_odd all but the leaf of the 4-edge, for I2(4k+2) the
    # first vertex, for H3 none.  w0 is read off the lengths.
    G = enumerate_group(_multiset_graph([parse_type_label(n) for n in names]))
    factors = iter(admissible_factor_handles(G))
    got = []
    for comp in components(G.graph):
        part, first = G.parabolic(comp), next(factors)
        if first == part:
            continue
        w0 = max(part.ids, key=G.length)
        K = next(factors)
        assert first.ids == {0, w0}
        assert G.subgroup(K.ids) == K and K.ids < part.ids and 2 * len(K) == len(part)
        assert K.is_normal() and w0 not in K
        got.append({v for v in comp if G.generator(v) in K})
    assert got == kept
    assert next(factors, None) is None


def test_factor_isomorphism_rejects_a_non_admissible_decomposition():
    # W(B3) kept whole: its image projects onto the A3 factor of
    # W(A1) x W(A3) two-to-one.
    b3 = enumerate_group(build_named("B3"))
    target = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A3")))
    f = find_isomorphism(b3, target)[0]
    dec1 = DirectDecomposition.of(b3, [b3.whole()])
    dec2 = DirectDecomposition.of(target, admissible_factor_handles(target))
    with pytest.raises(CoxeterError, match="g_lambda is not bijective"):
        factor_isomorphism(dec1, dec2, f)


def test_factor_isomorphism_rejects_unequal_central_factor_counts():
    # W(A1)^2 x W(A2) as [A1, A1, A2] against [A1 x A1, A2].
    G = _product("A1", "A1", "A2")
    comps = components(G.graph)
    dec1 = DirectDecomposition.of(G, [G.parabolic(c) for c in comps])
    dec2 = DirectDecomposition.of(G, [G.parabolic(comps[0] + comps[1]), G.parabolic(comps[2])])
    with pytest.raises(CoxeterError, match="central factor counts differ"):
        factor_isomorphism(dec1, dec2, list(range(len(G))))


def _product(*names):
    """W of the disjoint union of the named types, vertices renamed apart."""
    parts = [build_named(name) for name in names]
    return enumerate_group(CoxeterGraph.disjoint_union(
        *[g.relabel({v: f"{v}_{k}" for v in g.vertices}) for k, g in enumerate(parts)]))


class _ScalarDecomposition:
    """A direct decomposition with its projections as dicts, filled by
    one scalar product per tuple of factor elements."""

    def __init__(self, group, factors):
        self.group, self.factors = group, list(factors)
        self.projections = [dict() for _ in self.factors]
        for combo in itertools.product(*(H.sorted_ids() for H in self.factors)):
            w = group.mult_many(combo)
            for proj, part in zip(self.projections, combo):
                proj[w] = part

    def central_factor_ids(self):
        return [i for i, H in enumerate(self.factors) if H.is_abelian()]


def _scalar_factor_isomorphism(dec1, dec2, f):
    """factor_isomorphism with scalar products and all-pairs checks."""
    G1, G2 = dec1.group, dec2.group
    for a in G1.element_ids():
        for b in G1.element_ids():
            assert f[G1.mult(a, b)] == G2.mult(f[a], f[b])
    z2 = set(G2.center())
    central1 = set(dec1.central_factor_ids())
    central2 = set(dec2.central_factor_ids())
    noncentral2 = [j for j in range(len(dec2.factors)) if j not in central2]
    phi = {}
    for i in range(len(dec1.factors)):
        if i in central1:
            continue
        (phi[i],) = [j for j in noncentral2
                     if not {dec2.projections[j][f[x]] for x in dec1.factors[i].ids}
                     <= dec2.factors[j].center()]
    g_lambda = {}
    for i, j in phi.items():
        ids = dec1.factors[i].ids
        gmap = {x: dec2.projections[j][f[x]] for x in ids}
        assert set(gmap.values()) == dec2.factors[j].ids
        for x in ids:
            for y in ids:
                assert gmap[G1.mult(x, y)] == G2.mult(gmap[x], gmap[y])
        g_lambda[i] = gmap
    phi_central = dict(zip(sorted(central1), sorted(central2)))
    per_factor_gz = []
    for i, Hi in enumerate(dec1.factors):
        vals = {}
        for x in Hi.ids:
            if i in central1:
                vals[x] = f[x]
            else:
                vals[x] = G2.mult_many(dec2.projections[j][f[x]]
                                       for j in range(len(dec2.factors)) if j != phi[i])
            assert vals[x] in z2
        per_factor_gz.append(vals)
    g_z = {w: G2.mult_many(per_factor_gz[i][dec1.projections[i][w]]
                           for i in range(len(dec1.factors)))
           for w in G1.element_ids()}
    for a in G1.element_ids():
        for b in G1.element_ids():
            assert g_z[G1.mult(a, b)] == G2.mult(g_z[a], g_z[b])
    return FactoredIsomorphism(phi=phi, phi_central=phi_central,
                               g_lambda=g_lambda, g_z=g_z)


@pytest.mark.parametrize("source,target,count", [
    (("B3",), ("A1", "A3"), 48),
    (("I2(6)", "A1"), ("A1", "A1", "A2"), 50),
    (("I2(10)",), ("A1", "I2(5)"), 40),
    (("A1", "A2"), ("A2", "A1"), 12),
    (("H3",), ("H3",), 1),
    (("A1", "B3"), ("A1", "A1", "A3"), 1),
], ids=["B3", "I2(6)xA1", "I2(10)", "A1xA2", "H3", "A1xB3"])
def test_factor_isomorphism_matches_the_scalar_reference(source, target, count):
    G1, G2 = _product(*source), _product(*target)
    maps = find_isomorphism(G1, G2, all_maps=count > 1)[:count]
    assert len(maps) == count
    dec1 = DirectDecomposition.of(G1, admissible_factor_handles(G1))
    dec2 = DirectDecomposition.of(G2, admissible_factor_handles(G2))
    ref1 = _ScalarDecomposition(G1, dec1.factors)
    ref2 = _ScalarDecomposition(G2, dec2.factors)
    for f in maps:
        got = factor_isomorphism(dec1, dec2, f)
        want = _scalar_factor_isomorphism(ref1, ref2, f)
        assert (got.phi, got.phi_central) == (want.phi, want.phi_central)
        assert got.g_lambda == want.g_lambda
        assert got.g_z == want.g_z


def test_factor_isomorphism_of_b5_onto_a1_x_d5():
    # W(B5), of order 3840, is its center times a character kernel
    # isomorphic to W(D5): phi pairs that kernel with the W(D5) factor,
    # and f(w) = g_lambda(w_i) g_Z(w) for every w, w_i its kernel part.
    b5 = enumerate_group(build_named("B5"))
    target = _product("A1", "D5")
    (f,) = find_isomorphism(b5, target)
    dec1 = DirectDecomposition.of(b5, admissible_factor_handles(b5))
    dec2 = DirectDecomposition.of(target, admissible_factor_handles(target))
    result = factor_isomorphism(dec1, dec2, f)
    (i,) = result.phi
    j = result.phi[i]
    assert len(dec1.factors[i]) == len(dec2.factors[j]) == 1920
    assert len(result.phi_central) == 1
    center = set(target.center())
    assert set(result.g_z.values()) <= center
    gmap = result.g_lambda[i]
    for w in b5.element_ids():
        assert f[w] == target.mult(gmap[int(dec1.projections[i, w])], result.g_z[w])


def test_direct_decomposition_rejects_what_is_not_direct():
    G = _product("A1", "A2")
    z, a2 = (G.parabolic(c) for c in components(G.graph))
    with pytest.raises(ValueError, match="do not multiply"):
        DirectDecomposition.of(G, [a2])
    reflection = G.subgroup(frozenset({0, G.generator("s1_1")}))
    with pytest.raises(ValueError, match="not normal"):
        DirectDecomposition.of(G, [reflection, a2])
    klein = _product("A1", "A1")
    x, _ = (klein.parabolic(c) for c in components(klein.graph))
    with pytest.raises(ValueError, match="duplicate product"):
        DirectDecomposition.of(klein, [x, x])


@pytest.mark.parametrize("names", [("B3",), ("A1", "A2"), ("D4",), ("I2(6)", "A1"), ("A1", "B3")])
def test_projections_recombine_every_element(names):
    G = _product(*names)
    dec = DirectDecomposition.of(G, admissible_factor_handles(G))
    assert dec.projections.shape == (len(dec.factors), len(G))
    for row, H in zip(dec.projections, dec.factors):
        assert H.mask()[row].all()
    assert (G.mult_ids(*dec.projections) == G.element_ids()).all()


def test_factor_rejects_a_bijection_that_is_not_a_homomorphism():
    G = _product("A1", "A2")
    dec = DirectDecomposition.of(G, admissible_factor_handles(G))
    f = list(G.element_ids())
    f[1], f[2] = f[2], f[1]
    with pytest.raises(ValueError, match="not an isomorphism"):
        factor_isomorphism(dec, dec, f)


def test_admissible_factor_handles():
    from coxtools.isomorph import admissible_factor_handles

    b3 = enumerate_group(build_named("B3"))
    factors = admissible_factor_handles(b3)
    assert sorted(len(f) for f in factors) == [2, 24]
    dec = DirectDecomposition.of(b3, factors)  # directness verified inside
    i6 = enumerate_group(build_named("I2(6)"))
    assert sorted(len(f) for f in admissible_factor_handles(i6)) == [2, 6]
    h3 = enumerate_group(build_named("H3"))
    hf = admissible_factor_handles(h3)
    assert sorted(len(f) for f in hf) == [2, 60]
    a3 = enumerate_group(build_named("A3"))
    assert [len(f) for f in admissible_factor_handles(a3)] == [24]


def _condition_ii_reference(finite):
    """The cardinality list computed by probing the Counter over ranges
    of parameters, one TypeLabel per probe."""
    def c(label):
        return finite.get(label, 0)

    out = {}
    big = c(TypeLabel("A", 1)) + c(TypeLabel("E", 7)) + c(TypeLabel("H", 3))
    max_b = max((t.param for t in finite if t.family == "B"), default=0)
    max_i2 = max((t.param for t in finite if t.family == "I2"), default=0)
    max_d = max((t.param for t in finite if t.family == "D"), default=0)
    max_a = max((t.param for t in finite if t.family == "A"), default=0)
    for k in range(1, max_b // 2 + 1):
        big += c(TypeLabel("B", 2 * k + 1))
    for k in range(1, max_i2 // 4 + 1):
        big += c(TypeLabel("I2", 4 * k + 2))
    out[("A1_B_odd_E7_H3_I2_4k2",)] = big
    out[("B3_A3",)] = c(TypeLabel("B", 3)) + c(TypeLabel("A", 3))
    for k in range(2, max(max_b, max_d) // 2 + 2):
        out[("B_odd_D_odd", k)] = c(TypeLabel("B", 2 * k + 1)) + c(TypeLabel("D", 2 * k + 1))
    out[("I26_A2",)] = c(TypeLabel("I2", 6)) + c(TypeLabel("A", 2))
    for k in range(2, max_i2 // 2 + 2):
        out[("I2_4k2_I2_2k1", k)] = c(TypeLabel("I2", 4 * k + 2)) + c(TypeLabel("I2", 2 * k + 1))
    for n in range(4, max_a + 1):
        out[("A", n)] = c(TypeLabel("A", n))
    for n in range(2, max_b + 1, 2):
        out[("B_even", n)] = c(TypeLabel("B", n))
    for n in range(4, max_d + 1, 2):
        out[("D_even", n)] = c(TypeLabel("D", n))
    for name in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("H", 3), ("H", 4)):
        out[name] = c(TypeLabel(*name))
    for k in range(2, max_i2 // 4 + 2):
        out[("I2_4k", k)] = c(TypeLabel("I2", 4 * k))
    return {key: val for key, val in out.items() if val}


def test_condition_ii_cardinalities_match_range_probing():
    import random

    labels = (
        [TypeLabel("A", n) for n in range(1, 13)]
        + [TypeLabel("B", n) for n in range(2, 13)]
        + [TypeLabel("D", n) for n in range(4, 13)]
        + [TypeLabel("E", n) for n in (6, 7, 8)]
        + [TypeLabel("F", 4), TypeLabel("H", 3), TypeLabel("H", 4)]
        + [TypeLabel("I2", m) for m in range(5, 41)]
    )
    rng = random.Random(6)
    for trial in range(3000):
        finite = Counter({t: rng.randint(1, 3)
                          for t in rng.sample(labels, rng.randint(0, 8))})
        got = condition_ii_cardinalities(finite)
        # Same items, counts and order.
        assert list(got.items()) == list(_condition_ii_reference(finite).items()), finite
    whole = Counter(labels)
    assert list(condition_ii_cardinalities(whole).items()) == \
        list(_condition_ii_reference(whole).items())
