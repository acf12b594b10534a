from collections import Counter

import pytest

from coxtools.classify import TypeLabel, build_named, parse_type_label
from coxtools.engine import enumerate_group, find_isomorphism
from coxtools.graph import CoxeterGraph, components, parse_graph
from coxtools.hommonoid import central_homs, flat
from coxtools.isomorph import (
    NO,
    UNKNOWN,
    YES,
    ComponentMultiset,
    DirectDecomposition,
    admissible_factor_handles,
    admissible_refinement,
    aut_decomposition,
    aut_order_symproduct,
    condition_ii_cardinalities,
    coxeter_isomorphic,
    factor_isomorphism,
)


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


def test_subgroup_view_above_order_1024():
    # The parabolic subgroup on all vertices of W(F4) is a SubgroupHandle
    # of order 1152; its map to W(F4) is checked with scalar products.
    G = enumerate_group(build_named("F4"))
    H = G.parabolic(G.graph.vertices)
    assert len(H) == 1152
    (f,) = find_isomorphism(H, G)
    local = H.sorted_ids()
    position = {g: i for i, g in enumerate(local)}
    assert sorted(f) == list(G.element_ids())
    for a in range(len(local)):
        for b in range(len(local)):
            assert f[position[G.mult(local[a], local[b])]] == G.mult(f[a], f[b])


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
    # Admissible decomposition of W(B3): center x kernel of the
    # character that is -1 exactly on the first generator's class.
    from coxtools.structure import homs_to_pm1
    w0 = [x for x in b3.center() if x != 0][0]
    ker = next(
        ch.kernel(b3) for ch in homs_to_pm1(b3.graph)
        if ch.of_element(b3, w0) == -1 and any(s == 1 for s in ch.signs))
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
