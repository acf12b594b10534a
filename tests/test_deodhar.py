import functools
import itertools
import math
import random

import numpy as np
import pytest

from coxtools.classify import build_named, classify_irreducible, parse_type_label
from coxtools.deodhar import (
    _first_contact,
    decompose_on_table,
    deodhar_decompose,
    highest_roots,
    longest_element,
    longest_word,
    sigma_is_identity,
    special_subgroup,
)
from coxtools.engine import enumerate_group
from coxtools.errors import CoxeterError
from coxtools.graph import CoxeterGraph, components, graph_isomorphisms, parse_graph
from coxtools.rootspace import enumerate_roots, phi_w
from conftest import assert_decomposes_w0, group_of
from test_construction import CATALOG, I2_GRID, ROOT_ONLY


def _catalog_roots(name):
    """The highest roots of a catalog type as coefficient vectors over
    s1..sn, in the paper's variant order (first and second root)."""
    label = parse_type_label(name)
    n, c, sqrt2 = label.param, 2.0 * math.cos(math.pi / 5.0), math.sqrt(2.0)
    if label.family == "B":
        return [[1.0] + [sqrt2] * (n - 1), [sqrt2] + [2.0] * (n - 2) + [1.0]]
    if label.family == "F":
        return [[2.0, 3.0, 2 * sqrt2, sqrt2], [sqrt2, 2 * sqrt2, 3.0, 2.0]]
    if label.family == "H":
        return [[c + 1.0, 2 * c, c] if n == 3 else [3 * c + 2, 4 * c + 2, 3 * c + 1, 2 * c]]
    if n % 2:
        return [[1.0 / (2.0 * math.sin(math.pi / (2 * n)))] * 2]
    cot, csc = 1.0 / math.tan(math.pi / n), 1.0 / math.sin(math.pi / n)
    return [[cot, csc], [csc, cot]]


def test_longest_of_singleton(a2):
    w, sigma = longest_element(a2, ["s1"])
    assert w == a2.generator("s1")
    assert sigma == {"s1": "s1"}


def test_longest_of_a2(a2):
    w, sigma = longest_element(a2, ["s1", "s2"])
    assert w == a2.from_word(["s1", "s2", "s1"])
    assert sigma == {"s1": "s2", "s2": "s1"}


def test_longest_of_b2(b2):
    w, sigma = longest_element(b2, ["s1", "s2"])
    assert w == b2.from_word(["s1", "s2", "s1", "s2"])
    assert sigma_is_identity(sigma)
    assert b2.length(w) == 4


def test_longest_is_involution_and_negates_simples(h3):
    for r in range(1, 4):
        for subset in itertools.combinations(h3.graph.vertices, r):
            w, sigma = longest_element(h3, subset)
            assert h3.mult(w, w) == 0
            p = h3.table.n_positive
            for s in subset:
                img = int(h3.perms[w][h3.table.simple_root_id(s)])
                assert img >= p


def test_deodhar_a2_single_reflection(a2):
    dec = deodhar_decompose(a2, ["s1", "s2"])
    assert len(dec.reflections) == 1
    assert np.allclose(a2.table.coefficients(dec.root_ids[0]), [1.0, 1.0])
    assert dec.generator_sequence == [()]


def test_deodhar_h3_sequence(h3):
    dec = deodhar_decompose(h3, h3.graph.vertices)
    assert len(dec.reflections) == 3
    assert dec.generator_sequence == [("s1", "s3"), ("s1",), ()]


def test_deodhar_b3_chain(b3):
    dec = deodhar_decompose(b3, b3.graph.vertices)
    sqrt2 = math.sqrt(2)
    assert np.allclose(b3.table.coefficients(dec.root_ids[0]), [1, sqrt2, sqrt2])
    assert np.allclose(b3.table.coefficients(dec.root_ids[1]), [1, sqrt2, 0])
    assert np.allclose(b3.table.coefficients(dec.root_ids[2]), [1, 0, 0])


def test_deodhar_product_and_orthogonality(d4):
    for r in range(1, 5):
        for subset in itertools.combinations(d4.graph.vertices, r):
            dec = deodhar_decompose(d4, subset)
            w0, _ = longest_element(d4, subset)
            assert d4.mult_many(dec.reflections) == w0
            for i, j in itertools.combinations(dec.root_ids, 2):
                assert abs(d4.table.inner(i, j)) < 1e-9


HIGHEST_ROOT_TYPES = (
    [f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(2, 8)]
    + [f"D{n}" for n in range(4, 8)] + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in list(range(5, 17)) + [31, 63, 125, 250]])


def test_highest_roots_match_a_float_oracle():
    # Per connected vertex set J, in floats only: the highest roots are
    # the unit positive roots supported in J with <b, a_j> >= 0 for every
    # j in J, and their contacts are the j with <b, a_j> > 0.
    for name in HIGHEST_ROOT_TYPES:
        g = build_named(name)
        table = enumerate_roots(g)
        positive = table.roots[:table.n_positive]
        inner = positive @ table.form  # column j: <b, a_j>
        tol = 1e-9 * max(1.0, np.abs(positive).max())
        connected = {comp for r in range(1, len(g) + 1)
                     for subset in itertools.combinations(g.vertices, r)
                     for comp in components(g.subgraph(subset))}
        for comp in connected:
            cols = [g.index(s) for s in comp]
            outside = [k for k in range(len(g)) if g.vertices[k] not in comp]
            dominant = ((np.abs(positive[:, outside]) <= tol).all(axis=1)
                        & (inner[:, cols] >= -tol).all(axis=1))
            found = highest_roots(table, comp)
            assert sorted(b for b, _ in found) == np.flatnonzero(dominant).tolist(), \
                (name, comp)
            for b, contacts in found:
                assert inner[b] @ positive[b] == pytest.approx(1.0, abs=tol)
                assert set(contacts) == {s for s, k in zip(comp, cols)
                                         if inner[b, k] > tol}, (name, comp)


def test_phi_of_highest_reflection_is_positive_complement():
    # Phi[r] = Phi+ minus the roots supported away from the contacts.
    for name in ("A2", "A4", "A6", "B3", "B6", "D5", "D6", "E6", "F4",
                 "H3", "H4", "I2(6)", "I2(9)", "I2(14)"):
        g = build_named(name)
        table = enumerate_roots(g)
        for rid, contacts in highest_roots(table, g.vertices):
            perm = table.reflection_perm(rid)
            inversions = phi_w(perm, table)
            keep = set(g.vertices) - set(contacts)
            expected = set()
            for i in range(table.n_positive):
                row = table.roots[i]
                supp = {g.vertices[k] for k in range(len(row)) if abs(row[k]) > 1e-9}
                if not supp <= keep:
                    expected.add(i)
            assert inversions == frozenset(expected), (name, rid)


def test_verification_words_from_catalog():
    # The printed words really produce the catalog roots.
    f4 = group_of("F4")
    t = f4.table
    v1, v2 = _catalog_roots("F4")
    w = f4.from_word(["s1", "s2", "s3", "s4", "s2", "s3", "s2"])
    assert int(f4.perms[w][t.simple_root_id("s1")]) == t.root_id(np.array(v1))
    w = f4.from_word(["s4", "s3", "s2", "s1", "s3", "s2", "s3"])
    assert int(f4.perms[w][t.simple_root_id("s4")]) == t.root_id(np.array(v2))

    h3 = group_of("H3")
    t3 = h3.table
    (vh,) = _catalog_roots("H3")
    w = h3.from_word(["s2", "s1", "s2", "s1", "s3", "s2"])
    assert int(h3.perms[w][t3.simple_root_id("s1")]) == t3.root_id(np.array(vh))

    h4 = group_of("H4")
    t4 = h4.table
    (vh4,) = _catalog_roots("H4")
    base = t4.root_id(np.array(list(vh) + [0.0]))
    w = h4.from_word("s4 s3 s2 s1 s2 s1 s3 s2 s1 s4 s3 s2 s1 s2 s3 s4".split())
    assert int(h4.perms[w][base]) == t4.root_id(np.array(vh4))

    for m, k in ((5, 2), (7, 3), (9, 4)):
        G = group_of(f"I2({m})")
        word = (["s2", "s1"] * m)[:k]
        word.reverse()
        w = G.from_word(word)
        got = int(G.perms[w][G.table.simple_root_id("s1")])
        assert got == G.table.root_id(np.array(_catalog_roots(f"I2({m})")[0]))
    for m in (8, 12):
        G = group_of(f"I2({m})")
        k = m // 4
        for i, vec in zip((1, 2), _catalog_roots(f"I2({m})")):
            word = [f"s{3-i}", f"s{i}"] * (k - 1) + [f"s{3-i}"]
            w = G.from_word(word)
            got = int(G.perms[w][G.table.simple_root_id(f"s{i}")])
            assert got == G.table.root_id(np.array(vec))
    for m in (6, 10):
        G = group_of(f"I2({m})")
        k = (m - 2) // 4
        for i, vec in zip((1, 2), _catalog_roots(f"I2({m})")):
            word = [f"s{3-i}", f"s{i}"] * k
            w = G.from_word(word)
            got = int(G.perms[w][G.table.simple_root_id(f"s{3-i}")])
            assert got == G.table.root_id(np.array(vec))


def test_highest_reflection_conjugacy_classes():
    # r(B_n, 1) is conjugate to s1 and r(B_n, 2) to s2; for I2(4k+2)
    # the variants swap, matching the two-orbit structure.  The paper
    # tie-break takes the first catalog root and 'alt' the second.
    for name, conj in (("B2", ("s1", "s2")), ("B3", ("s1", "s2")),
                       ("F4", ("s1", "s4")), ("I2(8)", ("s1", "s2")),
                       ("I2(6)", ("s2", "s1")), ("I2(10)", ("s2", "s1"))):
        G = group_of(name)
        for vec, target, tie_break in zip(_catalog_roots(name), conj, ("paper", "alt")):
            rid = G.table.root_id(np.array(vec))
            assert decompose_on_table(G.table, G.graph.vertices, tie_break)[0][0] == rid
            refl = G.element_from_perm(G.table.reflection_perm(rid))
            assert G.class_of(refl) == G.class_of(G.generator(target)), (name, tie_break)


@pytest.mark.parametrize("m", [1001, 5000, 20000])
def test_decomposition_on_large_dihedral_tables(m):
    table = enumerate_roots(build_named(f"I2({m})"))
    root_ids, refl_perms, subsets, w0 = decompose_on_table(table, table.graph.vertices)
    assert len(root_ids) == 2 - m % 2 and subsets[-1] == ()
    assert_decomposes_w0(table, root_ids, refl_perms)
    # The w0 returned is the product that assert_decomposes_w0 checked.
    assert np.array_equal(w0, functools.reduce(lambda u, r: u[r], refl_perms))


def test_parity_invariance_across_tie_breaks():
    for name in ("A4", "B4", "D4", "F4", "H3", "I2(7)", "I2(8)"):
        G = group_of(name)
        for r in range(1, len(G.graph.vertices) + 1):
            for subset in itertools.combinations(G.graph.vertices, r):
                d1 = deodhar_decompose(G, subset, tie_break="paper")
                d2 = deodhar_decompose(G, subset, tie_break="alt")
                assert len(d1.reflections) % 2 == len(d2.reflections) % 2


def test_special_subgroups():
    b2 = group_of("B2")
    assert len(special_subgroup(b2, "B", 2)) == 4
    d4 = group_of("D4")
    assert len(special_subgroup(d4, "D", 4)) == 8
    b1 = enumerate_group(build_named("B1"))
    gb1 = special_subgroup(b1, "B", 1)
    assert gb1.ids == {0, b1.generator("s1")}
    for name, family in (("B3", "B"), ("B4", "B"), ("D4", "D")):
        G = group_of(name)
        H = special_subgroup(G, family, int(name[1]))
        assert H.is_normal() and H.is_abelian()
        for a in H.ids:
            assert G.mult(a, a) == 0


def test_special_subgroup_rejects_wrong_graph(a3):
    with pytest.raises(ValueError):
        special_subgroup(a3, "B", 3)


def test_reflection_decomposition_lemma_on_run_instances():
    # At each step the peeled reflection inverts exactly the positive
    # roots supported in the current set but not in the leftover set:
    # Phi_(I u J)[w] = Phi+_(I u J) minus Phi_I with I the untouched
    # vertices and J the removed contacts.
    for name in ("A4", "B4", "D4", "F4", "H4", "I2(9)", "I2(12)"):
        G = group_of(name)
        table = G.table
        dec = deodhar_decompose(G, G.graph.vertices)
        for step, (refl, before, after) in enumerate(
                zip(dec.reflections, dec.subsets, dec.subsets[1:])):
            perm = G.perms[refl]
            for i in range(table.n_positive):
                row = table.roots[i]
                supp = {G.graph.vertices[k] for k in range(len(row))
                        if abs(row[k]) > 1e-9}
                if not supp <= set(before):
                    continue
                inverted = int(perm[i]) >= table.n_positive
                assert inverted == (not supp <= set(after)), (name, step, supp)


def test_generator_sequences_match_printed_catalog():
    # Table-level decompositions reproduce the generator sequences the
    # algorithm's source prints for the big exceptional types, without
    # enumerating the groups (E8 would have ~7e8 elements).
    from coxtools.deodhar import decompose_on_table
    from coxtools.rootspace import enumerate_roots

    def seq(name):
        table = enumerate_roots(build_named(name))
        _, _, subsets, _ = decompose_on_table(table, table.graph.vertices)
        return [set(k) for k in subsets[1:]]

    def sets(*texts):
        return [set(f"s{c}" for c in t) if t else set() for t in texts]

    assert seq("E7") == sets("234567", "23457", "2345", "235", "23", "2", "")
    assert seq("E8") == sets("1234567", "234567", "23457", "2345", "235",
                             "23", "2", "")
    assert seq("H4") == sets("123", "13", "1", "")
    assert seq("F4") == sets("234", "23", "2", "")
    # D_{2k}: S(D_{2k-2}) u {s_{2k}}, S(D_{2k-2}), ..., S(D_4), 124, 12, 1, empty.
    assert seq("D6") == sets("12346", "1234", "124", "12", "1", "")
    assert seq("D8") == sets("1234568", "123456", "12346", "1234", "124",
                             "12", "1", "")
    # Odd D_i towers end ..., S(D_3) u {s_5}, S(D_3), {s_3}, empty.
    assert seq("D7") == sets("123457", "12345", "1235", "123", "3", "")
    # After removing the E6 contact the rest is an A5 path, so both of
    # its ends go at once.
    assert seq("E6") == sets("13456", "345", "4", "")


def test_sequence_parity_matches_center_decision_for_big_types():
    # sgn(w0) = (-1)^r for a length-r decomposition: with a connected
    # odd graph the center is a direct factor iff r is odd, so E7/H3
    # must come out odd and E8/H4/D_even even.
    from coxtools.deodhar import decompose_on_table
    from coxtools.rootspace import enumerate_roots

    parities = {"E6": 0, "E7": 1, "E8": 0, "H3": 1, "H4": 0,
                "D4": 0, "D6": 0, "D8": 0}
    for name, want in parities.items():
        table = enumerate_roots(build_named(name))
        roots, _, _, _ = decompose_on_table(table, table.graph.vertices)
        assert len(roots) % 2 == want, name


def test_unknown_vertex_names_raise():
    from coxtools.deodhar import decompose_on_table, longest_word
    from coxtools.rootspace import enumerate_roots
    table = enumerate_roots(build_named("B3"))
    with pytest.raises(ValueError, match="zz"):
        longest_word(table, ["s1", "zz"])
    with pytest.raises(ValueError, match="zz"):
        decompose_on_table(table, ["zz"])


# -- w0 by the table walk and the group walk against the greedy reference ------

def _greedy_longest_perm(table, subset):
    """w0(subset) on whole permutations: right-multiply by a generator
    whose simple root still has a positive image, until none has."""
    p, names = table.n_positive, table.graph.vertices
    perm = np.arange(len(table), dtype=np.int32)
    while up := [s for s in subset if perm[table.simple_root_id(s)] < p]:
        perm = perm[table.generator_perm(up[0])]
    return perm, {s: names[perm[table.simple_root_id(s)] - p] for s in subset}


def _subsets(vertices):
    return [c for r in range(len(vertices) + 1) for c in itertools.combinations(vertices, r)]


def _assert_longest_word(table, subset):
    """longest_word against the greedy reference: the same permutation
    and sigma, a word that spells it, and exactly the positive roots
    supported on the subset sent negative."""
    perm, sigma = _greedy_longest_perm(table, subset)
    word, got_perm, got_sigma = longest_word(table, subset)
    assert np.array_equal(got_perm, perm) and got_sigma == sigma, subset
    spelled = np.arange(len(table))
    for s in word:
        spelled = spelled.take(table.generator_perm(s))
    assert np.array_equal(spelled, perm), subset
    p, off = table.n_positive, [k for k, v in enumerate(table.graph.vertices) if v not in subset]
    assert np.array_equal(perm[:p] >= p, (table.roots[:p, off] == 0).all(axis=1)), subset
    return word, perm, sigma


@pytest.mark.parametrize("name", CATALOG + ROOT_ONLY + I2_GRID)
def test_longest_elements_match_the_greedy_walk(name):
    table = enumerate_roots(build_named(name))
    G = group_of(name) if name not in ROOT_ONLY else None
    for subset in _subsets(table.graph.vertices):
        word, perm, sigma = _assert_longest_word(table, subset)
        if G is not None:
            w0 = G.element_from_perm(perm)
            assert longest_element(G, subset) == (w0, sigma), subset
            assert list(G.word(w0)) == word, subset


@pytest.mark.parametrize("m", [1001, 5000])
def test_longest_word_on_large_dihedral_tables(m):
    table = enumerate_roots(build_named(f"I2({m})"))
    for subset in _subsets(table.graph.vertices):
        _assert_longest_word(table, subset)


# -- the first of two highest roots against the catalog map -------------------

def _catalog_first_contact(graph, comp):
    """The contact of the paper's first highest root through the
    catalog: classify the component, take the catalog isomorphism whose
    images of s1, s2, ... come earliest in graph order, and read the
    image of the catalog contact (s_n for B_n, s1 for F4, s2 for I2(m))."""
    sub = graph.subgraph(comp)
    label = classify_irreducible(sub)
    catalog = build_named(label)
    pos = {v: i for i, v in enumerate(graph.vertices)}
    best = min(graph_isomorphisms(catalog, sub, all_maps=True),
               key=lambda m: [pos[m[f"s{i}"]] for i in range(1, len(catalog) + 1)])
    return best[{"B": f"s{label.param}", "F": "s1", "I2": "s2"}[label.family]]


def _relabelled_beside_a2(name, rng):
    g = build_named(name)
    names = {v: f"v{i}" for i, v in enumerate(rng.sample(g.vertices, len(g)))}
    other = build_named("A2").relabel({"s1": "x0", "s2": "x1"})
    g = CoxeterGraph.disjoint_union(g.relabel(names), other)
    return CoxeterGraph(rng.sample(g.vertices, len(g)), list(g.edges())), sorted(names.values())


def test_first_highest_root_matches_the_catalog_map():
    # B2-B8, F4 and even I2(m) up to 40, renamed, reordered and placed
    # beside an A2 component: the contact read off the component's graph
    # picks the root that the catalog map picks, under both tie-breaks.
    rng = random.Random(20)
    names = [f"B{n}" for n in range(2, 9)] + ["F4"] + [f"I2({m})" for m in range(4, 41, 2)]
    for name in names:
        for _ in range(4):
            g, comp = _relabelled_beside_a2(name, rng)
            comp = tuple(v for v in g.vertices if v in comp)
            table = enumerate_roots(g)
            first = _catalog_first_contact(g, comp)
            highest = highest_roots(table, comp)
            assert len(highest) == 2 and all(len(c) == 1 for _, c in highest)
            want = [rid for rid, contacts in highest if contacts == (first,)]
            other = [rid for rid, contacts in highest if contacts != (first,)]
            assert decompose_on_table(table, comp, "paper")[0][0] == want[0], (name, g)
            assert decompose_on_table(table, comp, "alt")[0][0] == other[0], (name, g)


@pytest.mark.parametrize("text", [
    "vertices: a b c\nedge a b 4\nedge b c 4\n",               # C~2: two 4-edges
    "vertices: a b c d\nedge a b 4\nedge b c 3\nedge b d 3\n",  # B~3: three leaves
], ids=["C~2", "B~3"])
def test_first_contact_refuses_other_shapes(text):
    g = parse_graph(text)
    with pytest.raises(CoxeterError, match="not B_n or F4"):
        _first_contact(g, g.vertices)
