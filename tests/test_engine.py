import itertools

import numpy as np
import pytest

from coxtools.classify import build_named
from coxtools.engine import (
    GroupView,
    centralizer,
    core,
    enumerate_group,
    find_isomorphism,
    normalizer,
    subgroup_closure,
)
from coxtools.errors import CapExceededError
from coxtools.graph import CoxeterGraph
from conftest import group_of


def test_enumerate_sizes():
    assert len(group_of("A2")) == 6
    klein = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "x"}),
        build_named("A1").relabel({"s1": "y"})))
    assert len(klein) == 4


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_group(build_named("H4"), cap=10_000)


def test_identity_is_zero_and_words_reduce(b3):
    assert b3.identity == 0
    assert b3.word(0) == ()
    for a in b3.element_ids():
        assert b3.from_word(b3.word(a)) == a
        assert len(b3.word(a)) == b3.length(a)


def test_multiplication_matches_permutation_composition(b2):
    for a in b2.element_ids():
        for b in b2.element_ids():
            c = b2.mult(a, b)
            assert (b2.perms[a][b2.perms[b]] == b2.perms[c]).all()
            assert b2.mult(b2.inv(a), c) == b


def test_element_encoding_is_faithful(b3):
    images = {b3.images(a) for a in b3.element_ids()}
    assert len(images) == len(b3)


def test_closure_plain_and_normal(a2, b2):
    s1 = b2.generator("s1")
    s2 = b2.generator("s2")
    normal = subgroup_closure(b2, [s1], normal=True)
    expected = {0, s1, b2.from_word(["s2", "s1", "s2"]),
                b2.from_word(["s1", "s2", "s1", "s2"])}
    assert normal.ids == expected
    assert subgroup_closure(b2, []).ids == {0}
    assert subgroup_closure(a2, [a2.generator("s1")], normal=True).ids == set(a2.element_ids())
    plain = subgroup_closure(b2, [s1])
    assert plain.ids == {0, s1}
    assert not plain.is_normal() and normal.is_normal()
    del s2


def test_centralizer_examples(a2, b2):
    assert centralizer(a2, [a2.generator("s1")]).ids == {0, a2.generator("s1")}
    assert centralizer(a2, []).ids == set(a2.element_ids())
    w0 = b2.from_word(["s1", "s2", "s1", "s2"])
    assert centralizer(b2, [w0]).ids == set(b2.element_ids())


def test_normalizer_examples(a2, b2):
    h = subgroup_closure(b2, [b2.generator("s1")])
    n = normalizer(b2, h)
    assert len(n) == 4
    assert n.ids == subgroup_closure(b2, [b2.generator("s1")], normal=True).ids
    assert normalizer(b2, b2.whole()) == b2.whole()
    ha = subgroup_closure(a2, [a2.generator("s1")])
    assert normalizer(a2, ha) == ha


def test_core_examples(a2, b2):
    ha = subgroup_closure(a2, [a2.generator("s1")])
    assert core(a2, ha).ids == {0}
    hn = subgroup_closure(b2, [b2.generator("s1")], normal=True)
    assert core(b2, hn) == hn
    n = normalizer(b2, subgroup_closure(b2, [b2.generator("s1")]))
    assert core(b2, n).ids == hn.ids


def test_core_is_largest_normal_inside(b3):
    h = subgroup_closure(b3, [b3.generator("s1"), b3.generator("s2")])
    c = core(b3, h)
    assert c.is_normal()
    assert c.ids <= h.ids
    # Maximality: no strictly larger normal subgroup inside h.
    for cls in b3.conjugacy_classes():
        if set(cls) <= h.ids and not set(cls) <= c.ids:
            raise AssertionError("missed a class inside H")


def test_find_isomorphism_b3_vs_a1_a3(b3):
    other = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A3")))
    maps = find_isomorphism(b3, other)
    assert maps
    f = maps[0]
    for a in b3.element_ids():
        for b in b3.element_ids():
            assert f[b3.mult(a, b)] == other.mult(f[a], f[b])


def test_find_isomorphism_negative(b2):
    cube = enumerate_group(CoxeterGraph.disjoint_union(
        *[build_named("A1").relabel({"s1": f"x{i}"}) for i in range(3)]))
    assert find_isomorphism(b2, cube) == []


def test_find_isomorphism_self(a3):
    maps = find_isomorphism(a3, a3)
    assert maps and len(set(maps[0])) == len(a3)


def test_subgroup_view_isomorphism(b2):
    # The rotation subgroup of W(B2) is cyclic of order 4; W(A1)^2 is not.
    r = b2.from_word(["s1", "s2"])
    rot = subgroup_closure(b2, [r])
    klein = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "x"}),
        build_named("A1").relabel({"s1": "y"})))
    assert find_isomorphism(rot, klein) == []
    assert find_isomorphism(rot, rot)


def test_group_view_rejects_non_tables():
    with pytest.raises(ValueError):
        GroupView(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        GroupView([[0, 1], [0, 1]])  # two idempotents


def test_brink_howlett_on_a3(a3):
    # N(W_I) = W_I x| N_I with N_I the stabilizer of the simple roots.
    g = a3.graph
    for r in range(len(g.vertices) + 1):
        for subset in itertools.combinations(g.vertices, r):
            para = a3.parabolic(subset)
            n = normalizer(a3, para)
            ids = {a3.table.simple_root_id(s) for s in subset}
            ni = [a for a in a3.element_ids()
                  if {int(a3.perms[a][i]) for i in ids} == ids]
            assert len(ni) * len(para) == len(n)
            assert {a3.mult(a, b) for a in para.ids for b in ni} == n.ids


def test_untrusted_subgroup_rejected(a2):
    with pytest.raises(ValueError):
        a2.subgroup({0, a2.from_word(["s1", "s2"])})


def test_reflection_of_root_function(a2):
    from coxtools.engine import reflection_of_root
    rid = a2.table.root_id([1.0, 1.0])
    assert reflection_of_root(a2, rid) == a2.from_word(["s1", "s2", "s1"])


def test_enumerate_infinite_graph_rejected():
    from coxtools.errors import InfiniteTypeError
    from coxtools.graph import parse_graph
    with pytest.raises(InfiniteTypeError):
        enumerate_group(parse_graph("vertices: a b\nedge a b inf\n"))


def test_graph_isomorphism_vertex_cap():
    from coxtools.errors import CapExceededError
    from coxtools.graph import graph_isomorphisms
    big = CoxeterGraph([f"v{i}" for i in range(65)])
    with pytest.raises(CapExceededError):
        graph_isomorphisms(big, big)


# -- invariants of the element index and the batched primitive ------------------

# Catalog types up to H4 and the I2(m) grid the benchmark uses.
CATALOG = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
           "D4", "D5", "F4", "H3", "H4"] + \
    [f"I2({m})" for m in (8, 16, 31, 63, 125, 250, 500, 1000)]


def _pairs(G, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, len(G), count), rng.integers(0, len(G), count)


@pytest.mark.parametrize("name", CATALOG)
def test_mult_ids_and_generator_tables_match_scalar_mult(name):
    G = group_of(name)
    A, B = _pairs(G, 400, seed=len(G))
    assert G.mult_ids(A, B).tolist() == [G.mult(a, b) for a, b in zip(A, B)]
    rows = np.unique(np.concatenate([[0], A]))
    for k, s in enumerate(G.generators):
        assert G.right[rows, k].tolist() == [G.mult(a, s) for a in rows]
        assert G.left[rows, k].tolist() == [G.mult(s, a) for a in rows]


def test_mult_ids_broadcasts(b3):
    A = np.arange(len(b3))
    table = b3.mult_ids(A[:, None], A[None, :])
    assert table.shape == (len(b3), len(b3))
    assert table.tolist() == b3.mult_table().tolist()
    assert b3.mult_ids(5, 7) == b3.mult(5, 7)


def _reference_bfs(G):
    """Enumeration keyed by whole permutations, generators in vertex
    order: (perms, words, lengths) in discovery order."""
    gens = [G.table.generator_perm(s) for s in G.graph.vertices]
    perms = [np.arange(len(G.table), dtype=np.int32)]
    words = [()]
    seen = {perms[0].tobytes()}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for s, p in zip(G.graph.vertices, gens):
                q = perms[a][p]
                if q.tobytes() not in seen:
                    seen.add(q.tobytes())
                    perms.append(q)
                    words.append(words[a] + (s,))
                    nxt.append(len(perms) - 1)
        frontier = nxt
    return perms, words, [len(w) for w in words]


@pytest.mark.parametrize("name", ["A3", "B4", "D4", "H3", "F4", "I2(31)"])
def test_ids_words_lengths_match_full_permutation_bfs(name):
    G = group_of(name)
    perms, words, lengths = _reference_bfs(G)
    assert np.array_equal(G.perms, np.array(perms))
    assert [G.word(a) for a in G.element_ids()] == words
    assert G.lengths.tolist() == lengths


class _Reference:
    """Pure-Python group arithmetic on whole permutations, independent
    of the engine's element index."""

    def __init__(self, G):
        self.G = G
        self.index = {p.tobytes(): i for i, p in enumerate(G.perms)}
        self.ids = range(len(G))
        self.inverse = [self.index[np.argsort(p).astype(np.int32).tobytes()]
                        for p in G.perms]

    def mult(self, a, b):
        return self.index[self.G.perms[a][self.G.perms[b]].tobytes()]

    def inv(self, a):
        return self.inverse[a]

    def conj(self, g, x):
        return self.mult(self.mult(g, x), self.inv(g))

    def closure(self, gens):
        span, frontier = {0}, [0]
        while frontier:
            nxt = [self.mult(a, g) for a in frontier for g in gens]
            frontier = [b for b in set(nxt) if b not in span]
            span.update(frontier)
        return span

    def classes(self):
        out, done = [], set()
        for a in self.ids:
            if a not in done:
                cls = tuple(sorted({self.conj(g, a) for g in self.ids}))
                out.append(cls)
                done.update(cls)
        return out


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_structure_matches_pure_python(name):
    G = group_of(name)
    ref = _Reference(G)
    ids = list(ref.ids)
    assert all(ref.mult(a, ref.inv(a)) == 0 for a in ids)
    assert G.inverse_table().tolist() == [ref.inv(a) for a in ids]
    assert G.involutions() == [a for a in ids if a and ref.mult(a, a) == 0]
    assert G.mult_table().tolist() == [[ref.mult(a, b) for b in ids] for a in ids]
    assert G.conjugacy_classes() == ref.classes()
    assert G.center() == tuple(a for a in ids
                               if all(ref.mult(a, b) == ref.mult(b, a) for b in ids))
    rng = np.random.default_rng(7)
    for _ in range(4):
        gens = [int(x) for x in rng.choice(ids, 2)]
        H = subgroup_closure(G, gens)
        assert H.ids == ref.closure(gens)
        normal = ref.closure({ref.conj(g, x) for g in ids for x in gens})
        assert subgroup_closure(G, gens, normal=True).ids == normal
        assert centralizer(G, H.ids).ids == {
            a for a in ids if all(ref.mult(a, x) == ref.mult(x, a) for x in H.ids)}
        assert normalizer(G, H).ids == {
            a for a in ids if {ref.conj(a, h) for h in H.ids} == H.ids}
        assert core(G, H).ids == {
            h for h in H.ids if all(ref.conj(g, h) in H.ids for g in ids)}


@pytest.mark.parametrize("name", ["A4", "B3", "D4", "H3", "I2(8)"])
def test_richardson_witnesses_match_queue_bfs(name):
    from coxtools.deodhar import longest_element, sigma_is_identity
    from coxtools.graph import all_subsets
    from coxtools.structure import richardson_form

    G = group_of(name)
    for w in G.involutions():
        witness, queue = {w: 0}, [w]
        while queue:
            x = queue.pop(0)
            for s in G.generators:
                y = G.mult(G.mult(s, x), s)
                if y not in witness:
                    witness[y] = G.mult(s, witness[x])
                    queue.append(y)
        expected = next(
            (witness[w0], subset)
            for subset in all_subsets(G.graph) if subset
            for w0, sigma in [longest_element(G, subset)]
            if sigma_is_identity(sigma) and w0 in witness)
        assert richardson_form(G, w) == expected


def test_packed_key_overflow_uses_byte_keys():
    # (2P)^n = 28^14 > 2^63: the batched index sorts byte strings.
    g = CoxeterGraph.disjoint_union(
        *[build_named("A1").relabel({"s1": f"x{i}"}) for i in range(14)])
    G = enumerate_group(g, cap=20_000)
    assert len(G) == 16384 and G._radix is None
    A, B = _pairs(G, 2000, seed=3)
    assert G.mult_ids(A, B).tolist() == [G.mult(a, b) for a, b in zip(A, B)]
    assert G.left.tolist() == G.right.tolist()
    assert len(G.center()) == len(G)
    assert group_of("B3")._radix is not None


def test_index_rejects_non_members(b3):
    perm = b3.perms[5].copy()
    perm[[-1, -2]] = perm[[-2, -1]]   # same simple-root images, another permutation
    with pytest.raises(ValueError):
        b3.element_from_perm(perm)
    with pytest.raises(ValueError):
        b3._ids_of_heads(np.array([[0, 0, 0]], dtype=np.int32))


@pytest.mark.parametrize("name", ["A4", "B3", "D4", "H3", "I2(8)"])
def test_centralizers_match_scalar_commutation(name):
    G = group_of(name)
    ids = list(G.element_ids())

    def commuting(cands, xs):
        return {a for a in cands if all(G.mult(a, x) == G.mult(x, a) for x in xs)}

    r = G.generator(G.graph.vertices[-1])
    N = subgroup_closure(G, [r], normal=True)
    for xs in ([G.identity], [G.identity, r, G.identity], sorted(N.ids), [r, 0, r]):
        assert centralizer(G, xs).ids == commuting(ids, xs)
    for H in (N, G.parabolic(G.graph.vertices[:2]), G.trivial_subgroup()):
        assert H.center() == commuting(H.ids, H.ids)


@pytest.mark.parametrize("name", ["A3", "B4", "D4", "F4", "H3", "I2(8)"])
def test_parabolic_generators_are_the_greedy_generating_set(name):
    from coxtools.engine import _closure
    from coxtools.graph import all_subsets

    G = group_of(name)
    rng = np.random.default_rng(len(G))
    for subset in all_subsets(G.graph):
        greedy = _closure(G, sorted(G.parabolic(subset).ids))[1]
        shuffled = [subset[i] for i in rng.permutation(len(subset))]
        repeated = shuffled + shuffled[:1]
        for variant in (subset, shuffled, repeated):
            H = G.parabolic(variant)
            assert H.generating_set() == greedy
            assert H.ids == subgroup_closure(G, [G.generator(s) for s in variant]).ids
