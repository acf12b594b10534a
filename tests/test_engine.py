import itertools
import math

import numpy as np
import pytest

from coxtools.classify import TypeLabel, build_named, graph_order
from coxtools.engine import (
    EnumeratedGroup,
    GroupView,
    _as_view,
    _check_maps,
    _fill_plan,
    _Search,
    automorphism_count,
    centralizer,
    core,
    enumerate_group,
    find_isomorphism,
    normalizer,
    subgroup_closure,
)
from coxtools.errors import CapExceededError, VerificationError
from coxtools.graph import CoxeterGraph
from coxtools.hommonoid import hom_space
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
    assert s1 in plain and s2 not in plain
    assert plain == b2.subgroup({0, s1}) and len({plain, b2.subgroup({s1, 0})}) == 1
    assert not plain.is_normal() and normal.is_normal()


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


def _z4_by_z4_table(twisted):
    """Cayley table of Z4 x Z4, or of Z4 x| Z4 with y x y^-1 = x^-1,
    on ids 4i + j for x^i y^j."""
    i, j = np.divmod(np.arange(16), 4)
    sign = (-1) ** (j * twisted)
    return 4 * ((i[:, None] + sign[:, None] * i) % 4) + (j[:, None] + j) % 4


def test_find_isomorphism_rejects_equal_orders_with_other_class_sizes():
    v1, v2 = GroupView(_z4_by_z4_table(False)), GroupView(_z4_by_z4_table(True))
    assert np.array_equal(np.sort(v1.orders), np.sort(v2.orders))
    assert sorted(map(len, v1.conjugacy_classes())) != sorted(map(len, v2.conjugacy_classes()))
    assert _Search.of(v1, v2) is None
    assert find_isomorphism(v1, v2) == []


@pytest.mark.parametrize("name", ["A4", "B3", "D4", "H3", "I2(8)"])
def test_element_order_matches_the_view_orders(name):
    G = group_of(name)
    orders = GroupView.of_group(G).orders.tolist()
    assert [G.element_order(a) for a in G.element_ids()] == orders
    assert [G.element_order(a) for a in G.element_ids()] == orders


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


def test_isomorphism_search_names_its_limit_before_any_table():
    # W(A1 x A1 x F4) has order 4608, above the Cayley-table limit.
    G = enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "x"}), build_named("A1").relabel({"s1": "y"}),
        build_named("F4")))
    with pytest.raises(CapExceededError, match="order 4608 exceeds the cap 1200"):
        find_isomorphism(G, G)
    with pytest.raises(CapExceededError,
                       match="order 4608 exceeds the Cayley-table limit 4096"):
        find_isomorphism(G, G, all_maps=True, cap=10_000)
    assert G._mult_table is None
    with pytest.raises(CapExceededError,
                       match="order 4608 exceeds the Cayley-table limit 4096"):
        G.mult_table()


def test_group_view_rejects_non_tables():
    with pytest.raises(ValueError):
        GroupView(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        GroupView([[0, 1], [0, 1]])  # two idempotents


def test_group_view_rejects_a_table_that_is_not_a_group():
    # One idempotent, but the powers of element 1 never reach it.
    table = [[0, 1, 2], [1, 2, 1], [2, 1, 1]]
    with pytest.raises(ValueError, match="not a group"):
        GroupView(table).orders
    with pytest.raises(ValueError, match="not a group"):
        v = GroupView(table)
        find_isomorphism(v, v)


@pytest.mark.parametrize("table,failure", [
    # Accepted once, with |Aut| = 4 and non-bijections among its "isomorphisms".
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "not a Latin square"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "not a Latin square"),
    # x y = -x - y mod 3: a Latin square with no identity row.
    ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], "no two-sided identity"),
    # A loop of order 5: (1 1) 2 = 2 but 1 (1 2) = 4.
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
     "not associative"),
], ids=["magma", "columns", "no-identity", "loop"])
def test_group_view_rejects_what_is_not_a_group_at_construction(table, failure):
    with pytest.raises(ValueError, match=f"not a group: it (is|has) {failure}"):
        GroupView(table)


def test_group_view_accepts_a_group_with_its_identity_anywhere():
    # Z/3 relabelled so that the identity is 2.
    v = GroupView([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert v.identity == 2 and v.orders.tolist() == [3, 3, 1]
    assert automorphism_count(v) == 2


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


@pytest.mark.parametrize("ids", [{0, -1}, {0, 48}])
@pytest.mark.parametrize("verified", [False, True])
def test_subgroup_rejects_ids_outside_the_group(b3, ids, verified):
    with pytest.raises(ValueError, match=r"outside the range \[0, 48\)"):
        b3.subgroup(ids, verified=verified)


@pytest.mark.parametrize("bad", [-1, 48])
def test_subgroup_closure_rejects_ids_outside_the_group(b3, bad):
    # -1 would otherwise be read as w0 (id 47): the closure {0, 47}.
    with pytest.raises(ValueError, match=rf"element id {bad} outside the range \[0, 48\)"):
        subgroup_closure(b3, [bad])


@pytest.mark.parametrize("bad", [-47, 48])
def test_centralizer_rejects_ids_outside_the_group(b3, bad):
    # -47 would otherwise be read as s1 (id 1), whose centralizer has order 16.
    with pytest.raises(ValueError, match=rf"element id {bad} outside the range \[0, 48\)"):
        centralizer(b3, [1, bad])
    with pytest.raises(ValueError, match=rf"element id {bad} outside the range \[0, 48\)"):
        b3.check_ids(np.array([1, bad], dtype=np.intp))


def test_from_word_names_an_unknown_generator(b3):
    with pytest.raises(ValueError, match="unknown generator 'zz'"):
        b3.from_word(["s1", "zz"])


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


@pytest.mark.parametrize("name", ["A3", "B3", "B4", "D4", "H3", "F4", "I2(31)", "I2(63)"])
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
        self.inverse = [self.index[np.argsort(p).astype(G.perms.dtype).tobytes()]
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


@pytest.mark.parametrize("names", [
    ("A1",), ("A3",), ("B3",), ("B4",), ("D4",), ("D5",), ("F4",), ("H3",), ("H4",),
    ("I2(8)",), ("I2(9)",), ("I2(1000)",), ("A1",) * 5, ("B3", "A2"), ("I2(6)", "A1"),
], ids="x".join)
def test_center_read_off_the_heads_is_where_right_equals_left(names):
    # Z(W) by its definition: z s_k = s_k z for every simple generator.
    G = group_of(names[0]) if len(names) == 1 else _product(*names)
    center = G.center()
    assert center == tuple(np.flatnonzero((G.right == G.left).all(axis=1)).tolist())


def test_center_and_normality_build_neither_left_nor_inverses():
    G = enumerate_group(build_named("H4"), cap=20_000)
    assert G.center() == (0, len(G) - 1)
    assert G.subgroup(G.center(), verified=True).is_normal()
    assert G.whole().is_normal()
    assert not G.parabolic(["s1", "s2"]).is_normal()
    assert G._left is None and G._inverses is None


def test_centralizer_takes_its_ids_as_any_iterable(b3):
    r, w0 = b3.generator("s3"), len(b3) - 1  # w0, central, is the last id
    expected = {a for a in b3.element_ids() if b3.mult(a, r) == b3.mult(r, a)}
    xs = [r, 0, w0, r, 0]
    for ids in (xs, frozenset(xs), np.array(xs, dtype=np.intp), iter(xs)):
        assert centralizer(b3, ids).ids == expected


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


def _a1_14():
    return enumerate_group(CoxeterGraph.disjoint_union(
        *[build_named("A1").relabel({"s1": f"x{i}"}) for i in range(14)]), cap=20_000)


@pytest.mark.parametrize("name", ["B3", "H3", "I2(8)", "A1^14"])
def test_mult_ids_of_three_factors_matches_nested_mult(name):
    G = _a1_14() if name == "A1^14" else group_of(name)
    rng = np.random.default_rng(len(G))
    A, B, C = rng.integers(0, len(G), (3, 500))
    expected = [G.mult(G.mult(a, b), c) for a, b, c in zip(A, B, C)]
    assert G.mult_ids(A, B, C).tolist() == expected
    # Broadcast over a 3 x 4 x 5 grid of (a, b, c).
    grid = G.mult_ids(A[:3, None, None], B[None, :4, None], C[None, None, :5])
    assert grid.tolist() == [[[G.mult(G.mult(a, b), c) for c in C[:5]] for b in B[:4]]
                             for a in A[:3]]


@pytest.mark.parametrize("name", ["B3", "I2(8)"])
def test_commutation_looks_nothing_up(name, monkeypatch):
    G = group_of(name)
    ids = list(G.element_ids())
    H = subgroup_closure(G, [G.generator(G.graph.vertices[-1])], normal=True)
    expected = {a for a in ids if all(G.mult(a, x) == G.mult(x, a) for x in H.ids)}
    gens = H.generating_set()  # the greedy choice looks ids up; take it first

    def refuse(heads):
        raise AssertionError("index lookup")

    monkeypatch.setattr(G, "_ids_of_heads", refuse)
    assert centralizer(G, H.ids).ids == expected
    assert H.center() == expected & H.ids
    assert H.is_abelian() == all(G.mult(a, b) == G.mult(b, a) for a in gens for b in gens)


def _counting(G, monkeypatch):
    """Record (calls, products) of every mult_ids call on G."""
    seen = [0, 0]
    inner = G.mult_ids

    def counted(*factors):
        out = inner(*factors)
        seen[0] += 1
        seen[1] += out.size
        return out

    monkeypatch.setattr(G, "mult_ids", counted)
    return seen


def test_dihedral_closures_take_logarithmically_many_rounds(monkeypatch):
    G = group_of("I2(500)")
    G.conjugacy_classes()
    seen = _counting(G, monkeypatch)
    for close in (lambda: subgroup_closure(G, [G.generator("s1")], normal=True),
                  lambda: G.parabolic(G.graph.vertices)):
        seen[0] = 0
        H = close()
        assert seen[0] <= 2 * np.log2(len(H)) + 4, (len(H), seen[0])
    assert len(H) == len(G)


@pytest.mark.parametrize("name", ["H4", "A6"])
def test_wide_closures_take_no_extra_products(name, monkeypatch):
    from coxtools.engine import _closure

    G = group_of(name)
    reflections = G.conjugacy_classes()[G.class_of(G.generator(G.graph.vertices[-1]))]
    seen = _counting(G, monkeypatch)
    for gens in (reflections, G.generators):
        seen[1] = 0
        span, used = _closure(G, gens)
        assert seen[1] <= 1.05 * np.count_nonzero(span) * len(used)


def _cayley_table(G):
    """G's Cayley table from its root permutations alone: (ab)(r) =
    a(b(r)), each product found by a hash of its whole permutation and
    then compared with the permutation found, root by root."""
    weights = np.random.default_rng(0).integers(1, 1 << 62, G.perms.shape[1])
    keys = G.perms @ weights
    order = keys.argsort()
    table = np.empty((len(G), len(G)), dtype=np.intp)
    for a, pa in enumerate(G.perms):
        products = pa[G.perms]
        table[a] = order[keys[order].searchsorted(products @ weights)]
        assert (G.perms[table[a]] == products).all()
    return table


def _a1_times(name):
    return enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named(name)))


@pytest.mark.parametrize("source,target,all_maps,count", [
    (lambda: _a1_times("A2"), None, True, 12),
    (lambda: group_of("D4"), None, True, 1152),
    (lambda: group_of("B4"), None, True, 768),
    (lambda: group_of("F4"), None, False, 1),
    (lambda: group_of("B3"), lambda: _a1_times("A3"), False, 1),
], ids=["A1xA2", "D4", "B4", "F4", "B3->A1xA3"])
def test_found_isomorphisms_respect_every_product(source, target, all_maps, count):
    # The search verifies generator cells only; every map it returns is
    # checked here on all pairs, on both sides of order 256, and with
    # all_maps the counts are |Aut|.
    G1 = source()
    G2 = G1 if target is None else target()
    maps = find_isomorphism(G1, G2, all_maps=all_maps)
    assert len(maps) == count
    T1 = _cayley_table(G1)
    T2 = T1 if G2 is G1 else _cayley_table(G2)
    for f in np.array(maps):
        assert sorted(f) == list(range(len(G2)))
        assert (f[T1] == T2[f[:, None], f]).all()


def _reference_isomorphisms(G1, G2):
    """Every isomorphism G1 -> G2 by the exhaustive depth-first search
    over generator images that ``find_isomorphism`` ran before its
    stabilizer chain: each complete assignment is filled and verified,
    one leaf at a time, and the maps come out in depth-first order."""
    v1 = _as_view(G1)
    v2 = v1 if G2 is G1 else _as_view(G2)
    T1, T2, ord1, ord2 = v1.table, v2.table, v1.orders, v2.orders
    if len(v1) != len(v2) or not np.array_equal(np.sort(ord1), np.sort(ord2)):
        return []
    csize1, csize2 = v1.class_sizes(), v2.class_sizes()
    sig1 = sorted((len(c), int(ord1[c[0]])) for c in v1.conjugacy_classes())
    sig2 = sorted((len(c), int(ord2[c[0]])) for c in v2.conjugacy_classes())
    if sig1 != sig2:
        return []
    gens = v1.generating_set()
    candidates = [np.flatnonzero((ord2 == ord1[g]) & (csize2 == csize1[g])) for g in gens]
    if any(len(c) == 0 for c in candidates):
        return []
    order = sorted(range(len(gens)), key=lambda i: len(candidates[i]))
    gens = np.array([gens[i] for i in order], dtype=np.intp)
    candidates = [candidates[i] for i in order]
    pair_orders = ord1[T1[gens[:, None], gens[None, :]]]
    plan = _fill_plan(v1, gens)
    gen_cols = T1[:, gens]
    found, images, untried = [], [], []

    def verify(assign):
        fa = np.empty(v1.size, dtype=np.int32)
        fa[gens] = assign
        fa[v1.identity] = v2.identity
        for xs, a, b in plan:
            fa[xs] = T2[fa[a], fa[b]]
        if not (fa.take(gen_cols) == T2.take(assign, axis=1).take(fa, axis=0)).all():
            return None
        if np.count_nonzero(fa == v2.identity) != 1:
            return None
        return fa.tolist()

    def images_for(k):
        cands = candidates[k]
        for j in range(k):
            cands = cands[ord2[T2[cands, images[j]]] == pair_orders[k, j]]
        return cands[::-1].tolist()

    while True:
        if len(images) < len(gens):
            untried.append(images_for(len(images)))
        else:
            f = verify(np.array(images, dtype=np.intp))
            if f is not None:
                found.append(f)
        while untried and not untried[-1]:
            untried.pop()
        if not untried:
            return found
        del images[len(untried) - 1:]
        images.append(untried[-1].pop())


def _product(*names):
    parts = [build_named(n) for n in names]
    return enumerate_group(CoxeterGraph.disjoint_union(
        *(g.relabel({v: f"c{i}_{v}" for v in g.vertices}) for i, g in enumerate(parts))))


SELF_PAIRS = [("A3",), ("B3",), ("A1", "A2"), ("D4",), ("B4",), ("H3",), ("A4",), ("I2(8)",),
              ("A1", "A1", "A2"), ("I2(6)", "A1"), ("A1", "B3"), ("B2", "I2(6)"), ("A1",) * 4]
CROSS_PAIRS = [(("B3",), ("A1", "A3"), 48), (("I2(6)", "A1"), ("A1", "A1", "A2"), 144),
               (("I2(10)",), ("A1", "I2(5)"), 40)]


@pytest.mark.parametrize("names", SELF_PAIRS, ids=["x".join(n) for n in SELF_PAIRS])
def test_all_maps_and_count_match_the_exhaustive_search_on_self_pairs(names):
    G = _product(*names)
    reference = _reference_isomorphisms(G, G)
    assert find_isomorphism(G, G, all_maps=True) == reference
    assert find_isomorphism(G, G) == reference[:1]
    assert automorphism_count(G) == len(reference)


@pytest.mark.parametrize("source,target,count", CROSS_PAIRS,
                         ids=["x".join(a) + "->" + "x".join(b) for a, b, _ in CROSS_PAIRS])
def test_all_maps_and_count_match_the_exhaustive_search_on_cross_pairs(source, target, count):
    G1, G2 = _product(*source), _product(*target)
    reference = _reference_isomorphisms(G1, G2)
    assert len(reference) == count
    assert find_isomorphism(G1, G2, all_maps=True) == reference
    assert find_isomorphism(G1, G2) == reference[:1]
    assert find_isomorphism(G2, G1, all_maps=True) == _reference_isomorphisms(G2, G1)
    assert automorphism_count(G1) == automorphism_count(G2) == count


def test_all_maps_on_a_trivial_group_lists_the_one_map():
    # The trivial group has no generators, so no generator image keys
    # the listed maps.  W(A1)'s even subgroup is trivial too, and so is
    # the group of the empty graph, which enumerates as order 1.
    G = group_of("A1")
    E = EnumeratedGroup(CoxeterGraph([], []))
    assert (len(E), E.generators, E.word(0), E.center()) == (1, [], (), (0,))
    assert hom_space(E).c == 0
    for T in (G.trivial_subgroup(), G.subgroup(np.flatnonzero(G.lengths % 2 == 0).tolist()), E):
        assert len(T) == 1
        assert find_isomorphism(T, T, all_maps=True) == find_isomorphism(T, T) == [[0]]
        assert automorphism_count(T) == 1


def test_count_matches_the_exhaustive_search_on_the_aut_suite_groups():
    # The Sym-product groups below order 1200 whose |Aut| the aut suite
    # counts (trivial Sym1 factors dropped), and its budget groups.
    from coxtools.suites import _multiset_graph, _sym_product_cases

    label_sets = {tuple(TypeLabel("A", n - 1) for n, mult in enumerate(m, start=1) if n >= 2
                        for _ in range(mult))
                  for m in _sym_product_cases(max_group=800, max_aut=21_000)}
    label_sets |= {(TypeLabel("A", 1), TypeLabel("A", 2)), (TypeLabel("A", 2),) * 2,
                   (TypeLabel("A", 1),) * 3,
                   (TypeLabel("A", 1), TypeLabel("A", 2), TypeLabel("A", 2))}
    for labels in sorted(label_sets, key=str):
        G = enumerate_group(_multiset_graph(labels), cap=1200)
        assert automorphism_count(G) == len(_reference_isomorphisms(G, G)), labels


def test_count_on_f4_and_on_w_a1_to_the_fifth():
    assert automorphism_count(group_of("F4")) == 4608
    # W(A1)^5 is F2^5, so Aut is GL_5(F2).
    G = _product(*("A1",) * 5)
    assert automorphism_count(G) == math.prod(2 ** 5 - 2 ** i for i in range(5))


def test_listing_is_bounded_before_it_composes():
    G = _product(*("A1",) * 5)
    with pytest.raises(CapExceededError,
                       match="listing 9999360 automorphisms of order 32 exceeds the limit 16777216"):
        find_isomorphism(G, G, all_maps=True)


@pytest.mark.parametrize("names", [("D4",), ("A1", "B3"), ("B2", "I2(6)")],
                         ids=["D4", "A1xB3", "B2xI2(6)"])
def test_transversals_form_a_stabilizer_chain(names):
    G = _product(*names)
    search = _Search.of(_as_view(G), _as_view(G))
    gens = search.gens.tolist()
    chain = search.transversals()
    T = search.v1.table
    for i, maps in enumerate(chain):
        # Automorphisms fixing gens[:i], one per image of gens[i], the
        # identity among them.
        assert (maps[:, gens[:i]] == gens[:i]).all()
        assert len(set(maps[:, gens[i]].tolist())) == len(maps)
        assert any((f == np.arange(len(G))).all() for f in maps)
        for f in maps:
            assert (f[T] == T[f[:, None], f]).all()
    assert math.prod(map(len, chain)) == len(_reference_isomorphisms(G, G))


def test_listing_check_rejects_what_verify_rejects():
    G = _product("A1", "A2")
    search = _Search.of(_as_view(G), _as_view(G))
    maps = np.array(find_isomorphism(G, G, all_maps=True), dtype=np.int32)
    _check_maps(search, maps)
    swapped = maps.copy()
    swapped[3, [1, 2]] = swapped[3, [2, 1]]
    with pytest.raises(VerificationError, match="not a homomorphism"):
        _check_maps(search, swapped)
    # The trivial map passes every (element, generator) cell.
    with pytest.raises(VerificationError, match="nontrivial kernel"):
        _check_maps(search, np.zeros((1, len(G)), dtype=np.int32))


def _depths(view, gens):
    """Word length of every element over ``gens``, by a scalar BFS."""
    depth, frontier = {view.identity: 0}, [view.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(view.table[x, g])
                if y not in depth:
                    depth[y] = depth[x] + 1
                    nxt.append(y)
        frontier = nxt
    return [depth[x] for x in range(len(view))]


def _h3_rotations():
    G = group_of("H3")
    return G.subgroup(np.flatnonzero(G.lengths % 2 == 0)).as_view()


@pytest.mark.parametrize("name", ["A1", "A4", "B3", "D4", "F4", "H3", "I2(63)", "I2(500)", "H3+"])
def test_fill_plan_rounds_use_only_what_earlier_rounds_fixed(name):
    view = _h3_rotations() if name == "H3+" else GroupView.of_group(group_of(name))
    gens = np.array(view.generating_set(), dtype=np.intp)
    depth = _depths(view, gens.tolist())
    plan = _fill_plan(view, gens)
    fixed = {view.identity, *gens.tolist()}
    for xs, a, b in plan:
        assert set(a.tolist()) <= fixed and set(b.tolist()) <= fixed
        assert (view.table[a, b] == xs).all()
        fixed.update(xs.tolist())
    assert fixed == set(range(len(view)))
    assert len(plan) == math.ceil(math.log2(max(depth)))


def test_mult_ids_above_batch_matches_row_by_row_products():
    from coxtools.engine import BATCH
    G = group_of("B4")
    rng = np.random.default_rng(11)
    A, B = rng.integers(0, len(G), (2, 64))
    # A strided C, so the blocks read a non-contiguous array.
    C = rng.integers(0, len(G), (24, 2))[:, 0]
    grid = (A[:, None, None], B[None, :, None], C[None, None, :])
    assert 64 * 64 * 24 > BATCH
    rows = np.array([G.mult_ids(a, B[:, None], C[None, :]) for a in A])
    assert np.array_equal(G.mult_ids(*grid), rows)
    assert G.mult_ids(*grid).dtype == rows.dtype
    # One row above BATCH: the grid goes row by row, each row in blocks.
    wide = rng.integers(0, len(G), 40000)
    assert np.array_equal(G.mult_ids(A[:2, None], wide, C[:1]),
                          [G.mult_ids(a, wide[:20000], C[0]).tolist()
                           + G.mult_ids(a, wide[20000:], C[0]).tolist() for a in A[:2]])


def _brute_order(G, a):
    k, x = 1, a
    while x != G.identity:
        x, k = G.mult(x, a), k + 1
    return k


@pytest.mark.parametrize("name", [n for n in CATALOG if graph_order(build_named(n)) <= 1152])
def test_element_order_matches_a_power_loop_on_every_element(name):
    G = group_of(name)
    expected = [_brute_order(G, a) for a in G.element_ids()]
    assert [G.element_order(a) for a in G.element_ids()] == expected
    assert [G.element_order(a) for a in G.element_ids()] == expected


@pytest.mark.parametrize("name", ["H4", "I2(1000)"])
def test_element_order_matches_a_power_loop_on_seeded_elements(name):
    G = group_of(name)
    ids = np.random.default_rng(len(G)).integers(0, len(G), 300).tolist()
    expected = [_brute_order(G, a) for a in ids]
    assert [G.element_order(a) for a in ids] == expected
    assert [G.element_order(a) for a in ids] == expected


@pytest.mark.parametrize("names", [("B3",), ("H3",), ("F4",), ("I2(63)",), ("A1", "B2")],
                         ids="x".join)
def test_scalar_methods_match_the_batched_tables_on_every_element(names):
    G = group_of(names[0]) if len(names) == 1 else _product(*names)
    ids = np.arange(len(G))
    others = np.random.default_rng(len(G)).permutation(len(G))
    inv = G.inverse_table()
    words = [G.word(a) for a in ids.tolist()]
    found = [G.from_word(w) for w in words]
    assert found == ids.tolist()
    pairs = list(zip(ids.tolist(), others.tolist()))
    products = [G.mult(a, b) for a, b in pairs]
    assert products == G.mult_ids(ids, others).tolist()
    conjugates = [G.conj(a, b) for a, b in pairs]
    assert conjugates == G.mult_ids(ids, others, inv).tolist()
    inverses = [G.inv(a) for a in ids.tolist()]
    assert inverses == inv.tolist()
    lengths = [G.length(a) for a in ids.tolist()]
    assert lengths == G.lengths.tolist() == [len(w) for w in words]
    values = [*found, *products, *conjugates, *inverses, *lengths]
    assert all(type(v) is int for v in values)


TABLE_READ_GROUPS = ["B3", "H3", "F4", "I2(63)", "A1xB2"]


def _table_read_group(name):
    return _a1_times("B2") if name == "A1xB2" else group_of(name)


@pytest.mark.parametrize("name", TABLE_READ_GROUPS)
def test_products_by_simple_generators_match_heads_and_lookup(name):
    G = _table_read_group(name)
    ids, gens = np.arange(len(G)), np.array(G.generators)
    assert gens.tolist() == list(range(1, len(gens) + 1))
    expected = G._ids_of_heads(G.heads_of(ids[:, None], gens))
    assert np.array_equal(G.mult_ids(ids[:, None], gens), expected)
    for k, g in enumerate(G.generators):
        assert np.array_equal(G.mult_ids(ids, g), expected[:, k])
        assert G.mult_ids(ids[5 % len(G)], g) == expected[5 % len(G), k]


def _subsets(G, proper=True):
    vs = G.graph.vertices
    return [c for r in range(len(vs) + (not proper)) for c in itertools.combinations(vs, r)]


NORMALIZER_GROUPS = [
    *[(name,) for name in ["B3", "H3", "A4", "B4", "D4", "F4", "H4", "A6", "B5", "D5",
                           "I2(8)", "I2(63)", "I2(1000)"]],
    ("A1", "A3"), ("I2(6)", "A2"), ("B2", "B2"), ("A1", "A1", "B3"), ("H3", "A1"), ("D4", "A1"),
]


def _conjugation_filter(G, H):
    ids, inv = np.arange(len(G)), G.inverse_table()
    gens = np.array(H.generating_set(), dtype=np.intp)
    keep = H.mask()[G.mult_ids(ids[:, None], gens, inv[:, None])].all(axis=1)
    return set(np.flatnonzero(keep).tolist())


@pytest.mark.parametrize("names", NORMALIZER_GROUPS, ids="x".join)
def test_normalizers_of_parabolics_match_the_conjugation_filter(names):
    # Every subset, the empty one and S included.  A parabolic's
    # normalizer is read off root supports; the filter multiplies.
    G = group_of(names[0]) if len(names) == 1 else _product(*names)
    for subset in _subsets(G, proper=False):
        H = G.parabolic(subset)
        assert normalizer(G, H).ids == _conjugation_filter(G, H), subset


@pytest.mark.parametrize("name", ["A3", "B3", "D4"])
def test_normalizer_of_a_nonparabolic_subgroup_matches_the_conjugation_filter(name):
    # <s1, s2 s3 s2> has a generator that is not simple, so its
    # normalizer takes the mult_ids filter.
    G = group_of(name)
    H = subgroup_closure(G, [G.generator("s1"), G.from_word(["s2", "s3", "s2"])])
    assert max(H.generating_set()) > len(G.generators)
    assert normalizer(G, H).ids == _conjugation_filter(G, H)


def _refuse_lookups(G, monkeypatch):
    def refuse(heads):
        raise AssertionError("index lookup")

    monkeypatch.setattr(G, "_ids_of_heads", refuse)


def test_parabolics_of_h3_look_nothing_up(monkeypatch):
    G = enumerate_group(build_named("H3"))
    expected = {I: len(group_of("H3").parabolic(I)) for I in _subsets(G, proper=False)}
    _refuse_lookups(G, monkeypatch)
    assert {I: len(G.parabolic(I)) for I in expected} == expected
    assert expected[()] == 1 and expected[("s1", "s2")] == 10 and expected[("s1", "s2", "s3")] == 120


@pytest.mark.parametrize("name", ["B3", "H3", "D4", "H4"])
def test_normalizers_of_parabolics_look_nothing_up(name, monkeypatch):
    # On a fresh group: no lookup, and neither left nor gen_conj filled.
    G = enumerate_group(build_named(name), cap=20_000)
    expected = {I: normalizer(group_of(name), group_of(name).parabolic(I)).ids
                for I in _subsets(G, proper=False)}
    parabolics = {I: G.parabolic(I) for I in expected}
    _refuse_lookups(G, monkeypatch)
    assert {I: normalizer(G, H).ids for I, H in parabolics.items()} == expected
    assert G._left is None and G._gen_conj is None


@pytest.mark.parametrize("other", [lambda: _a1_times("A3"), lambda: group_of("A2")],
                         ids=["same order", "other order"])
def test_normalizer_and_core_reject_a_subgroup_of_another_group(b3, other):
    H = other().parabolic(["s1"])
    for op in (normalizer, core):
        with pytest.raises(ValueError, match="belongs to another group"):
            op(b3, H)
