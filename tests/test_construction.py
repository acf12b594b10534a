"""Construction against independent references: the root table against
a matrix BFS that closes the simple roots under the reflection matrices,
its lookups and reflections against a brute-force nearest-root search,
and the group against a queue BFS keyed by whole permutations."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coxtools import classify, engine
from coxtools.classify import build_named, classify_components
from coxtools.engine import EnumeratedGroup
from coxtools.errors import RootLookupError
from coxtools.graph import CoxeterGraph
from coxtools.rootspace import (
    ROOT_TOLERANCE,
    SEPARATION_GUARD,
    bilinear_form,
    check_separation,
    enumerate_roots,
    reflection_matrix,
)

CATALOG = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
           "D4", "D5", "F4", "H3", "H4"] + [f"I2({m})" for m in range(5, 15)]
ROOT_ONLY = ["E6", "E7", "E8", "A8", "B8", "D8"]
I2_GRID = [f"I2({m})" for m in (8, 16, 31, 63, 125, 250, 500, 1000)]
A1_14 = "A1^14"
# Products with a dihedral chain factor: their levels narrow and widen.
PRODUCTS = ["A1xI2(63)", "B3xI2(125)", "I2(5)xI2(31)xA2"]
GROUPS = CATALOG + I2_GRID + [A1_14] + PRODUCTS


def _graph(name):
    if name == A1_14:
        return CoxeterGraph.disjoint_union(
            *[build_named("A1").relabel({"s1": f"x{i}"}) for i in range(14)])
    if "x" in name:
        factors = [build_named(f) for f in name.split("x")]
        return CoxeterGraph.disjoint_union(
            *[f.relabel({v: f"f{i}{v}" for v in f.vertices}) for i, f in enumerate(factors)])
    return build_named(name)


def _reference_roots(g):
    """Positive roots in discovery order: each round applies every
    reflection matrix (generator-major) to the roots found in the round
    before, and keeps the positive images not seen yet."""
    B = bilinear_form(g)
    mats = [reflection_matrix(g, s, B) for s in g.vertices]
    found = list(np.eye(len(g)))
    frontier = list(found)
    while frontier:
        fresh = []
        for M in mats:
            for v in frontier:
                w = M @ v
                if w[np.abs(w).argmax()] < 0:
                    continue
                if np.abs(np.array(found + fresh) - w).max(axis=1).min() < 1e-6:
                    continue
                fresh.append(w)
        found += fresh
        frontier = fresh
    return np.array(found)


def _merged_roots(g):
    """The root BFS merging every level: each level's up-moves are sorted
    by fingerprint and neighbours within the guard joined.  The positive
    roots and the generator permutations on all roots."""
    n = len(g)
    B = bilinear_form(g)
    weights = 1.0 / (np.arange(n) + np.pi)
    reflect = np.hstack([reflection_matrix(g, s, B).T for s in g.vertices])
    roots, perms = [np.eye(n)], np.tile(np.arange(2 * n), (n, 1))
    edges, lo, hi = [], 0, n
    while True:
        level = roots[-1]
        gens, src = ((level @ B).T < -SEPARATION_GUARD).nonzero()
        if not len(src):
            break
        cand = (level @ reflect).reshape(-1, n)[src * n + gens]
        order = (cand @ weights).argsort(kind="stable")
        ranked = cand[order]
        step = ranked[1:] - ranked[:-1]
        fresh = np.ones(len(src), dtype=bool)
        fresh[1:] = (step * step).sum(axis=1) > SEPARATION_GUARD ** 2
        first = np.minimum.reduceat(order, fresh.nonzero()[0])
        new = np.sort(first)
        dst = np.empty(len(src), dtype=np.intp)
        dst[order] = new.searchsorted(first)[fresh.cumsum() - 1] + hi
        roots.append(cand[new])
        edges.append((gens, src + lo, dst))
        lo, hi = hi, hi + len(new)
    P = hi
    perms = np.tile(np.arange(2 * P), (n, 1))
    for gens, src, dst in edges:
        perms[gens, src] = dst
        perms[gens, dst] = src
    perms[np.arange(n), np.arange(n)] = np.arange(n) + P
    perms[:, P:] = (perms[:, :P] + P) % (2 * P)
    return np.concatenate(roots), perms


def _looked_up_perms(table):
    """Each generator's action on root ids by brute-force nearest-root
    search of the reflected coordinates."""
    g = table.graph
    return [_brute_nearest(table.roots, table.roots @ reflection_matrix(g, s, table.form).T)[0]
            for s in g.vertices]


def _reference_group(perms):
    """Queue BFS keyed by whole permutations, generators in order: the
    permutations, (parent, generator) pairs, right multiples and lengths
    in discovery order."""
    elements = [np.arange(len(perms[0]), dtype=np.int32)]
    index = {elements[0].tobytes(): 0}
    preds, lengths, right = [(-1, -1)], [0], []
    a = 0
    while a < len(elements):
        for k, p in enumerate(perms):
            q = elements[a][p]
            b = index.setdefault(q.tobytes(), len(elements))
            if b == len(elements):
                elements.append(q)
                preds.append((a, k))
                lengths.append(lengths[a] + 1)
            right.append(b)
        a += 1
    return np.array(elements), preds, np.array(right).reshape(-1, len(perms)), lengths


@pytest.mark.parametrize("name", CATALOG + ROOT_ONLY + I2_GRID + [A1_14])
def test_roots_and_generator_perms_match_references(name):
    g = _graph(name)
    table = enumerate_roots(g)
    P = table.n_positive
    reference = _reference_roots(g)
    assert reference.shape == (P, len(g))
    assert np.abs(table.roots[:P] - reference).max() < 1e-9
    assert np.array_equal(table.roots[P:], -table.roots[:P])
    ids = np.arange(len(table))
    for s, looked_up in zip(g.vertices, _looked_up_perms(table)):
        perm = table.generator_perm(s)
        assert perm.tolist() == looked_up.tolist()
        assert np.array_equal(perm[perm], ids)


@pytest.mark.parametrize("name", CATALOG + ROOT_ONLY + I2_GRID + [A1_14])
def test_root_bfs_matches_merging_every_level(name):
    # A level skips the merge when no candidate has two down-moves.  A3,
    # D4, H4 and E8 merge on some levels, odd I2(m) once at its top.
    table = enumerate_roots(_graph(name))
    roots, perms = _merged_roots(table.graph)
    P = table.n_positive
    assert np.array_equal(table.roots[:P], roots)
    assert np.array_equal(table._gen_perms, perms)


def _brute_nearest(roots, queries):
    """Id of and distance to the nearest root of every query, over all
    roots; a root's own row is skipped when queries are the roots."""
    ids = np.empty(len(queries), dtype=np.intp)
    dist = np.empty(len(queries))
    for lo in range(0, len(queries), 256):
        d = np.linalg.norm(queries[lo:lo + 256, None, :] - roots[None], axis=2)
        if queries is roots:
            d[np.arange(len(d)), np.arange(lo, lo + len(d))] = np.inf
        ids[lo:lo + 256] = d.argmin(axis=1)
        dist[lo:lo + 256] = d.min(axis=1)
    return ids, dist


def _reflection_perms(table):
    """The reflection along every root as a permutation of root ids,
    from the generator permutations alone: s along s_k b is s_k s_b s_k."""
    gens = [table.generator_perm(s) for s in table.graph.vertices]
    perms = dict(enumerate(gens))
    frontier = list(perms)
    while frontier:
        fresh = []
        for b in frontier:
            for p in gens:
                c = int(p[b])
                if c not in perms:
                    perms[c] = p[perms[b][p]]
                    fresh.append(c)
        frontier = fresh
    return perms


@pytest.mark.parametrize("name", CATALOG + ROOT_ONLY + I2_GRID + [A1_14])
def test_root_lookups_match_brute_force(name):
    table = enumerate_roots(_graph(name))
    roots = table.roots
    rng = np.random.default_rng(len(roots))
    unit = rng.normal(size=roots.shape)
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    near = roots + 0.49 * ROOT_TOLERANCE * unit
    ids, _ = _brute_nearest(roots, near)
    assert [table.root_id(v) for v in near] == ids.tolist()
    # A miss names the true distance to the nearest root.
    far = roots[-1] + 2 * ROOT_TOLERANCE * unit[-1]
    _, dist = _brute_nearest(roots, far[None])
    with pytest.raises(RootLookupError, match=re.escape(f"is {dist[0]:.3e} from the nearest")):
        table.root_id(far)


@pytest.mark.parametrize("name", CATALOG + ROOT_ONLY + I2_GRID + [A1_14])
def test_reflection_perms_match_brute_force(name):
    # Distinct roots lie more than SEPARATION_GUARD apart (brute force),
    # so an image within half of it of the exact root r_j has r_j as its
    # nearest root: the exact permutation then is the brute-force answer.
    table = enumerate_roots(_graph(name))
    roots = table.roots
    assert _brute_nearest(roots, roots)[1].min() > SEPARATION_GUARD
    exact_perms = _reflection_perms(table)
    assert sorted(exact_perms) == list(range(len(roots)))
    for rid, exact in exact_perms.items():
        gamma = roots[rid]
        images = roots - 2.0 * np.outer(roots @ table.form @ gamma, gamma)
        assert np.linalg.norm(images - roots[exact], axis=1).max() < SEPARATION_GUARD / 2
        assert table.reflection_perm(rid).tolist() == exact.tolist()
    for rid in (-1, len(roots)):
        with pytest.raises(IndexError, match="root id"):
            table.reflection_perm(rid)


def test_separation_guard_scans_past_fingerprint_collisions():
    # p and q lie far apart with fingerprints 1e-8 apart, so the scan
    # compares them; r sits 1e-7 from p, beyond q in fingerprint order.
    p = [1.0, 0.0]
    q = [0.0, (1 + np.pi) * (1 / np.pi + 1e-8)]
    r = [1.0 + 1e-7, 0.0]
    weights = 1.0 / (np.arange(2) + np.pi)
    assert np.ptp(np.array([p, q]) @ weights) < np.linalg.norm(weights) * SEPARATION_GUARD
    with pytest.raises(RootLookupError, match="near-duplicate"):
        check_separation(np.array([p, q, r]))
    check_separation(np.array([p, q, [1.0 + 2 * SEPARATION_GUARD, 0.0]]))


@pytest.mark.parametrize("name", GROUPS)
def test_group_matches_queue_bfs(name):
    G = EnumeratedGroup(_graph(name), cap=20_000)
    perms, preds, right, lengths = _reference_group(_looked_up_perms(G.table))
    assert np.array_equal(G.perms, perms)
    assert [tuple(p) for p in G._preds.tolist()] == preds
    assert np.array_equal(G.right, right)
    assert G.lengths.tolist() == lengths


def test_dihedral_construction_steps_over_levels(monkeypatch):
    # I2(1000) has 1001 length levels; ball steps take them many at once.
    calls = []
    pack = EnumeratedGroup._pack
    monkeypatch.setattr(EnumeratedGroup, "_pack",
                        lambda self, heads: calls.append(len(heads)) or pack(self, heads))
    G = EnumeratedGroup(build_named("I2(1000)"))
    assert len(G._bounds) == 1002
    assert len(calls) <= 100


def test_perm_dtype_follows_the_root_count():
    # Root ids run to 2P - 1, which fits int16 up to 2P = 2^15.
    assert engine.perm_dtype(2) == np.int16
    assert engine.perm_dtype(32768) == np.int16
    assert engine.perm_dtype(32770) == np.int32


@pytest.mark.parametrize("name", ["B3", "H3", "I2(8)", "A1xI2(63)"])
def test_int32_storage_gives_the_same_group(monkeypatch, name):
    narrow = EnumeratedGroup(_graph(name))
    monkeypatch.setattr(engine, "perm_dtype", lambda n_roots: np.dtype(np.int32))
    wide = EnumeratedGroup(_graph(name))
    assert narrow.perms.dtype == np.int16 and wide.perms.dtype == np.int32
    assert np.array_equal(narrow.perms, wide.perms)
    assert [narrow.word(a) for a in narrow.element_ids()] == \
        [wide.word(a) for a in wide.element_ids()]
    for G, H in ((narrow, wide), (wide, narrow)):
        a = G.element_from_perm(H.perms[-1])
        assert a == len(G) - 1 and G.mult(a, a) == H.mult(a, a)
    assert np.array_equal(narrow.right, wide.right)
    assert np.array_equal(narrow.left, wide.left)
    assert np.array_equal(narrow.inverse_table(), wide.inverse_table())
    assert np.array_equal(narrow.mult_table(), wide.mult_table())
    assert narrow.conjugacy_classes() == wide.conjugacy_classes()


def test_element_from_perm_range_checks_before_the_cast():
    G = EnumeratedGroup(build_named("B3"))
    n_roots = len(G.table)
    member = G.perms[5].astype(np.int64)
    assert G.element_from_perm(member) == 5
    # 2^16 + k casts to k in int16, and 2^15 + k to a negative id; entry
    # 0 is a head, which keys the lookup, and entry -1 is not.
    for pos in (0, -1):
        for bad in (n_roots, 1 << 15, (1 << 15) + 3, (1 << 16) + int(member[pos])):
            perm = member.copy()
            perm[pos] = bad
            with pytest.raises(ValueError, match="does not belong"):
                G.element_from_perm(perm)
    for perm in (member - n_roots, member[:-1], np.concatenate([member, [0]])):
        with pytest.raises(ValueError, match="does not belong"):
            G.element_from_perm(perm)


def test_perms_take_two_bytes_per_root():
    for name in ("H4", "I2(1000)"):
        G = EnumeratedGroup(build_named(name), cap=20_000)
        assert G.perms.nbytes == len(G) * len(G.table) * 2
    # I2(1000): a 2000 x 2000 int16 table is 8 MB; int32 storage alone
    # would take 16 MB.
    g = build_named("I2(1000)")
    tracemalloc.start()
    try:
        EnumeratedGroup(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("name", ["H3", "I2(250)", "A1xI2(63)"])
def test_wrong_closed_form_order_fails_loudly(monkeypatch, name):
    # The BFS checks its count against the closed form at every step and
    # at the end, whatever the step sizes.
    g = _graph(name)
    order = len(EnumeratedGroup(g))
    for wrong, message in [(order - 1, f"exceeded the closed-form order {order - 1}"),
                           (order // 2, f"exceeded the closed-form order {order // 2}"),
                           (order + 1, f"enumerated {order} elements, closed form says {order + 1}")]:
        monkeypatch.setattr(engine, "graph_order", lambda graph: wrong)
        with pytest.raises(RuntimeError, match=re.escape(message)):
            EnumeratedGroup(g)


@pytest.mark.parametrize("m", [20000, 20001])
def test_i2_root_range_edge(m):
    # The largest dihedral types the README lists as supported.
    table = enumerate_roots(build_named(f"I2({m})"))
    assert table.n_positive == m and len(table) == 2 * m
    for s in ("s1", "s2"):
        perm = table.generator_perm(s)
        assert np.array_equal(perm[perm], np.arange(len(table)))


def test_i2_past_the_range_fails_loudly():
    # For odd m the two halves of the BFS meet at one root; from about
    # m = 50000 on, float drift keeps the two copies apart.
    with pytest.raises(RootLookupError, match="SEPARATION_GUARD"):
        enumerate_roots(build_named("I2(50001)"))


def test_classification_is_computed_once_per_graph(monkeypatch):
    calls = []
    real = classify.classify_irreducible
    monkeypatch.setattr(classify, "classify_irreducible",
                        lambda g: calls.append(g) or real(g))
    g = build_named("B3")
    EnumeratedGroup(g)  # roots, root count and order all classify g
    assert len(calls) == 1
    # Callers get a fresh list each time, so the cache cannot be mutated.
    classify_components(g).append("junk")
    assert classify_components(g) == [classify.TypeLabel("B", 3)]


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["A3", "B3", "D4", "H3", "F4", "I2(7)", "A4", "B4",
                             "I2(63)", "A1xI2(63)"]),
       data=st.data())
def test_relabelling_keeps_counts_and_lengths(name, data):
    # Renaming and reordering the vertices changes every id but not the
    # root count, |W| or the multiset of lengths.
    g = _graph(name)
    order = data.draw(st.permutations(range(len(g))))
    names = {v: f"v{order[i]}" for i, v in enumerate(g.vertices)}
    relabelled = CoxeterGraph(sorted(names.values()),
                              [(names[a], names[b], m) for a, b, m in g.edges()])
    G, H = EnumeratedGroup(g), EnumeratedGroup(relabelled)
    assert len(G.table) == len(H.table)
    assert len(G) == len(H)
    assert sorted(G.lengths.tolist()) == sorted(H.lengths.tolist())
