import itertools
import math
import random

import numpy as np
import pytest

from coxtools.classify import build_named
from coxtools.errors import InfiniteTypeError
from coxtools.graph import components, parse_graph
from coxtools.rootspace import (
    apply_generator,
    bilinear_form,
    enumerate_roots,
    support,
)

SQRT2 = math.sqrt(2.0)


def test_bilinear_form_entries():
    b2 = build_named("B2")
    B = bilinear_form(b2)
    assert B[0, 0] == 1.0
    assert B[0, 1] == pytest.approx(-math.cos(math.pi / 4))
    inf_edge = parse_graph("vertices: a b\nedge a b inf\n")
    assert bilinear_form(inf_edge)[0, 1] == -1.0


def test_apply_generator_examples():
    a2 = build_named("A2")
    assert np.allclose(apply_generator(a2, "s1", [1, 0]), [-1, 0])
    assert np.allclose(apply_generator(a2, "s1", [0, 1]), [1, 1])
    b2 = build_named("B2")
    assert np.allclose(apply_generator(b2, "s2", [1, 0]), [1, SQRT2])


def test_apply_generator_is_involutive_and_form_preserving():
    g = build_named("H3")
    B = bilinear_form(g)
    rng = random.Random(7)
    for _ in range(20):
        v = np.array([rng.uniform(-2, 2) for _ in range(3)])
        w = np.array([rng.uniform(-2, 2) for _ in range(3)])
        for s in g.vertices:
            assert np.allclose(apply_generator(g, s, apply_generator(g, s, v)), v)
            lhs = apply_generator(g, s, v) @ B @ apply_generator(g, s, w)
            assert lhs == pytest.approx(v @ B @ w)


@pytest.mark.parametrize("name,count", [("A2", 6), ("B2", 8), ("H3", 30)])
def test_enumerate_root_counts(name, count):
    table = enumerate_roots(build_named(name))
    assert len(table) == count
    assert table.n_positive == count // 2


def test_enumerate_roots_positive_roots_of_a2():
    table = enumerate_roots(build_named("A2"))
    pos = {tuple(np.round(table.roots[i], 9)) for i in range(table.n_positive)}
    assert pos == {(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_enumerate_roots_of_the_empty_graph_is_the_empty_table():
    table = enumerate_roots(build_named("B3").subgraph([]))
    assert len(table) == table.n_positive == 0 and table.roots.shape == (0, 0)


def test_enumerate_roots_rejects_infinite():
    with pytest.raises(InfiniteTypeError):
        enumerate_roots(parse_graph("vertices: a b\nedge a b inf\n"))


def test_roots_are_unit_vectors_and_signed():
    table = enumerate_roots(build_named("B3"))
    B = table.form
    P = table.n_positive
    for i, row in enumerate(table.roots):
        assert row @ B @ row == pytest.approx(1.0, abs=1e-9)
        signs = np.sign(row[np.abs(row) > 1e-9])
        assert len(set(signs.tolist())) == 1
        assert np.allclose(table.roots[(i + P) % (2 * P)], -row)


def test_phi_w_examples(a2):
    table = a2.table
    assert a2.phi(a2.identity) == frozenset()
    w = a2.mult(a2.generator("s1"), a2.generator("s2"))
    ids = {table.root_id([0.0, 1.0]), table.root_id([1.0, 1.0])}
    assert a2.phi(w) == frozenset(ids)
    w0 = a2.from_word(["s1", "s2", "s1"])
    assert a2.phi(w0) == frozenset(range(table.n_positive))


def test_phi_w_characterizes_elements(b3):
    seen = {}
    for a in b3.element_ids():
        inv_set = b3.phi(a)
        assert len(inv_set) == b3.length(a)
        assert inv_set not in seen.values()
        seen[a] = inv_set


def test_reflection_of_root(a2):
    table, P = a2.table, a2.table.n_positive
    s1 = a2.element_from_perm(table.reflection_perm(table.simple_root_id("s1")))
    assert s1 == a2.generator("s1")
    rid = table.root_id([1.0, 1.0])
    refl = a2.element_from_perm(table.reflection_perm(rid))
    assert refl == a2.from_word(["s1", "s2", "s1"])
    assert refl == a2.element_from_perm(table.reflection_perm((rid + P) % (2 * P)))


def test_support_and_connectivity():
    a2 = build_named("A2")
    assert support(a2, [1.0, 0.0]) == ("s1",)
    assert support(a2, [1.0, 1.0]) == ("s1", "s2")
    assert support(a2, [0.0, 0.0]) == ()
    # Supports of roots are connected in the graph.
    for name in ("A3", "B3", "D4"):
        g = build_named(name)
        table = enumerate_roots(g)
        for row in table.roots:
            supp = support(g, row)
            assert len(components(g.subgraph(supp))) == 1


def test_small_parabolic_keeps_outside_roots_positive(a3, b3):
    # A positive root whose support is not inside I stays positive
    # under all of W_I.
    for G in (a3, b3):
        g = G.graph
        table = G.table
        for subset in itertools.chain.from_iterable(
                itertools.combinations(g.vertices, r) for r in range(len(g.vertices))):
            para = G.parabolic(subset)
            for i in range(table.n_positive):
                if set(support(g, table.roots[i])) <= set(subset):
                    continue
                for w in para.ids:
                    assert G.perms[w][i] < table.n_positive


def test_reflection_in_parabolic_iff_root_in_parabolic_span(a3, b3):
    for G in (a3, b3):
        g = G.graph
        table = G.table
        for subset in itertools.chain.from_iterable(
                itertools.combinations(g.vertices, r) for r in range(len(g.vertices) + 1)):
            para = G.parabolic(subset)
            for i in range(table.n_positive):
                refl = G.element_from_perm(table.reflection_perm(i))
                in_span = set(support(g, table.roots[i])) <= set(subset)
                assert (refl in para.ids) == in_span


def test_orbit_matches_odd_components():
    # Simple roots lie in one orbit iff their vertices share an odd
    # component.
    for name in ("B3", "F4", "I2(5)", "I2(6)", "I2(7)", "I2(8)"):
        g = build_named(name)
        table = enumerate_roots(g)
        perms = [table.generator_perm(s) for s in g.vertices]
        odd = components(g, odd_only=True)
        for s, t in itertools.product(g.vertices, repeat=2):
            sid = table.simple_root_id(s)
            orbit = {sid}
            frontier = [sid]
            while frontier:
                x = frontier.pop()
                for p in perms:
                    y = int(p[x])
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            same_comp = any(s in comp and t in comp for comp in odd)
            assert (table.simple_root_id(t) in orbit) == same_comp


def test_i2_alternating_word_closed_form():
    # Alternating products (... s2 s1 s2) . alpha_1 match the sine-ratio
    # coordinates.
    for m in range(5, 13):
        g = build_named(f"I2({m})")
        for k in range(0, m):
            v = np.array([1.0, 0.0])
            # (... s2 s1 s2) with k letters acts rightmost-first.
            letters = (["s2", "s1"] * m)[:k]
            for s in letters:
                v = apply_generator(g, s, v)
            denom = math.sin(math.pi / m)
            c1 = math.sin((k + 1) * math.pi / m) / denom
            c2 = math.sin(k * math.pi / m) / denom
            want = (c2, c1) if k % 2 == 1 else (c1, c2)
            assert np.allclose(v, want, atol=1e-9), (m, k, v, want)


def test_length_equals_inversion_count(a3, b3, h3):
    for G in (a3, b3, h3):
        for a in G.element_ids():
            assert len(G.phi(a)) == G.length(a)


def test_full_elements_preserve_form(b3, h3):
    # Reconstruct each element's matrix from the images of the simple
    # roots and check it preserves the bilinear form.
    rng = random.Random(11)
    for G in (b3, h3):
        n = len(G.graph.vertices)
        B = G.table.form
        ids = rng.sample(list(G.element_ids()), 12)
        for a in ids:
            M = np.column_stack([G.table.roots[G.perms[a][i]] for i in range(n)])
            for _ in range(4):
                u = np.array([rng.uniform(-1, 1) for _ in range(n)])
                v = np.array([rng.uniform(-1, 1) for _ in range(n)])
                assert (M @ u) @ B @ (M @ v) == pytest.approx(u @ B @ v, abs=1e-9)
