import itertools
import random

import numpy as np
import pytest

from coxtools.classify import TypeLabel, build_named
from coxtools.engine import enumerate_group
from coxtools.graph import CoxeterGraph, components
from coxtools.errors import CapExceededError
from coxtools.hommonoid import (
    CentralHom,
    _invert,
    _invertible,
    _star,
    _values,
    central_homs,
    count_fixing,
    count_invertible,
    hom_matrices,
    hom_space,
    flat,
    invert,
    is_invertible,
    star,
    trivial_hom,
)
from coxtools.isomorph import admissible_factor_handles
from coxtools.suites import _multiset_graph, _sym_product_cases, _universe


def _a1xa2():
    return enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A2")))


def _klein():
    return enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "x"}),
        build_named("A1").relabel({"s1": "y"})))


def _with_values(G, values):
    """The central hom with these values."""
    return next(f for f in central_homs(G) if f.values == tuple(values))


def test_counts_and_homomorphism_property():
    G = _a1xa2()
    homs = central_homs(G)
    assert len(homs) == 4  # Z = C2, two odd components
    for f in homs:
        assert f.check_homomorphism()
    K = _klein()
    assert len(central_homs(K)) == 16  # End of the Klein four group


def test_trivial_map_is_unit():
    G = _a1xa2()
    one = trivial_hom(G)
    for f in central_homs(G):
        assert star(one, f).values == f.values
        assert star(f, one).values == f.values


def test_star_reduces_to_pointwise_product_when_composite_dies():
    # Both maps kill the abelian factor, so f(g(w)) = 1 and the star
    # is the plain pointwise product.
    G = _a1xa2()
    z = [x for x in G.center() if x != 0][0]
    candidates = [f for f in central_homs(G)
                  if f(G.generator("z")) == 0 and not f.is_trivial()]
    f = candidates[0]
    assert f(G.generator("s1")) == z
    fg = star(f, f)
    for w in G.element_ids():
        assert fg(w) == G.mult(f(w), f(w))
    assert fg.is_trivial()


def test_identity_hom_on_abelian_is_star_idempotent():
    # On W(A1): f = identity has f*f = f since w.w.w^-1 = w.
    G = enumerate_group(build_named("A1"))
    ident = _with_values(G, G.element_ids())
    assert star(ident, ident).values == ident.values


def test_flat_examples():
    G = _a1xa2()
    assert flat(trivial_hom(G)) == tuple(G.element_ids())
    # B2 with f(w) = w0^length: flat sends each generator s to s w0.
    B = enumerate_group(build_named("B2"))
    w0 = B.from_word(["s1", "s2", "s1", "s2"])
    f = _with_values(B, [w0 if B.length(a) % 2 else 0 for a in B.element_ids()])
    assert f.check_homomorphism()
    fb = flat(f)
    for s in ("s1", "s2"):
        g = B.generator(s)
        assert fb[g] == B.mult(g, w0)


def test_flat_is_injective_monoid_hom():
    G = _a1xa2()
    homs = central_homs(G)
    tables = {f.values: flat(f) for f in homs}
    assert len(set(tables.values())) == len(homs)
    for f, g in itertools.product(homs, repeat=2):
        lhs = flat(star(f, g))
        rhs = tuple(tables[f.values][x] for x in tables[g.values])
        assert lhs == rhs


def test_invertibility_examples():
    G = _a1xa2()
    assert is_invertible(trivial_hom(G))
    # Maps killing the center are invertible, with inverse w -> f(w)^-1.
    for f in central_homs(G):
        if all(f(z) == 0 for z in G.center()):
            assert is_invertible(f)
            finv = invert(f)
            assert finv.values == tuple(G.inv(f(w)) for w in G.element_ids())
            assert star(finv, f).values == trivial_hom(G).values
            assert star(f, finv).values == trivial_hom(G).values
    # On W(A1) the identity map kills the center under flat: not invertible.
    A = enumerate_group(build_named("A1"))
    ident = _with_values(A, A.element_ids())
    assert not is_invertible(ident)
    with pytest.raises(ValueError):
        invert(ident)


def test_self_inverse_at_elementary_two_center():
    # f with f.f = 1 satisfies f*f = 1.
    G = _klein()
    for f in central_homs(G):
        composed = tuple(f(f(w)) for w in G.element_ids())
        if composed == trivial_hom(G).values and is_invertible(f):
            assert star(f, f).values == trivial_hom(G).values


def test_invertible_count_klein():
    # Hom^x of the Klein four group is GL_2(F_2).
    assert sum(map(is_invertible, central_homs(_klein()))) == 6


# -- the closed form against the Cayley-table definitions ----------------------

def _reference_rows(G):
    """Hom(G, Z(G)) in the order of ``central_homs``: per odd-graph
    component the parity of its letters in a word of each element,
    every product read from the Cayley table."""
    M = G.mult_table()
    center = np.array(G.center(), dtype=np.intp)
    rows = np.zeros((1, len(G)), dtype=np.intp)
    for comp in components(G.graph, odd_only=True):
        odd = np.array([sum(s in comp for s in G.word(w)) % 2 == 1 for w in G.element_ids()])
        moved = M[rows[:, None, :], center[None, :, None]]
        rows = np.where(odd, moved, rows[:, None, :]).reshape(-1, len(G))
    return rows


def _reference_homs(G):
    return [tuple(row) for row in _reference_rows(G).tolist()]


def _reference_star(G, fv, gv):
    M, inv = G.mult_table(), G.inverse_table()
    fv, gv = np.array(fv), np.array(gv)
    return tuple(M[M[fv, gv], inv[fv[gv]]].tolist())


def _reference_flat(G, fv):
    M, inv = G.mult_table(), G.inverse_table()
    return tuple(M[np.arange(len(G)), inv[np.array(fv)]].tolist())


@pytest.mark.parametrize("name", ["A1", "B2", "B3", "A1xA2", "Klein"])
def test_monoid_matches_the_cayley_table_reference(name):
    G = {"A1xA2": _a1xa2, "Klein": _klein}.get(
        name, lambda: enumerate_group(build_named(name)))()
    homs = central_homs(G)
    assert [f.values for f in homs] == _reference_homs(G)
    for f in homs:
        assert flat(f) == _reference_flat(G, f.values)
        fb = _reference_flat(G, f.values)
        center = sorted(G.center())
        invertible = sorted(fb[z] for z in center) == center
        assert is_invertible(f) == invertible
        if invertible:
            unflat = {fb[z]: z for z in center}
            assert invert(f).values == tuple(G.inv(unflat[v]) for v in f.values)
        for g in homs:
            assert star(f, g).values == _reference_star(G, f.values, g.values)


def _suite_groups():
    """Every group of the hommonoid and aut suites, by labels."""
    A = [TypeLabel("A", n) for n in range(1, 6)]
    out = set(_universe(24)) | {(A[0], A[1]), (A[1], A[1]), (A[0],) * 3, (A[0], A[1], A[1])}
    for m in _sym_product_cases(max_group=800, max_aut=21_000):
        out.add(tuple(A[n - 2] for n, mult in enumerate(m, start=1) if n >= 2
                      for _ in range(mult)))
    return sorted(out, key=str)


@pytest.mark.parametrize("labels", _suite_groups(), ids=lambda ls: "x".join(map(str, ls)))
def test_closed_form_matches_the_definitions(labels):
    """Values, star (every pair up to 600 maps, a seeded sample above),
    flat, is_invertible and invert against the Cayley table."""
    G = enumerate_group(_multiset_graph(labels))
    M, inv = G.mult_table(), G.inverse_table()
    mats = hom_matrices(G)
    rows = _values(G, mats)
    assert np.array_equal(rows, _reference_rows(G))
    n = len(rows)
    rng = random.Random(n)
    fs = range(n) if n <= 600 else rng.sample(range(n), 64)
    gs = np.arange(n) if n <= 600 else np.array(rng.sample(range(n), 512))
    flats = M[np.arange(len(G)), inv[rows]]
    center = np.array(G.center(), dtype=np.intp)
    invertible = (np.sort(flats[:, center], axis=1) == center).all(axis=1)
    assert np.array_equal(_invertible(G, mats), invertible)
    homs = central_homs(G)
    for i in fs:
        products = _values(G, _star(G, mats[:, i, None], mats[:, gs]))
        assert np.array_equal(products, M[M[rows[i], rows[gs]], inv[rows[i][rows[gs]]]])
        f = homs[i]
        assert flat(f) == tuple(flats[i].tolist())
        assert is_invertible(f) == invertible[i]
        if invertible[i]:
            unflat = np.empty(len(G), dtype=np.intp)
            unflat[flats[i][center]] = center
            assert invert(f).values == tuple(inv[unflat[rows[i]]].tolist())


def _dense_counts(G, factors, central_ids):
    """|Hom^x| and |Hom_o| by testing every value row."""
    rows = _reference_rows(G)
    M, inv = G.mult_table(), G.inverse_table()
    center = np.array(G.center(), dtype=np.intp)
    flats_on_center = M[center, inv[rows[:, center]]]
    h1 = int((np.sort(flats_on_center, axis=1) == center).all(axis=1).sum())
    keep = np.ones(len(rows), dtype=bool)
    for i, H in enumerate(factors):
        allowed = np.zeros(len(G), dtype=bool)
        allowed[[0] if i in central_ids else list(H.center())] = True
        keep &= allowed[rows[:, H.sorted_ids()]].all(axis=1)
    return h1, int(keep.sum())


_COUNT_GROUPS = sorted(set(_suite_groups()) | {
    (TypeLabel("B", 2), TypeLabel("B", 2)), (TypeLabel("A", 1), TypeLabel("B", 2)),
    (TypeLabel("D", 4), TypeLabel("A", 1)), (TypeLabel("B", 3),), (TypeLabel("B", 3), TypeLabel("A", 1)),
    (TypeLabel("I2", 6), TypeLabel("A", 1)), (TypeLabel("H", 3), TypeLabel("A", 1)),
    (TypeLabel("A", 1), TypeLabel("A", 1), TypeLabel("B", 2)),
}, key=str)


@pytest.mark.parametrize("labels", _COUNT_GROUPS, ids=lambda ls: "x".join(map(str, ls)))
def test_closed_counts_match_a_dense_count(labels):
    G = enumerate_group(_multiset_graph(labels))
    for factors in ([G.parabolic(comp) for comp in components(G.graph)],
                    admissible_factor_handles(G)):
        central = [i for i, H in enumerate(factors) if H.is_abelian()]
        assert (count_invertible(G), count_fixing(G, factors, central)) == \
            _dense_counts(G, factors, central)


def test_hom_space_forms_fewer_products_than_two_per_central_element():
    # W(A1)^10: |Z(G)| = N = 1024.  Doubling the basis of Z(G) takes
    # |Z(G)| - 1 products; a table of every a z would take N |Z(G)|.
    # Z(G) itself is read off the heads, with no product.
    G = enumerate_group(_multiset_graph([TypeLabel("A", 1)] * 10))
    products, mult_ids = [], G.mult_ids
    G.mult_ids = lambda *xs: products.append(np.broadcast(*xs).size) or mult_ids(*xs)
    space = hom_space(G)
    assert sorted(space.ids.tolist()) == list(G.center())
    assert sum(products) < 2 * len(G.center())


def _a1xb2():
    return enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("B2")))


@pytest.mark.parametrize("name", ["B3", "A1xA2", "Klein", "A1xB2"])
def test_stacked_kernels_match_the_one_map_functions(name):
    G = {"A1xA2": _a1xa2, "Klein": _klein, "A1xB2": _a1xb2}.get(
        name, lambda: enumerate_group(build_named(name)))()
    homs = central_homs(G)
    mats = hom_matrices(G)
    n = mats.shape[1]
    assert [f.values for f in homs] == [tuple(r) for r in _values(G, mats).tolist()]
    # Each f against every g at once, and every pair column against column.
    outer = np.array([_star(G, mats[:, i, None], mats) for i in range(n)])
    paired = _star(G, np.repeat(mats, n, axis=1), np.tile(mats, n)).reshape(-1, n, n)
    for i, f in enumerate(homs):
        for j, g in enumerate(homs):
            assert tuple(outer[i, :, j]) == tuple(paired[:, i, j]) == star(f, g).matrix
    invertible = _invertible(G, mats)
    assert invertible.tolist() == [is_invertible(f) for f in homs]
    inverses = _invert(G, mats[:, invertible])
    assert [tuple(r) for r in inverses.T.tolist()] == \
        [invert(f).matrix for f in homs if is_invertible(f)]


def test_hom_enumeration_is_bounded(monkeypatch):
    from coxtools import hommonoid

    G = _a1xa2()  # 4 maps of 12 values
    monkeypatch.setattr(hommonoid, "HOM_VALUE_CAP", 48)
    assert hom_matrices(G).shape == (2, 4)
    monkeypatch.setattr(hommonoid, "HOM_VALUE_CAP", 47)
    with pytest.raises(CapExceededError, match="4 maps of 12 values each, above the limit of 47"):
        central_homs(G)


def test_central_homs_of_w_a1_to_the_fifth_name_the_limit():
    G = enumerate_group(_multiset_graph([TypeLabel("A", 1)] * 5))
    with pytest.raises(CapExceededError,
                       match="33554432 maps of 32 values each, above the limit of 16777216"):
        central_homs(G)


def test_homomorphism_check_above_the_cayley_table_limit():
    # W(B4) x W(A3) has order 9216: the check reads the (element,
    # generator) cells, so it needs no Cayley table.
    G = enumerate_group(_multiset_graph([TypeLabel("B", 4), TypeLabel("A", 3)]))
    f = next(h for h in central_homs(G) if not h.is_trivial())
    assert f.check_homomorphism()
    values = list(f.values)
    w = next(w for w in G.element_ids() if values[w] == 0 and G.length(w) > 3)
    values[w] = next(z for z in G.center() if z != 0)
    corrupted = CentralHom(G, f.matrix)
    corrupted.__dict__["values"] = tuple(values)  # what the cached expansion holds
    assert not corrupted.check_homomorphism()
