import itertools

import numpy as np
import pytest

from coxtools.classify import build_named
from coxtools.engine import enumerate_group
from coxtools.graph import CoxeterGraph
from coxtools.errors import CapExceededError
from coxtools.hommonoid import (
    CentralHom,
    _flat,
    _invert,
    _invertible,
    _star,
    central_homs,
    hom_rows,
    flat,
    invert,
    invertible_homs,
    is_invertible,
    star,
    trivial_hom,
)


def _a1xa2():
    return enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("A2")))


def _klein():
    return enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "x"}),
        build_named("A1").relabel({"s1": "y"})))


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
    ident = CentralHom(G, tuple(G.element_ids()))
    assert star(ident, ident).values == ident.values


def test_flat_examples():
    G = _a1xa2()
    assert flat(trivial_hom(G)) == tuple(G.element_ids())
    # B2 with f(w) = w0^length: flat sends each generator s to s w0.
    B = enumerate_group(build_named("B2"))
    w0 = B.from_word(["s1", "s2", "s1", "s2"])
    vals = tuple(w0 if B.length(a) % 2 else 0 for a in B.element_ids())
    f = CentralHom(B, vals)
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
    ident = CentralHom(A, tuple(A.element_ids()))
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
    assert len(invertible_homs(_klein())) == 6


# -- the centre-column monoid against a Cayley-table reference ---------------

def _reference_homs(G):
    """Hom(G, Z(G)) in the order of ``central_homs``, every product
    read from the whole Cayley table."""
    from coxtools.hommonoid import _odd_component_parities

    M = G.mult_table()
    out = []
    for assignment in itertools.product(G.center(), repeat=len(_odd_component_parities(G))):
        f = np.zeros(len(G), dtype=np.int32)
        for z, par in zip(assignment, _odd_component_parities(G)):
            mask = par.astype(bool)
            f[mask] = M[f[mask], z]
        out.append(tuple(f.tolist()))
    return out


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


def test_central_products_reject_a_non_central_factor():
    G = _a1xa2()
    with pytest.raises(IndexError):
        G.times_central([0], [G.generator("s1")])


def _a1xb2():
    return enumerate_group(CoxeterGraph.disjoint_union(
        build_named("A1").relabel({"s1": "z"}), build_named("B2")))


@pytest.mark.parametrize("name", ["B3", "A1xA2", "Klein", "A1xB2"])
def test_stacked_kernels_match_the_one_map_functions(name):
    G = {"A1xA2": _a1xa2, "Klein": _klein, "A1xB2": _a1xb2}.get(
        name, lambda: enumerate_group(build_named(name)))()
    homs = central_homs(G)
    rows = hom_rows(G)
    n = len(rows)
    assert [f.values for f in homs] == [tuple(r) for r in rows.tolist()]
    # Each f against every g at once (tabulated, as |Hom| > |Z(G)|
    # here), and every pair row against row (computed directly).
    outer = np.array([_star(G, row, rows) for row in rows])
    paired = _star(G, np.repeat(rows, n, axis=0), np.tile(rows, (n, 1))).reshape(n, n, -1)
    for i, f in enumerate(homs):
        for j, g in enumerate(homs):
            assert tuple(outer[i, j]) == tuple(paired[i, j]) == star(f, g).values
    assert [tuple(r) for r in _flat(G, rows).tolist()] == [flat(f) for f in homs]
    assert [tuple(r) for r in _flat(G, rows[:1]).tolist()] == [flat(homs[0])]
    invertible = _invertible(G, rows)
    assert invertible.tolist() == [is_invertible(f) for f in homs]
    inverses = _invert(G, rows[invertible])
    assert [tuple(r) for r in inverses.tolist()] == \
        [invert(f).values for f in homs if is_invertible(f)]


def test_hom_enumeration_is_bounded(monkeypatch):
    from coxtools import hommonoid

    G = _a1xa2()  # 4 maps of 12 values
    monkeypatch.setattr(hommonoid, "HOM_VALUE_CAP", 48)
    assert len(hom_rows(G)) == 4
    monkeypatch.setattr(hommonoid, "HOM_VALUE_CAP", 47)
    with pytest.raises(CapExceededError, match="4 maps of 12 values each, above the limit of 47"):
        central_homs(G)
