"""Cross-model checks: the enumerated Coxeter groups are isomorphic to
independently built permutation models (symmetric, signed-permutation,
even-signed, dihedral, alternating x C2).  These models share no code
with the root-permutation engine, so an agreement here validates the
whole pipeline from graph to multiplication."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coxtools.classify import build_named
from coxtools.engine import GroupView, automorphism_count, enumerate_group, find_isomorphism
from conftest import group_of


def _simple_view(elements, compose, invert, identity):
    """The Cayley table of the model, built from its own ``compose``;
    the view's derived identity and inverses must match the model's."""
    elements = sorted(elements)
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[compose(a, b)] for b in elements] for a in elements]
    view = GroupView(table)
    assert view.identity == index[identity]
    assert view.inverses.tolist() == [index[invert(a)] for a in elements]
    return view


def symmetric_view(n):
    elements = list(itertools.permutations(range(n)))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(n))

    def invert(a):
        out = [0] * n
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    return _simple_view(elements, compose, invert, tuple(range(n)))


def signed_view(n, even_only=False):
    # Signed permutations as tuples with values in {+-1..+-n}.
    elements = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            if even_only and signs.count(-1) % 2 == 1:
                continue
            elements.append(tuple(s * v for s, v in zip(signs, perm)))

    def compose(a, b):
        out = []
        for i in range(n):
            t = b[i]
            v = a[abs(t) - 1]
            out.append(v if t > 0 else -v)
        return tuple(out)

    def invert(a):
        out = [0] * n
        for i, v in enumerate(a, start=1):
            out[abs(v) - 1] = i if v > 0 else -i
        return tuple(out)

    return _simple_view(elements, compose, invert, tuple(range(1, n + 1)))


def dihedral_view(m):
    # (rotation k, reflected?) with composition in O(2).
    elements = [(k, r) for k in range(m) for r in (0, 1)]

    def compose(a, b):
        k1, r1 = a
        k2, r2 = b
        k = (k1 + (-k2 if r1 else k2)) % m
        return (k, r1 ^ r2)

    def invert(a):
        k, r = a
        return (k if r else (-k) % m, r)

    return _simple_view(elements, compose, invert, (0, 0))


def alternating_times_c2_view(n):
    elements = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        if inversions % 2 == 0:
            for z in (0, 1):
                elements.append((perm, z))

    def compose(a, b):
        return (tuple(a[0][b[0][i]] for i in range(n)), a[1] ^ b[1])

    def invert(a):
        out = [0] * n
        for i, v in enumerate(a[0]):
            out[v] = i
        return (tuple(out), a[1])

    return _simple_view(elements, compose, invert, (tuple(range(n)), 0))


@pytest.mark.parametrize("name,n", [("A2", 3), ("A3", 4), ("A4", 5)])
def test_a_family_is_symmetric_group(name, n):
    assert find_isomorphism(group_of(name), symmetric_view(n))


@pytest.mark.parametrize("name,n", [("B2", 2), ("B3", 3)])
def test_b_family_is_hyperoctahedral(name, n):
    assert find_isomorphism(group_of(name), signed_view(n))


def test_d4_is_even_signed_group():
    assert find_isomorphism(group_of("D4"), signed_view(4, even_only=True))


@pytest.mark.parametrize("m", [5, 7, 8, 12])
def test_i2_is_dihedral(m):
    assert find_isomorphism(group_of(f"I2({m})"), dihedral_view(m))


def test_h3_is_alternating5_times_center():
    assert find_isomorphism(group_of("H3"), alternating_times_c2_view(5))


def test_negative_cross_model():
    # Same order, different groups: Sym4 is not the dihedral group of
    # order 24.
    assert find_isomorphism(group_of("A3"), dihedral_view(12)) == []


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(["A2", "B2", "I2(5)", "I2(6)", "A3", "B3", "H3"]),
       data=st.data())
def test_relabelled_cayley_table(name, data):
    # The same group with its elements renamed by a random permutation p:
    # p(a) p(b) = p(ab).
    G = group_of(name)
    table = G.mult_table()
    p = np.array(data.draw(st.permutations(range(len(G)))))
    relabelled = np.empty_like(table)
    relabelled[np.ix_(p, p)] = p[table]
    view = GroupView(relabelled)
    (f,) = find_isomorphism(G, view)
    assert sorted(f) == list(range(len(G)))
    for a in range(len(G)):
        for b in range(len(G)):
            assert f[table[a, b]] == relabelled[f[a], f[b]]
    plain = GroupView(table)
    assert len(find_isomorphism(view, view, all_maps=True)) == \
        len(find_isomorphism(plain, plain, all_maps=True))
    # Greedy generators of the relabelled table are no Coxeter
    # generators; the count must not depend on them.
    assert automorphism_count(view) == automorphism_count(plain) == \
        len(find_isomorphism(plain, plain, all_maps=True))
