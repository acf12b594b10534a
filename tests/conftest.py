import itertools

import numpy as np
import pytest

from coxtools.classify import build_named
from coxtools.engine import enumerate_group


_CACHE = {}


def group_of(name: str):
    """Session-cached enumerated group of a catalog type name."""
    if name not in _CACHE:
        _CACHE[name] = enumerate_group(build_named(name), cap=20_000)
    return _CACHE[name]


def assert_decomposes_w0(table, root_ids, refl_perms):
    """The reflections multiply to w0, the one element that sends every
    positive root negative, and their roots are pairwise orthogonal:
    exactly (each reflection fixes the other roots) and in floats, to a
    tolerance scaled by the largest coordinate, since the error of an
    inner product grows with its terms."""
    p = table.n_positive
    product = np.arange(len(table))
    for perm in refl_perms:
        product = product[perm]
    assert (product[:p] >= p).all()
    for i, perm in enumerate(refl_perms):
        assert all(perm[b] == b for j, b in enumerate(root_ids) if j != i)
    tol = 64 * np.finfo(float).eps * np.abs(table.roots[root_ids]).max() ** 2
    for a, b in itertools.combinations(root_ids, 2):
        assert abs(table.inner(a, b)) <= tol


@pytest.fixture
def a2():
    return group_of("A2")


@pytest.fixture
def a3():
    return group_of("A3")


@pytest.fixture
def b2():
    return group_of("B2")


@pytest.fixture
def b3():
    return group_of("B3")


@pytest.fixture
def h3():
    return group_of("H3")


@pytest.fixture
def d4():
    return group_of("D4")
