"""The monoid of central homomorphisms Hom(G, Z(G)) under
(f*g)(w) = f(w) g(w) (f.g(w))^-1, its embedding f -> f_flat into
End(G) via f_flat(w) = w f(w)^-1, invertibility and inversion.

For a finite Coxeter group Z(G) = F2^m, and every homomorphism into it
is f_A(w) = A pi(w) for one m x c matrix A over F2, pi(w) the parities
of the c odd-graph components in a word of w.  With P (c x m) pi on a
basis of Z(G), f_A * f_B = f_(A + B + APB), and f_A flat acts on Z(G)
as I + AP, so f_A is invertible iff I + AP is, with inverse
(I + AP)^-1 A.  Values are expanded from A only when asked, and
|Hom^x| and |Hom_o| are ranks over F2.  The case m = 1 gives the
characters G -> {+-1}, one per mask u over the c components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .engine import TABLE_CAP, EnumeratedGroup, respects_generators
from .errors import CapExceededError
from .graph import components

# Values in all the maps ``hom_matrices`` lists: as many as the
# entries of one Cayley table at its limit.
HOM_VALUE_CAP = TABLE_CAP ** 2


class HomSpace(NamedTuple):
    """The coordinates of Hom(G, Z(G)), computed once per group."""

    components: list[tuple[str, ...]]  # the odd-graph components, in order
    pi: np.ndarray   # (N,) bit j: parity of component j in a word of w
    ids: np.ndarray  # (2^m,) the central element with each coordinate mask
    P: tuple[int, ...]  # pi of each basis element of Z(G): the m columns of P
    c: int


def hom_space(G: EnumeratedGroup) -> HomSpace:
    """The odd-graph components, their parities pi and Z(G) = F2^m.

    Every character G -> {+-1} is chi_u(w) = (-1)^(u.pi(w)) for one mask
    u over ``components`` (u_j = 1 where chi is -1 on component j's
    generators), and u.pi(w) = ``f2_apply(u, pi[w])`` with u given as its
    c bits; the sign character (-1)^l(w) is the mask of every component.

    pi by one walk over the BFS levels (a = parent s_k flips the parity
    of k's component), and Z(G) = F2^m on the basis its sorted ids give
    greedily: each z outside the span so far doubles it, by |span|
    products, so |Z(G)| - 1 in all."""
    if G._hom_space is None:
        comps = components(G.graph, odd_only=True)
        bit = np.zeros(len(G.graph), dtype=np.min_scalar_type((1 << len(comps)) - 1))
        for j, comp in enumerate(comps):
            bit[[G.graph.index(v) for v in comp]] = 1 << j
        pi = np.zeros(len(G), dtype=bit.dtype)
        for ids, parents, gens in G._levels():
            pi[ids] = pi[parents] ^ bit[gens]
        ids, basis = np.zeros(1, dtype=np.intp), []
        for z in G.center():
            if z not in ids:
                ids, basis = np.concatenate([ids, G.mult_ids(ids, z)]), basis + [z]
        G._hom_space = HomSpace(comps, pi, ids, tuple(pi[basis].tolist()), len(comps))
    return G._hom_space


# -- F2 linear algebra on bitmasks -------------------------------------------------------
# A matrix is the sequence of its columns, each a mask, and a mask is an
# int or an integer array: a stack of matrices (c x stack) holds arrays,
# which broadcast, so a caller lines two stacks up (A[:, :, None] against
# B[:, None, :] for every pair).  On one map given as a tuple of ints,
# ``f2_apply`` and ``f2_image`` run as plain integer arithmetic.


def f2_basis(vectors: Iterable[int]) -> list[int]:
    """A basis of the span of bitmask vectors over F2 (its length is the
    rank), with distinct leading bits: each vector is reduced by the
    basis so far, largest leading bit first, and kept when something is
    left."""
    basis: list[int] = []
    for v in map(int, vectors):
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted(basis + [v], reverse=True)
    return basis


def f2_apply(A: Sequence, y):
    """A y: the xor of the columns of A where the mask y is set."""
    out = 0
    for k, column in enumerate(A):
        out = out ^ (y >> k & 1) * column
    return out


def f2_image(columns: Sequence, zero) -> list:
    """M x for every mask x < 2^k, M the matrix of these k columns and
    ``zero`` its zero column: by doubling, x + 2^j is x with column j
    added."""
    image = [zero]
    for column in columns:
        image += [v ^ column for v in image]
    return image


# -- the closed forms, on one map or a stack ---------------------------------------------


def _values(G: EnumeratedGroup, A) -> np.ndarray:
    """Value rows f_A(w) = A pi(w), one central id per element: shape
    (stack, N)."""
    space = hom_space(G)
    values = space.ids[f2_image(A, f2_apply(A, 0))][space.pi]
    return values.transpose(*range(1, values.ndim), 0)


def _flat_on_center(G: EnumeratedGroup, A) -> np.ndarray:
    """I + AP as its image of every mask x of F2^m: x + APx, the mask of
    f_A flat on the central element with mask x."""
    P = hom_space(G).P
    return np.asarray(f2_image([1 << k ^ f2_apply(A, p) for k, p in enumerate(P)],
                               f2_apply(A, 0)))


def _star(G: EnumeratedGroup, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A + B + APB, PB the parities pi of the central elements B names."""
    space = hom_space(G)
    return A ^ B ^ f2_apply(A, space.pi[space.ids].take(B))


def _invertible(G: EnumeratedGroup, A) -> np.ndarray:
    """Whether det(I + AP) != 0: its kernel is {0}, so no mask x != 0
    goes to 0."""
    return _flat_on_center(G, A)[1:].all(axis=0)


def _invert(G: EnumeratedGroup, A: np.ndarray) -> np.ndarray:
    """(I + AP)^-1 A for invertible A, (I + AP)^-1 read off as the
    inverse of the permutation x -> x + APx of F2^m."""
    return np.take_along_axis(np.argsort(_flat_on_center(G, A), axis=0), A, axis=0)


# -- the whole monoid --------------------------------------------------------------------


def hom_matrices(G: EnumeratedGroup) -> np.ndarray:
    """All of Hom(G, Z(G)) as one stack of |Z(G)|^c matrices (c x
    |Z(G)|^c), in ``itertools.product`` order of one central element
    (by sorted id) per component, each mask in the smallest unsigned
    type that holds it.  As they stand for |Z(G)|^c value rows, above
    ``HOM_VALUE_CAP`` values it raises CapExceededError first."""
    space = hom_space(G)
    center = np.argsort(space.ids).astype(np.min_scalar_type(len(space.ids) - 1))
    maps = len(center) ** space.c
    if maps * len(G) > HOM_VALUE_CAP:
        raise CapExceededError(
            f"Hom(G, Z(G)) has {maps} maps of {len(G)} values each, "
            f"above the limit of {HOM_VALUE_CAP} values")
    return center[np.indices((len(center),) * space.c).reshape(space.c, -1)]


def count_invertible(G: EnumeratedGroup) -> int:
    """|Hom(G, Z(G))^x|: I + AP is invertible for |GL_r(F2)| 2^(mc - r^2)
    of the matrices A, r = rank P."""
    space = hom_space(G)
    m, r = len(space.P), len(f2_basis(space.P))
    return math.prod((1 << r) - (1 << i) for i in range(r)) << (m * space.c - r * r)


def count_fixing(G: EnumeratedGroup, factors: Sequence, central_factor_ids: Iterable[int]) -> int:
    """|Hom(G, Z(G))_o|: the maps that kill the central factors and send
    each other factor H into Z(H).  f_A sends H into Z_H iff y.A.u = 0
    for u in a basis of pi(H) and y of the annihilator of Z_H: one
    linear condition y (x) u on the mc entries of A each."""
    space = hom_space(G)
    m, c = len(space.P), space.c
    central = set(central_factor_ids)
    rows = []
    for i, H in enumerate(factors):
        hit = np.flatnonzero(np.isin(space.ids, [0] if i in central else list(H.center())))
        # Unit k, its products y.s with the masks s of Z_H above bit m:
        # the reduced sums with no such bit are a basis of the annihilator.
        ann = [y for y in f2_basis(sum((int(s) >> k & 1) << (m + n) for n, s in enumerate(hit))
                                   | 1 << k for k in range(m)) if y >> m == 0]
        us = f2_basis(np.unique(space.pi[H.sorted_ids()]))
        rows += [sum(u << (k * c) for k in range(m) if y >> k & 1) for y in ann for u in us]
    return 1 << (m * c - len(f2_basis(rows)))


# -- one map at a time -----------------------------------------------------------------


@dataclass(frozen=True)
class CentralHom:
    """A homomorphism G -> Z(G) as its matrix A (the columns in
    ``matrix``, coordinates on the basis of ``hom_space``)."""

    group: EnumeratedGroup
    matrix: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.values[a]

    @cached_property
    def values(self) -> tuple[int, ...]:
        """f(w) for every element id, expanded on first use."""
        return tuple(_values(self.group, self.matrix).tolist())

    def is_trivial(self) -> bool:
        return not any(self.matrix)

    def check_homomorphism(self) -> bool:
        """f(ab) = f(a) f(b) on every (element, generator) cell, which
        covers every pair, and every value central."""
        G, v = self.group, np.array(self.values)
        return respects_generators(G, G, v, G.element_ids(), G.generators) and \
            set(self.values) <= set(G.center())


def trivial_hom(G: EnumeratedGroup) -> CentralHom:
    return CentralHom(G, (0,) * hom_space(G).c)


def central_homs(G: EnumeratedGroup) -> list[CentralHom]:
    """All of Hom(G, Z(G)), in the order of ``hom_matrices``."""
    return [CentralHom(G, tuple(A)) for A in hom_matrices(G).T.tolist()]


def star(f: CentralHom, g: CentralHom) -> CentralHom:
    """(f*g)(w) = f(w) g(w) f(g(w))^-1."""
    if f.group is not g.group:
        raise ValueError("central homs of different groups")
    A, B = np.array(f.matrix), np.array(g.matrix)
    return CentralHom(f.group, tuple(_star(f.group, A, B).tolist()))


def flat(f: CentralHom) -> tuple[int, ...]:
    """The endomorphism f_flat(w) = w f(w)^-1, as a value table."""
    G = f.group
    return tuple(G.mult_ids(np.arange(len(G)), _values(G, f.matrix)).tolist())


def is_invertible(f: CentralHom) -> bool:
    """f is *-invertible iff f_flat restricted to Z(G) is a bijection
    of Z(G)."""
    return bool(_invertible(f.group, f.matrix))


def invert(f: CentralHom) -> CentralHom:
    """Inverse under *: f'(w) = ((f_flat|_Z)^-1 (f(w)))^-1."""
    if not is_invertible(f):
        raise ValueError("central hom is not invertible")
    return CentralHom(f.group, tuple(_invert(f.group, np.array(f.matrix)).tolist()))
