"""The monoid of central homomorphisms Hom(G, Z(G)) under
(f*g)(w) = f(w) g(w) (f.g(w))^-1, its embedding f -> f_flat into
End(G) via f_flat(w) = w f(w)^-1, invertibility and inversion.

Maps are stored densely (one central element id per group element).
Every product the monoid operations take has a central right factor
(a value f(w), or its inverse), so they read the group's N x |Z(G)|
table of products a z (``EnumeratedGroup.times_central``) rather than
an N x N Cayley table, and exhaustive law sweeps stay cheap at every
order the group cap allows.  For an enumerated Coxeter group every
homomorphism into the center factors through the sign characters of
the odd-graph components, which makes the full monoid enumerable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import EnumeratedGroup
from .graph import components


@dataclass(frozen=True)
class CentralHom:
    """A homomorphism G -> Z(G) as a dense value table."""

    group: EnumeratedGroup
    values: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.values[a]

    def array(self) -> np.ndarray:
        return np.array(self.values, dtype=np.int32)

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values)

    def check_homomorphism(self) -> bool:
        """f(ab) = f(a) f(b) on every pair, and every value central:
        a check against the whole Cayley table, so for groups within
        its limit (``engine.TABLE_CAP``)."""
        G = self.group
        M = G.mult_table()
        v = self.array()
        return bool(np.array_equal(v[M], M[np.ix_(v, v)])) and \
            set(self.values) <= set(G.center())


def trivial_hom(G: EnumeratedGroup) -> CentralHom:
    return CentralHom(G, (0,) * len(G))


def _odd_component_parities(G: EnumeratedGroup) -> list[np.ndarray]:
    """Per odd-graph component, the parity of the number of its
    generators in any word of each element (well defined because every
    defining relation uses the generators of a component an even
    number of times)."""
    comps = components(G.graph, odd_only=True)
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    # member[j, k]: generator k lies in component j.
    member = np.array([[comp_of[v] == j for v in G.graph.vertices]
                       for j in range(len(comps))], dtype=np.uint8)
    out = np.zeros((len(comps), len(G)), dtype=np.uint8)
    # Level by level from the BFS tree: a = parent s_k.
    for ids, parents, gens in G._levels():
        out[:, ids] = out[:, parents] ^ member[:, gens]
    return list(out)


def central_homs(G: EnumeratedGroup) -> list[CentralHom]:
    """All of Hom(G, Z(G)), the trivial map first."""
    parities = _odd_component_parities(G)
    center = list(G.center())
    out = []
    for assignment in itertools.product(center, repeat=len(parities)):
        f = np.zeros(len(G), dtype=np.int32)
        for z, par in zip(assignment, parities):
            if z == 0:
                continue
            mask = par.astype(bool)
            f[mask] = G.times_central(f[mask], z)
        out.append(CentralHom(G, tuple(f.tolist())))
    return out


def star(f: CentralHom, g: CentralHom) -> CentralHom:
    """(f*g)(w) = f(w) g(w) f(g(w))^-1."""
    if f.group is not g.group:
        raise ValueError("central homs of different groups")
    G = f.group
    inv = G.inverse_table()
    fv, gv = f.array(), g.array()
    vals = G.times_central(G.times_central(fv, gv), inv[fv[gv]])
    return CentralHom(G, tuple(vals.tolist()))


def flat(f: CentralHom) -> tuple[int, ...]:
    """The endomorphism f_flat(w) = w f(w)^-1, as a value table."""
    G = f.group
    return tuple(G.times_central(np.arange(len(G)), G.inverse_table()[f.array()]).tolist())


def _flat_on_center(f: CentralHom) -> tuple[np.ndarray, np.ndarray]:
    """Z(G) in id order, and the image of each z under f_flat."""
    G = f.group
    center = np.array(G.center(), dtype=np.intp)
    return center, G.times_central(center, G.inverse_table()[f.array()[center]])


def is_invertible(f: CentralHom) -> bool:
    """f is *-invertible iff f_flat restricted to Z(G) is a bijection
    of Z(G)."""
    center, image = _flat_on_center(f)
    return bool(np.array_equal(np.sort(image), center))


def invert(f: CentralHom) -> CentralHom:
    """Inverse under *: f'(w) = ((f_flat|_Z)^-1 (f(w)))^-1."""
    G = f.group
    if not is_invertible(f):
        raise ValueError("central hom is not invertible")
    center, image = _flat_on_center(f)
    unflat = np.zeros(len(G), dtype=np.int32)
    unflat[image] = center
    vals = G.inverse_table()[unflat[f.array()]]
    return CentralHom(G, tuple(vals.tolist()))


def invertible_homs(G: EnumeratedGroup) -> list[CentralHom]:
    return [f for f in central_homs(G) if is_invertible(f)]


def homs_fixing_factors(
    G: EnumeratedGroup, factors: Iterable, central_factor_ids: Iterable[int]
) -> list[CentralHom]:
    """Hom(G, Z(G))_o for a direct decomposition: maps killing the
    product of the central factors and sending each non-central factor
    into its own center."""
    factors = list(factors)
    central_ids = set(central_factor_ids)
    # Per factor: its ids, and the mask of the values f may take on them.
    checks = []
    for i, H in enumerate(factors):
        allowed = np.zeros(len(G), dtype=bool)
        allowed[[0] if i in central_ids else list(H.center())] = True
        checks.append((np.array(H.sorted_ids()), allowed))
    out = []
    for f in central_homs(G):
        fv = f.array()
        if all(allowed[fv[ids]].all() for ids, allowed in checks):
            out.append(f)
    return out
