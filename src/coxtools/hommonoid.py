"""The monoid of central homomorphisms Hom(G, Z(G)) under
(f*g)(w) = f(w) g(w) (f.g(w))^-1, its embedding f -> f_flat into
End(G) via f_flat(w) = w f(w)^-1, invertibility and inversion.

A map is a value row: one central id per group element.  The monoid
is one value matrix (``hom_rows``), and one kernel each computes star,
flat, invertibility and inversion on value rows stacked along any
leading axes, for one map too.  Every product they take has a central
right factor, so they read ``EnumeratedGroup.times_central``, never
an N x N Cayley table.  For an enumerated Coxeter group every
homomorphism into the center factors through the sign characters of
the odd-graph components, which makes the full monoid enumerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import TABLE_CAP, EnumeratedGroup
from .errors import CapExceededError
from .graph import components

# Values in the largest matrix ``hom_rows`` builds: as many as the
# entries of one Cayley table at its limit.
HOM_VALUE_CAP = TABLE_CAP ** 2


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


def hom_rows(G: EnumeratedGroup) -> np.ndarray:
    """All of Hom(G, Z(G)) as the rows of one |Z(G)|^c x N value
    matrix (c odd-graph components), in ``itertools.product`` order of
    one central element per component: each component in turn
    multiplies every row so far by each z where its parity is odd.
    Above ``HOM_VALUE_CAP`` values it raises CapExceededError first."""
    parities = _odd_component_parities(G)
    center = np.array(G.center(), dtype=np.intp)
    maps = len(center) ** len(parities)
    if maps * len(G) > HOM_VALUE_CAP:
        raise CapExceededError(
            f"Hom(G, Z(G)) has {maps} maps of {len(G)} values each, "
            f"above the limit of {HOM_VALUE_CAP} values")
    rows = np.zeros((1, len(G)), dtype=np.intp)
    for par in parities:
        moved = G.times_central(rows[:, None, :], center[:, None])
        rows = np.where(par.astype(bool), moved, rows[:, None, :]).reshape(-1, len(G))
    return rows


def central_homs(G: EnumeratedGroup) -> list[CentralHom]:
    """All of Hom(G, Z(G)), in the order of ``hom_rows``."""
    return [CentralHom(G, tuple(row)) for row in hom_rows(G).tolist()]


# -- kernels on value rows stacked along leading axes --------------------------------
# A kernel reads each value at (w, z), z = g(w) or f(w) central.  On more
# values than N x |Z(G)| it first tabulates every pair (w, z), so each
# value costs one gather; a single map is computed directly.


def _at(T: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Each row of T read at the matching row of idx, the leading axes
    broadcast: one flat gather."""
    if T.ndim == 1:
        return T.take(idx)
    offsets = np.arange(0, T.size, T.shape[-1]).reshape(T.shape[:-1] + (1,))
    return T.ravel().take(idx + offsets)


def _by_center(G: EnumeratedGroup, T: np.ndarray, H: np.ndarray) -> np.ndarray:
    """T[..., w, z] at z = h(w) for each value row h of H, T a table
    (..., N, |Z(G)|) over pairs (w, z) with z central.  A non-central
    h(w) reads past the end, so it raises IndexError."""
    n, k = T.shape[-2:]
    column = np.full(n, T.size, dtype=np.intp)
    column[list(G.center())] = np.arange(k)
    return _at(T.reshape(T.shape[:-2] + (n * k,)), column[H] + np.arange(0, n * k, k))


def _center_image(G: EnumeratedGroup, F: np.ndarray) -> np.ndarray:
    """f_flat(z) = z f(z)^-1 per z of Z(G) in id order, per row of F."""
    center = np.array(G.center(), dtype=np.intp)
    return G.times_central(center, G.inverse_table()[F[..., center]])


def _star(G: EnumeratedGroup, F: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Value rows of f*g, (f*g)(w) = f(w) g(w) f(g(w))^-1, for rows F
    of f and H of g broadcast against each other.  Tabulated, a value
    is f(w) f_flat(g(w)), with f_flat read from its values on Z(G)."""
    if H.size <= F.size * len(G.center()):
        return G.times_central(G.times_central(F, H), G.inverse_table()[_at(F, H)])
    image = _center_image(G, F)
    return _by_center(G, G.times_central(F[..., :, None], image[..., None, :]), H)


def _flat(G: EnumeratedGroup, F: np.ndarray) -> np.ndarray:
    """Value rows of f_flat(w) = w f(w)^-1."""
    n = F.shape[-1]
    if F.size <= n * len(G.center()):
        return G.times_central(np.arange(n), G.inverse_table()[F])
    inverses = G.inverse_table()[np.array(G.center(), dtype=np.intp)]
    return _by_center(G, G.times_central(np.arange(n)[:, None], inverses), F)


def _invertible(G: EnumeratedGroup, F: np.ndarray) -> np.ndarray:
    """Per row of F, whether f is *-invertible, i.e. f_flat restricted
    to Z(G) is a bijection of Z(G).  It is an endomorphism of the
    finite group Z(G), so that holds iff its kernel {z : f(z) = z} is
    trivial."""
    center = np.array(G.center(), dtype=np.intp)
    return (F[..., center] == center).sum(axis=-1) == 1


def _invert(G: EnumeratedGroup, F: np.ndarray) -> np.ndarray:
    """Value rows of the *-inverses of invertible rows F:
    f'(w) = ((f_flat|_Z)^-1 (f(w)))^-1.  Sorting Z(G) by its images
    puts at position j the z with f_flat(z) = center[j]."""
    center = np.array(G.center(), dtype=np.intp)
    unflat = center[np.argsort(_center_image(G, F), axis=-1)]
    return G.inverse_table()[_at(unflat, np.searchsorted(center, F))]


# -- one map at a time -----------------------------------------------------------------


def star(f: CentralHom, g: CentralHom) -> CentralHom:
    """(f*g)(w) = f(w) g(w) f(g(w))^-1."""
    if f.group is not g.group:
        raise ValueError("central homs of different groups")
    return CentralHom(f.group, tuple(_star(f.group, f.array(), g.array()).tolist()))


def flat(f: CentralHom) -> tuple[int, ...]:
    """The endomorphism f_flat(w) = w f(w)^-1, as a value table."""
    return tuple(_flat(f.group, f.array()).tolist())


def is_invertible(f: CentralHom) -> bool:
    """f is *-invertible iff f_flat restricted to Z(G) is a bijection
    of Z(G)."""
    return bool(_invertible(f.group, f.array()))


def invert(f: CentralHom) -> CentralHom:
    """Inverse under *: f'(w) = ((f_flat|_Z)^-1 (f(w)))^-1."""
    if not is_invertible(f):
        raise ValueError("central hom is not invertible")
    return CentralHom(f.group, tuple(_invert(f.group, f.array()).tolist()))


def invertible_homs(G: EnumeratedGroup) -> list[CentralHom]:
    rows = hom_rows(G)
    return [CentralHom(G, tuple(row)) for row in rows[_invertible(G, rows)].tolist()]


def fixes_factors(G: EnumeratedGroup, rows: np.ndarray, factors: Iterable,
                  central_factor_ids: Iterable[int]) -> np.ndarray:
    """Per value row, whether the map lies in Hom(G, Z(G))_o of a direct
    decomposition: it kills the product of the central factors and
    sends each non-central factor into its own center."""
    central_ids = set(central_factor_ids)
    keep = np.ones(len(rows), dtype=bool)
    for i, H in enumerate(factors):
        allowed = np.zeros(len(G), dtype=bool)
        allowed[[0] if i in central_ids else list(H.center())] = True
        keep &= allowed[rows[:, H.sorted_ids()]].all(axis=1)
    return keep
