"""Exact finite-group arithmetic on top of the root-permutation encoding.

Every element of a finite Coxeter group acts as a permutation of the
root table; that permutation is stored once per element, so all group
arithmetic after the initial root identification is integer-exact.
BFS order (generators taken in vertex order) fixes the element ids,
with the identity at id 0.

An element is keyed by its *heads*: the images of the n simple roots,
the first n entries of its permutation, which determine it.  Scalar
lookups hash the bytes of the heads; batched lookups (``mult_ids``)
pack them into one int64 in radix 2P (P positive roots), sort those
keys once and resolve whole arrays with ``searchsorted``.  When
(2P)^n does not fit in int64 the same lookup sorts the heads as
fixed-width byte strings instead.  The enumeration records the right
generator table ``right[a, k] = a s_k``; ``left[a, k] = s_k a`` is
filled on first use.  Every brute-force structure routine below works
on these arrays in batches of at most ``BATCH`` products.

Groups are logically immutable after construction; the lazily filled
caches (inverses, orders, classes, Cayley table) are deterministic and
idempotent, so concurrent readers always observe consistent values.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .classify import graph_order
from .errors import CapExceededError, InfiniteTypeError
from .graph import CoxeterGraph
from .rootspace import DEFAULT_EPS, RootTable, enumerate_roots, phi_w

DEFAULT_GROUP_CAP = 10_000
DEFAULT_ISO_CAP = 1_200
# Products per batched lookup.  Bounds the temporaries of every batched
# routine, so peak memory does not grow with the number of products a
# closure or filter asks for at once.
BATCH = 1 << 15


class EnumeratedGroup:
    """A finite Coxeter group as a table of root permutations."""

    def __init__(self, graph: CoxeterGraph, cap: int = DEFAULT_GROUP_CAP,
                 eps: float = DEFAULT_EPS, table: Optional[RootTable] = None):
        expected = graph_order(graph)
        if expected == float("inf"):
            raise InfiniteTypeError("cannot enumerate an infinite Coxeter group")
        if expected > cap:
            raise CapExceededError(
                f"group order {expected} exceeds the cap {cap}"
            )
        self.graph = graph
        self.table = table if table is not None else enumerate_roots(graph, eps=eps)
        n_roots = len(self.table)
        n = len(graph.vertices)

        gen_perms = np.array([self.table.generator_perm(s) for s in graph.vertices])
        if not (np.take_along_axis(gen_perms, gen_perms, axis=1) == np.arange(n_roots)).all():
            raise ValueError("a generator is not an involution on roots")
        # Keys in [0, (2P)^n) fit in int64 exactly when (2P)^n <= 2^63.
        self._radix: Optional[np.ndarray] = None
        if n_roots ** n <= 2 ** 63:
            self._radix = np.array([n_roots ** (n - 1 - j) for j in range(n)],
                                   dtype=np.int64)

        # BFS one length level at a time.  a s_k is one level deeper than
        # a exactly when a(alpha_k) is positive, and its permutation is
        # a[s_k], so its heads are a[s_k[:n]].  The queue BFS gives each
        # new element the id of its first (a, k) pair in row-major order,
        # which a stable sort of the keys finds.  Gathers index the flat
        # permutation array: row a starts at a * 2P.
        p = self.table.n_positive
        offsets = gen_perms.astype(np.intp)
        head_offsets = offsets[:, :n]
        perms = np.empty((expected, n_roots), dtype=np.int32)
        perms[0] = np.arange(n_roots)
        flat = perms.reshape(-1)
        preds = np.full((expected, 2), -1, dtype=np.intp)  # (parent, generator)
        bounds = [0, 1]
        while True:
            lo, hi = bounds[-2], bounds[-1]
            a, k = (perms[lo:hi, :n] < p).nonzero()
            if not len(a):
                break
            start = (a + lo) * n_roots
            keys = self._pack(flat[head_offsets[k] + start[:, None]])
            order = keys.argsort(kind="stable")
            ranked = keys[order]
            fresh = np.ones(len(keys), dtype=bool)
            fresh[1:] = ranked[1:] != ranked[:-1]
            first = np.sort(order[fresh])
            top = hi + len(first)
            if top > expected:
                raise RuntimeError(
                    f"enumeration exceeded the closed-form order {expected}")
            k = k[first]
            flat.take(offsets[k] + start[first, None], out=perms[hi:top])
            preds[hi:top, 0] = a[first] + lo
            preds[hi:top, 1] = k
            bounds.append(top)
        if bounds[-1] != expected:
            raise RuntimeError(
                f"enumerated {bounds[-1]} elements, closed form says {expected}"
            )
        self.perms = perms
        self.heads = np.ascontiguousarray(perms[:, :n])
        self._gen_perms = gen_perms
        self._preds = preds
        self._bounds = bounds  # level l is ids bounds[l] .. bounds[l + 1] - 1
        self.lengths = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
        # The keys of all elements, sorted, and the id of each.
        keys = self._pack(self.heads)
        order = keys.argsort(kind="stable").astype(np.int32)
        self._sorted_index = (keys[order], order)
        # right[a, k] = a s_k; the lookup also confirms closure.
        self.right = np.empty((expected, n), dtype=np.int32)
        rows = max(1, BATCH // n)
        for lo in range(0, expected, rows):
            block = perms[lo:lo + rows][:, head_offsets].reshape(-1, n)
            self.right[lo:lo + rows] = self._ids_of_heads(block).reshape(-1, n)
        self.generators = self.right[0].tolist()
        self.identity = 0
        self._inverses: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None
        self._classes: Optional[list[tuple[int, ...]]] = None
        self._class_of: Optional[np.ndarray] = None
        self._center: Optional[tuple[int, ...]] = None
        self._mult_table: Optional[np.ndarray] = None
        # Filled on first use by ordinary assignment: a cached_property
        # writes the instance __dict__ directly, which on CPython 3.11
        # slows every later attribute read on the group.
        self._head_ids: Optional[dict] = None
        self._pred_list: Optional[list[tuple[int, int]]] = None
        self._left: Optional[np.ndarray] = None
        self._gen_conj: Optional[np.ndarray] = None

    # -- the element index ---------------------------------------------------

    def _pack(self, heads: np.ndarray) -> np.ndarray:
        """Sortable keys of rows of heads: int64 in radix 2P, or the
        rows as fixed-width byte strings when that would overflow."""
        if self._radix is not None:
            return heads.astype(np.int64) @ self._radix
        rows = np.ascontiguousarray(heads, dtype=np.int32)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()

    @property
    def _index(self) -> dict:
        """Head bytes -> id, for scalar lookups."""
        if self._head_ids is None:
            rows = self.heads.view(np.dtype((np.void, self.heads.itemsize * self.heads.shape[1])))
            self._head_ids = dict(zip(rows.ravel().tolist(), range(len(self))))
        return self._head_ids

    @property
    def _pred_pairs(self) -> list[tuple[int, int]]:
        """(parent, generator) of every id as Python ints, for scalar walks."""
        if self._pred_list is None:
            self._pred_list = list(zip(*self._preds.T.tolist()))
        return self._pred_list

    def _ids_of_heads(self, heads: np.ndarray) -> np.ndarray:
        sorted_keys, order = self._sorted_index
        keys = self._pack(heads)
        pos = np.searchsorted(sorted_keys, keys)
        np.minimum(pos, len(self) - 1, out=pos)
        if not np.array_equal(sorted_keys[pos], keys):
            raise ValueError("permutation does not belong to the group")
        return order[pos]

    def mult_ids(self, A, B) -> np.ndarray:
        """Elementwise products a b of two broadcastable id arrays
        (apply b first to a root, then a)."""
        A, B = np.broadcast_arrays(np.asarray(A, dtype=np.intp),
                                   np.asarray(B, dtype=np.intp))
        a, b = A.ravel(), B.ravel()
        out = np.empty(a.size, dtype=np.int32)
        for lo in range(0, a.size, BATCH):
            ca, cb = a[lo:lo + BATCH], b[lo:lo + BATCH]
            # (ab)(alpha_i) = a(b(alpha_i)): only the heads of b are read.
            out[lo:lo + BATCH] = self._ids_of_heads(self.perms[ca[:, None], self.heads[cb]])
        return out.reshape(A.shape)

    @property
    def left(self) -> np.ndarray:
        """left[a, k] is the id of s_k a."""
        if self._left is None:
            out = np.empty_like(self.right)
            for k, ps in enumerate(self._gen_perms):
                for lo in range(0, len(self), BATCH):
                    out[lo:lo + BATCH, k] = self._ids_of_heads(ps[self.heads[lo:lo + BATCH]])
            self._left = out
        return self._left

    @property
    def gen_conj(self) -> np.ndarray:
        """gen_conj[a, k] is the id of s_k a s_k."""
        if self._gen_conj is None:
            self._gen_conj = self.left[self.right, np.arange(self.right.shape[1])]
        return self._gen_conj

    def _levels(self):
        """Per BFS level after the identity (a contiguous id range): the
        slice of its ids, their parents and their last generators."""
        for lo, hi in zip(self._bounds[1:-1], self._bounds[2:]):
            yield slice(lo, hi), self._preds[lo:hi, 0], self._preds[lo:hi, 1]

    # -- element basics ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.perms)

    def element_ids(self) -> range:
        return range(len(self.perms))

    def element_from_perm(self, perm: np.ndarray) -> int:
        perm = np.asarray(perm, dtype=np.int32)
        a = self._index.get(perm[:len(self.graph.vertices)].tobytes())
        if a is None or not np.array_equal(self.perms[a], perm):
            raise ValueError("permutation does not belong to the group")
        return a

    def mult(self, a: int, b: int) -> int:
        """Product ab (apply b first to a root, then a)."""
        return self._index[self.perms[a][self.heads[b]].tobytes()]

    def mult_table(self) -> np.ndarray:
        """Full Cayley table; only sensible for small groups."""
        if self._mult_table is None:
            if len(self) > 4096:
                raise CapExceededError("multiplication table capped at order 4096")
            tbl = np.empty((len(self), len(self)), dtype=np.int32)
            tbl[:, 0] = np.arange(len(self))
            # b = p s_k gives a b = (a p) s_k, so columns fill level by level.
            for ids, parents, gens in self._levels():
                tbl[:, ids] = self.right[tbl[:, parents], gens]
            self._mult_table = tbl
        return self._mult_table

    def inverse_table(self) -> np.ndarray:
        if self._inverses is None:
            inv = np.zeros(len(self), dtype=np.int32)
            # a = p s_k gives a^-1 = s_k p^-1.
            for ids, parents, gens in self._levels():
                inv[ids] = self.left[inv[parents], gens]
            self._inverses = inv
        return self._inverses

    def mult_many(self, ids: Iterable[int]) -> int:
        out = self.identity
        for x in ids:
            out = self.mult(out, x)
        return out

    def inv(self, a: int) -> int:
        return int(self.inverse_table()[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mult(self.mult(g, x), self.inv(g))

    def length(self, a: int) -> int:
        return int(self.lengths[a])

    def word(self, a: int) -> tuple[str, ...]:
        """A reduced word for the element, from the BFS tree."""
        out, pairs, names = [], self._pred_pairs, self.graph.vertices
        while a != 0:
            a, k = pairs[a]
            out.append(names[k])
        return tuple(reversed(out))

    def from_word(self, word: Iterable[str]) -> int:
        out = self.identity
        for s in word:
            if s not in self.graph:
                raise ValueError(f"unknown generator {s!r}")
            out = int(self.right[out, self.graph.index(s)])
        return out

    def generator(self, s: str) -> int:
        return self.generators[self.graph.index(s)]

    def images(self, a: int) -> tuple[int, ...]:
        """The element encoded by the images of all simple roots."""
        return tuple(int(x) for x in self.heads[a])

    def element_order(self, a: int) -> int:
        if self._orders is None:
            self._orders = np.zeros(len(self), dtype=np.int32)
        if self._orders[a] == 0:
            k, x = 1, a
            while x != 0:
                x = self.mult(x, a)
                k += 1
            self._orders[a] = k
        return int(self._orders[a])

    def involutions(self) -> list[int]:
        inv = self.inverse_table()
        return np.flatnonzero(inv == np.arange(len(self)))[1:].tolist()

    def phi(self, a: int) -> frozenset[int]:
        return phi_w(self.perms[a], self.table)

    # -- classes and center ----------------------------------------------------

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Orbits of a -> s a s over the generators, ordered by their
        smallest member, each sorted."""
        if self._classes is None:
            self._classes, self._class_of = _orbits(self.gen_conj)
        return self._classes

    def class_of(self, a: int) -> int:
        self.conjugacy_classes()
        return int(self._class_of[a])

    def center(self) -> tuple[int, ...]:
        if self._center is None:
            central = (self.right == self.left).all(axis=1)
            self._center = tuple(np.flatnonzero(central).tolist())
        return self._center

    # -- subgroups ---------------------------------------------------------------

    def subgroup(self, ids: Iterable[int], verified: bool = False) -> "SubgroupHandle":
        return SubgroupHandle(self, frozenset(int(i) for i in ids), _trusted=verified)

    def whole(self) -> "SubgroupHandle":
        return SubgroupHandle(self, frozenset(self.element_ids()), _trusted=True)

    def trivial_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, frozenset([0]), _trusted=True)

    def parabolic(self, subset: Iterable[str]) -> "SubgroupHandle":
        """W_I, with its simple generators as its generating set: they
        are its smallest ids after the identity (ids 1..n are the
        generators in vertex order) and none lies in the span of the
        others, so they are what the greedy choice would return."""
        gens = sorted({self.generator(s) for s in subset})
        H = subgroup_closure(self, gens)
        H._gens = gens
        return H


class SubgroupHandle:
    """Explicit element-id set closed under product and inverse."""

    def __init__(self, group: EnumeratedGroup, ids: frozenset[int], _trusted: bool = False):
        self.group = group
        self.ids = ids
        if 0 not in ids:
            raise ValueError("subgroup must contain the identity")
        self._gens: Optional[list[int]] = None
        if not _trusted:
            span, self._gens = _closure(group, sorted(ids))
            if np.count_nonzero(span) != len(ids):
                raise ValueError("id set is not closed under product/inverse")

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, a: int) -> bool:
        return a in self.ids

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupHandle)
            and self.group is other.group
            and self.ids == other.ids
        )

    def __hash__(self):
        return hash((id(self.group), self.ids))

    def sorted_ids(self) -> list[int]:
        return sorted(self.ids)

    def generating_set(self) -> list[int]:
        """A small generating set, greedily chosen in id order."""
        if self._gens is None:
            self._gens = _closure(self.group, self.sorted_ids())[1]
        return self._gens

    def mask(self) -> np.ndarray:
        """Membership of every group element, as a boolean array."""
        inside = np.zeros(len(self.group), dtype=bool)
        inside[list(self.ids)] = True
        return inside

    def is_normal(self) -> bool:
        G = self.group
        s = np.array(G.generators, dtype=np.intp)[:, None]
        h = np.array(self.generating_set(), dtype=np.intp)[None, :]
        return bool(self.mask()[G.mult_ids(G.mult_ids(s, h), G.inverse_table()[s])].all())

    def is_abelian(self) -> bool:
        gens = np.array(self.generating_set(), dtype=np.intp)
        G = self.group
        return bool(np.array_equal(G.mult_ids(gens[:, None], gens[None, :]),
                                   G.mult_ids(gens[None, :], gens[:, None])))

    def center(self) -> frozenset[int]:
        """Z(H): the elements of H that commute with its generators."""
        ids = _commuting(self.group, np.array(self.sorted_ids()), self.generating_set())
        return frozenset(ids.tolist())

    def as_view(self) -> "GroupView":
        return GroupView.of_subgroup(self)


def _closure(G, gens: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """The subgroup of G (an EnumeratedGroup or a GroupView) generated
    by ``gens`` as a membership mask, and the generators it used: each
    one in turn that is not yet in the span of those before it.  A new generator multiplies the current span once;
    each element found after that multiplies every generator used so
    far, so no element meets a generator twice."""
    seen = np.zeros(len(G), dtype=bool)
    seen[G.identity] = True
    used: list[int] = []
    for g in gens:
        if seen[g]:
            continue
        used.append(int(g))
        cols = np.array(used, dtype=np.intp)
        products = G.mult_ids(np.flatnonzero(seen), g)
        while len(products):
            frontier = np.unique(products[~seen[products]])
            seen[frontier] = True
            products = G.mult_ids(frontier[:, None], cols[None, :]).ravel()
    return seen, used


def _filter(cands: np.ndarray, xs: Sequence[int], keep) -> np.ndarray:
    """The candidates c with ``keep(c, x)`` true for every x; ``keep``
    takes a column of candidates and a row of xs.  Blocks of xs double
    in size, so that early blocks shrink the candidates cheaply, and
    hold at most BATCH pairs."""
    xs = np.asarray(list(xs), dtype=np.intp)
    lo = 0
    while lo < len(xs):
        block = xs[lo:lo + max(1, min(lo, BATCH // len(cands)))]
        lo += len(block)
        cands = cands[keep(cands[:, None], block[None, :]).all(axis=1)]
    return cands


def _commuting(G: EnumeratedGroup, cands: np.ndarray, xs: Iterable[int]) -> np.ndarray:
    """The candidates that commute with every x.  The identity, which
    commutes with everything, is left out of the xs."""
    return _filter(cands, sorted({int(x) for x in xs} - {G.identity}),
                   lambda a, x: G.mult_ids(a, x) == G.mult_ids(x, a))


def _orbits(perms: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Orbits of the permutations in the columns of ``perms``
    (``perms[x, k]`` is the image of x under the k-th), ordered by their
    smallest member, each sorted; and the orbit index of every point.

    Each point takes the smallest label among itself and its images,
    then its label's label, until nothing changes.  Labels stay inside
    the orbit and never grow.  At the fixed point no label exceeds the
    labels of the point's images, so labels are constant along every
    cycle of every column, hence on each orbit; and the orbit's
    smallest member still carries itself, so that is the constant."""
    label = np.arange(len(perms))
    while True:
        low = np.minimum(label, label[perms].min(axis=1, initial=len(perms)))
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    _, orbit_of = np.unique(label, return_inverse=True)
    members = np.argsort(orbit_of, kind="stable").tolist()
    ends = np.cumsum(np.bincount(orbit_of)).tolist()
    return [tuple(members[lo:hi]) for lo, hi in zip([0] + ends, ends)], orbit_of


# -- module operations ---------------------------------------------------------


def enumerate_group(g: CoxeterGraph, cap: int = DEFAULT_GROUP_CAP,
                    eps: float = DEFAULT_EPS) -> EnumeratedGroup:
    return EnumeratedGroup(g, cap=cap, eps=eps)


def subgroup_closure(G: EnumeratedGroup, gens: Iterable[int],
                     normal: bool = False) -> SubgroupHandle:
    """Smallest subgroup containing ``gens``; with ``normal`` the
    smallest normal subgroup, generated by the conjugacy classes of
    ``gens``."""
    gen_list = [int(a) for a in gens]
    if normal:
        classes = G.conjugacy_classes()
        gen_list = sorted({x for a in gen_list for x in classes[G.class_of(a)]})
    span, _ = _closure(G, gen_list)
    return SubgroupHandle(G, frozenset(np.flatnonzero(span).tolist()), _trusted=True)


def centralizer(G: EnumeratedGroup, xs: Iterable[int]) -> SubgroupHandle:
    """{g : gx = xg for all x}; the whole group when ``xs`` is empty."""
    ids = _commuting(G, np.arange(len(G)), xs)
    return SubgroupHandle(G, frozenset(ids.tolist()), _trusted=True)


def normalizer(G: EnumeratedGroup, H: SubgroupHandle) -> SubgroupHandle:
    """{g : gHg^-1 = H}.  Conjugating a generating set of H into H is
    enough since conjugation is an automorphism and H is finite."""
    inside = H.mask()
    inv = G.inverse_table()
    ids = _filter(np.arange(len(G)), H.generating_set(),
                  lambda a, h: inside[G.mult_ids(G.mult_ids(a, h), inv[a])])
    return SubgroupHandle(G, frozenset(ids.tolist()), _trusted=True)


def core(G: EnumeratedGroup, H: SubgroupHandle) -> SubgroupHandle:
    """Largest normal subgroup inside H: the union of the conjugacy
    classes entirely contained in H."""
    classes = G.conjugacy_classes()
    broken = np.zeros(len(classes), dtype=bool)
    broken[G._class_of[~H.mask()]] = True
    ids = np.flatnonzero(~broken[G._class_of])
    return SubgroupHandle(G, frozenset(ids.tolist()), _trusted=True)


def reflection_of_root(G: EnumeratedGroup, root_id: int) -> int:
    """The group element acting as the reflection along the root."""
    return G.element_from_perm(G.table.reflection_perm(root_id))


# -- generic isomorphism search -------------------------------------------------


class GroupView:
    """A finite group as its Cayley table on local ids 0..n-1:
    ``table[a, b]`` is the local id of ab.  The identity, inverses,
    element orders, conjugacy classes and a generating set all derive
    from the table with array operations; an EnumeratedGroup or any of
    its subgroups becomes a view through ``of_group`` / ``of_subgroup``."""

    def __init__(self, table, preferred_gens: Optional[Sequence[int]] = None):
        self.table = np.asarray(table, dtype=np.int32)
        self.size = len(self.table)
        if self.table.shape != (self.size, self.size):
            raise ValueError("a Cayley table must be square")
        # A group has exactly one idempotent, its identity.
        idempotents = np.flatnonzero(self.table.diagonal() == np.arange(self.size))
        if len(idempotents) != 1:
            raise ValueError("a Cayley table must have exactly one idempotent")
        self.identity = int(idempotents[0])
        self._preferred = None if preferred_gens is None else [int(g) for g in preferred_gens]
        self._classes: Optional[list[tuple[int, ...]]] = None
        # Filled on first use by ordinary assignment, as in EnumeratedGroup.
        self._inverses: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None

    @staticmethod
    def of_group(G: EnumeratedGroup) -> "GroupView":
        return GroupView(G.mult_table(), G.generators)

    @staticmethod
    def of_subgroup(H: SubgroupHandle) -> "GroupView":
        """H on the positions of its sorted ids, built in row blocks of
        at most BATCH products."""
        local = np.array(H.sorted_ids(), dtype=np.intp)
        position = np.empty(len(H.group), dtype=np.int32)
        position[local] = np.arange(len(local))
        table = np.empty((len(local), len(local)), dtype=np.int32)
        rows = max(1, BATCH // len(local))
        for lo in range(0, len(local), rows):
            table[lo:lo + rows] = position[H.group.mult_ids(local[lo:lo + rows, None], local)]
        return GroupView(table, position[H.generating_set()])

    def __len__(self) -> int:
        return self.size

    def mult_ids(self, A, B) -> np.ndarray:
        return self.table[A, B]

    @property
    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            a, b = np.nonzero(self.table == self.identity)
            out = np.empty(self.size, dtype=np.intp)
            out[a] = b
            self._inverses = out
        return self._inverses

    @property
    def orders(self) -> np.ndarray:
        """orders[a] is the order of a, from powers of all elements at once."""
        if self._orders is None:
            out = np.zeros(self.size, dtype=np.int32)
            todo = np.arange(self.size)
            power = todo
            k = 1
            while len(todo):
                done = power == self.identity
                out[todo[done]] = k
                todo, power = todo[~done], power[~done]
                power = self.table[power, todo]
                k += 1
            self._orders = out
        return self._orders

    def generating_set(self) -> list[int]:
        """The preferred generators, else a greedy choice in id order."""
        if self._preferred is None:
            self._preferred = _closure(self, range(self.size))[1]
        return list(self._preferred)

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Orbits of conjugation by the generators, ordered by their
        smallest member, each sorted."""
        if self._classes is None:
            gens = np.array(self.generating_set(), dtype=np.intp)
            # conj[x, k] = g_k x g_k^-1
            conj = self.table[self.table[gens].T, self.inverses[gens]]
            self._classes, self._class_of = _orbits(conj)
        return self._classes

    def class_sizes(self) -> np.ndarray:
        """The size of the conjugacy class of every element."""
        self.conjugacy_classes()
        return np.bincount(self._class_of)[self._class_of]


def _fill_plan(view: GroupView, gens: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """How the images of ``gens`` fix a homomorphism on all of
    ``view``: rounds of (xs, as, bs) with x = ab, where a and b are the
    identity, generators or elements of earlier rounds.

    A BFS over ``gens`` gives every x its depth d (its word length) and
    a parent one step closer to the identity.  Then a is the ancestor of
    x at depth ceil(d/2) and b = a^-1 x has depth at most floor(d/2), so
    round r covers the depths 2^(r-1) + 1 .. 2^r: about log2 of the
    largest depth rounds, not one per depth."""
    n = view.size
    depth = np.full(n, -1)
    depth[view.identity] = 0
    parent = np.arange(n)
    frontier = np.array([view.identity])
    d = 0
    while len(frontier):
        d += 1
        products = view.table[frontier[:, None], gens[None, :]].ravel()
        pos = np.flatnonzero(depth[products] < 0)
        xs, first = np.unique(products[pos], return_index=True)
        depth[xs] = d
        parent[xs] = frontier[pos[first] // len(gens)]
        frontier = xs
    if (depth < 0).any():
        raise ValueError("generating set does not generate the view")
    anc = np.arange(n)
    while True:
        up = np.flatnonzero(depth[anc] > (depth + 1) // 2)
        if not len(up):
            break
        anc[up] = parent[anc[up]]
    b = view.table[view.inverses[anc], np.arange(n)]
    rounds = []
    lo = 2
    while lo < d:
        xs = np.flatnonzero((depth >= lo) & (depth <= 2 * lo - 2))
        rounds.append((xs, anc[xs], b[xs]))
        lo = 2 * lo - 1
    return rounds


def find_isomorphism(
    G1, G2, all_maps: bool = False, cap: int = DEFAULT_ISO_CAP
) -> list[list[int]]:
    """Isomorphisms G1 -> G2 by generator-image backtracking.

    Accepts EnumeratedGroups, SubgroupHandles or GroupViews.  Returns
    a list of maps (element array indexed by G1-local id); empty when
    the groups are not isomorphic, a single map unless ``all_maps``.
    Every returned map is verified to be a bijection and a homomorphism
    on every (element, generator) cell, hence on the whole table.  Each
    view holds an N x N int32 table, so ``cap`` bounds the memory.
    """
    if len(G1) != len(G2):
        return []
    if len(G1) > cap:
        raise CapExceededError(f"isomorphism search capped at order {cap}")
    v1 = _as_view(G1)
    v2 = v1 if G2 is G1 else _as_view(G2)
    T1, T2, ord1, ord2 = v1.table, v2.table, v1.orders, v2.orders
    if not np.array_equal(np.sort(ord1), np.sort(ord2)):
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
    # Try scarce generators first.
    order = sorted(range(len(gens)), key=lambda i: len(candidates[i]))
    gens = np.array([gens[i] for i in order], dtype=np.intp)
    candidates = [candidates[i] for i in order]
    pair_orders = ord1[T1[gens[:, None], gens[None, :]]]
    plan = _fill_plan(v1, gens)
    rows = max(1, BATCH // v1.size)
    gen_cols = T1[:, gens]
    found: list[list[int]] = []
    images: list[int] = []

    def verify(assign: np.ndarray) -> Optional[list[int]]:
        fa = np.empty(v1.size, dtype=np.int32)
        fa[gens] = assign
        fa[v1.identity] = v2.identity
        for xs, a, b in plan:
            fa[xs] = T2[fa[a], fa[b]]
        # Homomorphism on every (element, generator) cell of the
        # table; by induction on word length this covers all pairs.
        if not (fa.take(gen_cols) == T2.take(assign, axis=1).take(fa, axis=0)).all():
            return None
        # A homomorphism between groups of one order is a bijection
        # exactly when its kernel is trivial.
        if np.count_nonzero(fa == v2.identity) != 1:
            return None
        # Full-table confirmation, once per search when enumerating
        # large automorphism groups, on every hit otherwise; in blocks
        # of at most BATCH cells.
        if not all_maps or not found or v1.size <= 256:
            for lo in range(0, v1.size, rows):
                if not (fa.take(T1[lo:lo + rows])
                        == T2.take(fa[lo:lo + rows], axis=0).take(fa, axis=1)).all():
                    return None
        return fa.tolist()

    def images_for(k: int) -> list[int]:
        """Candidates for generator k whose products with the images
        already chosen have the orders the generators' products have;
        largest first, so that pop() tries them in id order."""
        cands = candidates[k]
        for j in range(k):
            cands = cands[ord2[T2[cands, images[j]]] == pair_orders[k, j]]
        return cands[::-1].tolist()

    # Depth-first over the generator images: untried[k] holds the
    # candidates for generator k not tried yet, images[k] the one being
    # tried.  A loop rather than a recursive closure, which would form a
    # reference cycle keeping both tables alive until a full collection.
    untried: list[list[int]] = []
    while True:
        if len(images) < len(gens):
            untried.append(images_for(len(images)))
        else:
            f = verify(np.array(images, dtype=np.intp))
            if f is not None:
                found.append(f)
                if not all_maps:
                    break
        while untried and not untried[-1]:
            untried.pop()
        if not untried:
            break
        del images[len(untried) - 1:]
        images.append(untried[-1].pop())
    return found


def _as_view(G) -> GroupView:
    if isinstance(G, GroupView):
        return G
    if isinstance(G, SubgroupHandle):
        return G.as_view()
    if isinstance(G, EnumeratedGroup):
        return GroupView.of_group(G)
    raise TypeError(f"cannot view {type(G).__name__} as a finite group")
