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

import itertools
from functools import cached_property
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

        gen_perms = [self.table.generator_perm(s) for s in graph.vertices]
        for s, p in zip(graph.vertices, gen_perms):
            if not np.array_equal(p[p], np.arange(n_roots)):
                raise ValueError(f"generator {s} is not an involution on roots")

        # Python BFS in id order on head keys; a vectorized level-by-level
        # BFS is slower on groups with many narrow levels, such as I2(m)
        # (about m/2 levels of two elements each).  One gather per element
        # gives the heads of all its right multiples: (w s)(i) = w(s(i)),
        # so w s_k has the heads w[s_k[:n]].
        gen_heads = np.array([p[:n] for p in gen_perms], dtype=np.int32).ravel()
        width = 4 * n  # bytes of one int32 head key
        perms = [np.arange(n_roots, dtype=np.int32)]
        index = {perms[0][:n].tobytes(): 0}
        preds: list[tuple[int, int]] = [(-1, -1)]
        lengths = [0]
        right: list[int] = []
        a = 0
        while a < len(perms):
            pa = perms[a]
            row = pa[gen_heads].tobytes()
            for k in range(n):
                key = row[k * width:(k + 1) * width]
                b = index.get(key)
                if b is None:
                    if len(perms) == expected:
                        raise RuntimeError(
                            f"enumeration exceeded the closed-form order {expected}")
                    b = index[key] = len(perms)
                    perms.append(pa[gen_perms[k]])
                    preds.append((a, k))
                    lengths.append(lengths[a] + 1)
                right.append(b)
            a += 1
        if len(perms) != expected:
            raise RuntimeError(
                f"enumerated {len(perms)} elements, closed form says {expected}"
            )
        self.perms = np.array(perms, dtype=np.int32)
        self.heads = np.ascontiguousarray(self.perms[:, :n])
        self.right = np.array(right, dtype=np.int32).reshape(len(perms), n)
        self._gen_perms = gen_perms
        self._index = index
        self._preds = preds
        self.lengths = np.array(lengths, dtype=np.int32)
        # Keys in [0, (2P)^n) fit in int64 exactly when (2P)^n <= 2^63.
        self._radix: Optional[np.ndarray] = None
        if n_roots ** n <= 2 ** 63:
            self._radix = np.array([n_roots ** (n - 1 - j) for j in range(n)],
                                   dtype=np.int64)
        self.generators = self.right[0].tolist()
        self.identity = 0
        self._inverses: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None
        self._classes: Optional[list[tuple[int, ...]]] = None
        self._class_of: Optional[np.ndarray] = None
        self._center: Optional[tuple[int, ...]] = None
        self._mult_table: Optional[np.ndarray] = None

    # -- the element index ---------------------------------------------------

    def _pack(self, heads: np.ndarray) -> np.ndarray:
        """Sortable keys of rows of heads: int64 in radix 2P, or the
        rows as fixed-width byte strings when that would overflow."""
        if self._radix is not None:
            return heads.astype(np.int64) @ self._radix
        rows = np.ascontiguousarray(heads, dtype=np.int32)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()

    @cached_property
    def _sorted_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys of all elements, sorted, and the id of each."""
        keys = self._pack(self.heads)
        order = np.argsort(keys, kind="stable").astype(np.int32)
        return keys[order], order

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

    @cached_property
    def left(self) -> np.ndarray:
        """left[a, k] is the id of s_k a."""
        out = np.empty_like(self.right)
        for k, ps in enumerate(self._gen_perms):
            for lo in range(0, len(self), BATCH):
                out[lo:lo + BATCH, k] = self._ids_of_heads(ps[self.heads[lo:lo + BATCH]])
        return out

    @cached_property
    def gen_conj(self) -> np.ndarray:
        """gen_conj[a, k] is the id of s_k a s_k."""
        return self.left[self.right, np.arange(self.right.shape[1])]

    def _levels(self):
        """Per BFS level after the identity (a contiguous id range): the
        slice of its ids, their parents and their last generators."""
        parents = np.array([p for p, _ in self._preds], dtype=np.intp)
        gens = np.array([k for _, k in self._preds], dtype=np.intp)
        edges = [*(np.flatnonzero(np.diff(self.lengths)) + 1).tolist(), len(self)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            yield slice(lo, hi), parents[lo:hi], gens[lo:hi]

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
        out = []
        while a != 0:
            a, k = self._preds[a]
            out.append(self.graph.vertices[k])
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
            # Each element takes the smallest label among itself and its
            # conjugates, then its label's label, until nothing changes:
            # conjugation by s is an involution, so the labels end constant
            # on each orbit, equal to its smallest member.
            label = np.arange(len(self))
            while True:
                low = np.minimum(label, label[self.gen_conj].min(axis=1))
                low = low[low]
                if np.array_equal(low, label):
                    break
                label = low
            _, class_of = np.unique(label, return_inverse=True)
            members = np.argsort(class_of, kind="stable").tolist()
            ends = np.cumsum(np.bincount(class_of)).tolist()
            self._classes = [tuple(members[lo:hi]) for lo, hi in zip([0] + ends, ends)]
            self._class_of = class_of
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
        return subgroup_closure(self, [self.generator(s) for s in subset])


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

    def is_normal(self) -> bool:
        G = self.group
        return all(
            G.conj(s, h) in self.ids
            for s in G.generators
            for h in self.generating_set()
        )

    def is_abelian(self) -> bool:
        gens = self.generating_set()
        G = self.group
        return all(
            G.mult(a, b) == G.mult(b, a)
            for a, b in itertools.combinations(gens, 2)
        )

    def as_view(self) -> "GroupView":
        return GroupView.of_subgroup(self)


def _closure(G: EnumeratedGroup, gens: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """The subgroup generated by ``gens`` as a membership mask, and the
    generators it used: each one in turn that is not yet in the span of
    those before it.  A new generator multiplies the current span once;
    each element found after that multiplies every generator used so
    far, so no element meets a generator twice."""
    seen = np.zeros(len(G), dtype=bool)
    seen[0] = True
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
    ids = _filter(np.arange(len(G)), sorted(int(x) for x in xs),
                  lambda a, x: G.mult_ids(a, x) == G.mult_ids(x, a))
    return SubgroupHandle(G, frozenset(ids.tolist()), _trusted=True)


def normalizer(G: EnumeratedGroup, H: SubgroupHandle) -> SubgroupHandle:
    """{g : gHg^-1 = H}.  Conjugating a generating set of H into H is
    enough since conjugation is an automorphism and H is finite."""
    inside = np.zeros(len(G), dtype=bool)
    inside[list(H.ids)] = True
    inv = G.inverse_table()
    ids = _filter(np.arange(len(G)), H.generating_set(),
                  lambda a, h: inside[G.mult_ids(G.mult_ids(a, h), inv[a])])
    return SubgroupHandle(G, frozenset(ids.tolist()), _trusted=True)


def core(G: EnumeratedGroup, H: SubgroupHandle) -> SubgroupHandle:
    """Largest normal subgroup inside H: the union of the conjugacy
    classes entirely contained in H."""
    classes = G.conjugacy_classes()
    outside = np.ones(len(G), dtype=bool)
    outside[list(H.ids)] = False
    broken = np.zeros(len(classes), dtype=bool)
    broken[G._class_of[outside]] = True
    ids = np.flatnonzero(~broken[G._class_of])
    return SubgroupHandle(G, frozenset(ids.tolist()), _trusted=True)


def reflection_of_root(G: EnumeratedGroup, root_id: int) -> int:
    """The group element acting as the reflection along the root."""
    return G.element_from_perm(G.table.reflection_perm(root_id))


# -- generic isomorphism search -------------------------------------------------


class GroupView:
    """A finite group presented as local indices 0..n-1 with a
    multiplication oracle; an EnumeratedGroup or any subgroup of one."""

    def __init__(self, size, mult, inv, order_of, preferred_gens=None, label="",
                 table_source: Optional["EnumeratedGroup"] = None):
        self.size = size
        self.mult = mult
        self.inv = inv
        self.order_of = order_of
        self._preferred = preferred_gens
        self.label = label
        self._classes: Optional[list[tuple[int, ...]]] = None
        self._table_source = table_source

    def mult_array(self) -> Optional[np.ndarray]:
        """Full Cayley table when cheap to obtain, else None."""
        if self._table_source is not None and self.size <= 1024:
            return self._table_source.mult_table()
        return None

    @staticmethod
    def of_group(G: EnumeratedGroup) -> "GroupView":
        return GroupView(
            size=len(G),
            mult=G.mult,
            inv=G.inv,
            order_of=G.element_order,
            preferred_gens=list(G.generators),
            label="W",
            table_source=G,
        )

    @staticmethod
    def of_subgroup(H: SubgroupHandle) -> "GroupView":
        G = H.group
        local = H.sorted_ids()
        back = {g: i for i, g in enumerate(local)}
        return GroupView(
            size=len(local),
            mult=lambda a, b: back[G.mult(local[a], local[b])],
            inv=lambda a: back[G.inv(local[a])],
            order_of=lambda a: G.element_order(local[a]),
            preferred_gens=[back[g] for g in H.generating_set()],
            label="H",
        )

    def identity(self) -> int:
        return next(a for a in range(self.size) if self.mult(a, a) == a)

    def generating_set(self) -> list[int]:
        if self._preferred:
            return list(self._preferred)
        gens: list[int] = []
        span = {self.identity()}
        for a in range(self.size):
            if a not in span:
                gens.append(a)
                span = self._span(gens)
                if len(span) == self.size:
                    break
        return gens

    def _span(self, gens: Sequence[int]) -> set[int]:
        e = self.identity()
        seen = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.mult(a, g)
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return seen

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        if self._classes is None:
            gens = self.generating_set()
            inv_gens = [self.inv(g) for g in gens]
            remaining = set(range(self.size))
            classes = []
            while remaining:
                a = min(remaining)
                orbit = {a}
                queue = [a]
                while queue:
                    x = queue.pop()
                    for g, gi in zip(gens, inv_gens):
                        y = self.mult(self.mult(g, x), gi)
                        if y not in orbit:
                            orbit.add(y)
                            queue.append(y)
                classes.append(tuple(sorted(orbit)))
                remaining -= orbit
            self._classes = classes
        return self._classes

    def class_index(self) -> dict[int, int]:
        return {x: i for i, cls in enumerate(self.conjugacy_classes()) for x in cls}

    def order_spectrum(self) -> tuple[int, ...]:
        return tuple(sorted(self.order_of(a) for a in range(self.size)))


def _bfs_words(view: GroupView, gens: Sequence[int]):
    """Predecessor tree over the generating set: preds[x] = (parent,
    generator index) with the identity as the root; also returns the
    discovery order."""
    e = view.identity()
    preds: list[Optional[tuple[int, int]]] = [None] * view.size
    seen = {e}
    preds[e] = (-1, -1)
    frontier = [e]
    order = []
    while frontier:
        nxt = []
        for a in frontier:
            for k, g in enumerate(gens):
                b = view.mult(a, g)
                if b not in seen:
                    seen.add(b)
                    preds[b] = (a, k)
                    nxt.append(b)
        frontier = nxt
        order.extend(nxt)
    if len(seen) != view.size:
        raise ValueError("generating set does not generate the view")
    return preds, order


def find_isomorphism(
    G1, G2, all_maps: bool = False, cap: int = DEFAULT_ISO_CAP
) -> list[list[int]]:
    """Isomorphisms G1 -> G2 by generator-image backtracking.

    Accepts EnumeratedGroups, SubgroupHandles or GroupViews.  Returns
    a list of maps (element array indexed by G1-local id); empty when
    the groups are not isomorphic, a single map unless ``all_maps``.
    Every returned map is verified to be a bijective homomorphism on
    the full multiplication table.
    """
    v1 = _as_view(G1)
    v2 = _as_view(G2)
    if v1.size != v2.size:
        return []
    if v1.size > cap:
        raise CapExceededError(f"isomorphism search capped at order {cap}")
    if v1.order_spectrum() != v2.order_spectrum():
        return []
    cls1, cls2 = v1.conjugacy_classes(), v2.conjugacy_classes()
    sig1 = sorted((len(c), v1.order_of(c[0])) for c in cls1)
    sig2 = sorted((len(c), v2.order_of(c[0])) for c in cls2)
    if sig1 != sig2:
        return []

    gens = v1.generating_set()
    cidx1 = v1.class_index()
    idx2 = v2.class_index()
    size2 = {i: len(c) for i, c in enumerate(cls2)}
    candidates = []
    for g in gens:
        o = v1.order_of(g)
        c = len(cls1[cidx1[g]])
        cand = [t for t in range(v2.size)
                if v2.order_of(t) == o and size2[idx2[t]] == c]
        if not cand:
            return []
        candidates.append(cand)

    # Try scarce generators first.
    order = sorted(range(len(gens)), key=lambda i: len(candidates[i]))
    gens_sorted = [gens[i] for i in order]
    cands_sorted = [candidates[i] for i in order]

    pair_orders = [
        [v1.order_of(v1.mult(gens_sorted[i], gens_sorted[j])) for j in range(i)]
        for i in range(len(gens_sorted))
    ]
    preds, bfs_order = _bfs_words(v1, gens_sorted)
    found: list[list[int]] = []
    images: list[int] = []
    e1, e2 = v1.identity(), v2.identity()
    table1, table2 = v1.mult_array(), v2.mult_array()
    if table2 is not None:
        def mult2(a, b):
            return int(table2[a, b])
    else:
        mult2 = v2.mult

    # Group the BFS tree by depth so a candidate map extends with one
    # table lookup per level.
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    depth_of = {e1: 0}
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for x in bfs_order:
        parent, k = preds[x]
        d = depth_of[parent] + 1
        depth_of[x] = d
        buckets.setdefault(d, []).append((x, parent, k))
    for d in sorted(buckets):
        xs, ps, ks = zip(*buckets[d])
        levels.append((np.array(xs), np.array(ps), np.array(ks)))

    gen_cols = np.array(gens_sorted, dtype=np.int32)

    def verify(assignment: Sequence[int]) -> Optional[list[int]]:
        if table1 is not None and table2 is not None:
            fa = np.empty(v1.size, dtype=np.int32)
            fa[e1] = e2
            assign = np.array(assignment, dtype=np.int32)
            for xs, ps, ks in levels:
                fa[xs] = table2[fa[ps], assign[ks]]
            if len(np.unique(fa)) != v1.size:
                return None
            # Homomorphism on every (element, generator) cell of the
            # table; by induction on word length this covers all pairs.
            if not np.array_equal(fa[table1[:, gen_cols]],
                                  table2[fa[:, None], assign[None, :]]):
                return None
            # Full-table confirmation, once per search when enumerating
            # large automorphism groups, on every hit otherwise.
            if not all_maps or not found or v1.size <= 256:
                if not np.array_equal(fa[table1], table2[np.ix_(fa, fa)]):
                    return None
            return [int(x) for x in fa]
        f = [-1] * v1.size
        f[e1] = e2
        for x in bfs_order:
            parent, k = preds[x]
            f[x] = v2.mult(f[parent], assignment[k])
        if len(set(f)) != v1.size:
            return None
        # Generator-based check first: cheap, and already implies the
        # homomorphism property by induction on word length.
        for a in range(v1.size):
            fa = f[a]
            for g, t in zip(gens_sorted, assignment):
                if f[v1.mult(a, g)] != v2.mult(fa, t):
                    return None
        for a in range(v1.size):
            fa = f[a]
            for b in range(v1.size):
                if f[v1.mult(a, b)] != v2.mult(fa, f[b]):
                    return None
        return f

    def extend(k: int) -> bool:
        if k == len(gens_sorted):
            f = verify(images)
            if f is not None:
                found.append(f)
                return not all_maps
            return False
        for t in cands_sorted[k]:
            ok = all(
                v2.order_of(mult2(t, images[j])) == pair_orders[k][j]
                for j in range(k)
            )
            if not ok:
                continue
            images.append(t)
            if extend(k + 1):
                return True
            images.pop()
        return False

    extend(0)
    return found


def _as_view(G) -> GroupView:
    if isinstance(G, GroupView):
        return G
    if isinstance(G, SubgroupHandle):
        return G.as_view()
    if isinstance(G, EnumeratedGroup):
        return GroupView.of_group(G)
    raise TypeError(f"cannot view {type(G).__name__} as a finite group")
