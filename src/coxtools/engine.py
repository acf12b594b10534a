"""Exact finite-group arithmetic on top of the root-permutation encoding.

Every element of a finite Coxeter group acts as a permutation of the
root table; that permutation is stored once per element, as int16 while
every root id fits, so all group arithmetic after the root BFS is
integer-exact.
BFS order (generators taken in vertex order) fixes the element ids,
with the identity at id 0.  These are the shortlex ids: by length, and
within a length by the lexicographically least reduced word NF(x).
Since NF(a b) = NF(a) + NF(b) for a reduced product and its least pair
(id(a), id(b)) of fixed lengths, the enumeration can extend a narrow
length level by a whole ball of short elements in one step and still
give every element its queue-BFS id.

An element is keyed by its *heads*: the images of the n simple roots,
the first n entries of its permutation, which determine it.  Scalar
lookups hash the bytes of the heads; batched lookups (``mult_ids``)
pack them into one int64 in radix 2P (P positive roots), sort those
keys once and resolve whole arrays with ``searchsorted``.  When
(2P)^n does not fit in int64 the same lookup sorts the heads as
fixed-width byte strings instead.  The heads of a product word
x1 ... xk are the heads of xk mapped by each earlier factor
(``heads_of``), so a word costs one lookup whatever its length, and
a b = b a is decided on heads with none.  The enumeration records the
right generator table ``right[a, k] = a s_k``; ``left[a, k] = s_k a``
is filled on first use.  The batched routines below go through
``mult_ids``, in blocks of at most ``BATCH`` products.

A table read replaces lookups: ``mult_ids`` answers a product x g
whose right factor holds only simple generators (ids 1..n) as
``right[x, g - 1]``, so a closure by simple generators (a parabolic,
the normal closure of a reflection class) walks ``right``.

The scalar methods read a Python int at each step, not a NumPy scalar:
``from_word`` resolves a letter with one lookup in the graph's
vertex -> index map and steps with ``right.item``, ``inv`` and
``length`` read with ``.item``, ``word`` walks the BFS tree with
``.item``, ``element_order`` walks the row through a memoryview, and
``mult`` gathers a row with ``take`` before its dict lookup.  They keep
no memo (of orders or anything else) and no Python copy of a table.

Groups are logically immutable after construction; the lazily filled
caches (inverses, classes, Cayley table) are deterministic and
idempotent, so concurrent readers always observe consistent values.
"""

from __future__ import annotations

import math
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .classify import classify_components, graph_order
from .errors import CapExceededError, InfiniteTypeError, VerificationError
from .graph import CoxeterGraph
from .rootspace import RootTable, enumerate_roots, phi_w

DEFAULT_GROUP_CAP = 10_000
DEFAULT_ISO_CAP = 1_200
# Largest order with a Cayley table: two of them, as the isomorphism
# search holds, take 128 MB at this order.
TABLE_CAP = 4096
# Products per batched lookup.  Bounds the temporaries of every batched
# routine, so peak memory does not grow with the number of products a
# closure or filter asks for at once.
BATCH = 1 << 15
# Bound on (level width) x (ball size) x (ball depth) of one element
# BFS step, which bounds the roots its validity test gathers.
BALL = BATCH // 32
# A shallower ball step, with the ball it may have to gather first,
# costs more than the level steps it replaces.
MIN_BALL_DEPTH = 4
# A closure by simple generators, whose rounds read ``right``, takes
# span rounds, which look every product up, only above this span size:
# below it they save few rounds.  So the rank-2 parabolics up to
# W(I2(8)), order 16, close with no lookup.
WALK_SPAN = 16


class _Ball(NamedTuple):
    """The elements of lengths 1..depth, as one step of the element BFS
    multiplies a level by them."""

    perms: np.ndarray       # (m, 2P)
    heads: np.ndarray       # (m, n), as gather offsets into a row
    inversions: np.ndarray  # (m, depth): N(b^-1), padded with its first root
    last: np.ndarray        # last letter of NF(b)
    lengths: np.ndarray

    @property
    def depth(self) -> int:
        return self.inversions.shape[1]

    @classmethod
    def of_levels(cls, perms, preds, bounds, depth: int, p: int, n: int) -> "_Ball":
        """Levels 1..depth of a BFS in progress."""
        m = bounds[depth + 1]
        rows, neg = perms[1:m], perms[1:m, p:]
        # A stable sort puts the positive entries first, in root order.
        cols = np.argsort(neg >= p, axis=1, kind="stable")[:, :depth]
        inside = neg[np.arange(m - 1)[:, None], cols]
        inversions = np.where(inside < p, inside, inside[:, :1])
        lengths = np.repeat(np.arange(1, depth + 1), np.diff(bounds[1:depth + 2]))
        return cls(rows, rows[:, :n].astype(np.intp), inversions, preds[1:m, 1], lengths)

    def cut(self, m: int, depth: int) -> "_Ball":
        """Its first m elements, those of lengths 1..depth."""
        return _Ball(self.perms[:m], self.heads[:m], self.inversions[:m, :depth],
                     self.last[:m], self.lengths[:m])


def perm_dtype(n_roots: int) -> np.dtype:
    """The stored type of root permutations on n_roots roots: int16
    when every root id fits, else int32."""
    return np.dtype(np.int16 if n_roots <= 1 << 15 else np.int32)


def _ball_depth(bounds: list[int], width: int, top: int) -> int:
    """The depth d of the next element BFS step, from the last of the
    levels in bounds, of the given width, in a group whose longest
    element has length top: the largest d <= its length, at most the
    levels above it, with width |B<=d| d <= BALL."""
    length = len(bounds) - 2
    d, most = 1, min(length, top - length)
    while d < most and width * (bounds[d + 2] - 1) * (d + 1) <= BALL:
        d += 1
    return d if d >= MIN_BALL_DEPTH else 1


class EnumeratedGroup:
    """A finite Coxeter group as a table of root permutations."""

    def __init__(self, graph: CoxeterGraph, cap: int = DEFAULT_GROUP_CAP,
                 table: Optional[RootTable] = None):
        expected = graph_order(graph)
        if expected == float("inf"):
            types = " x ".join(map(str, classify_components(graph)))
            raise InfiniteTypeError(f"cannot enumerate an infinite Coxeter group (type {types})")
        if expected > cap:
            raise CapExceededError(
                f"group order {expected} exceeds the cap {cap}"
            )
        self.graph = graph
        self.table = table if table is not None else enumerate_roots(graph)
        n_roots = len(self.table)
        n = len(graph.vertices)

        gen_perms = np.array([self.table.generator_perm(s) for s in graph.vertices],
                             dtype=np.int32).reshape(n, n_roots)  # 2-D for n = 0 too
        if not (np.take_along_axis(gen_perms, gen_perms, axis=1) == np.arange(n_roots)).all():
            raise ValueError("a generator is not an involution on roots")
        # Keys in [0, (2P)^n) fit in int64 exactly when (2P)^n <= 2^63.
        self._radix: Optional[np.ndarray] = None
        if n_roots ** n <= 2 ** 63:
            self._radix = np.array([n_roots ** (n - 1 - j) for j in range(n)],
                                   dtype=np.int64)

        # BFS by length.  A step multiplies the last level F (length l)
        # by a ball B of the elements of lengths 1..d (d <= l, so B is
        # built; at d = 1, B is the generators).  a b with a in F and b in
        # B is reduced, of length l + l(b), exactly when a sends N(b^-1) =
        # {beta > 0 : b^-1 beta < 0} to positive roots: these are the
        # l(b) positive entries of b on the negative roots, and for
        # b = s_k just alpha_k.  Its permutation is a[b], so its heads
        # are a[b[:n]].  Every element of lengths l+1..l+d is such a
        # product, and one sort of the keys dedupes all d levels, since
        # an element has one length.
        #
        # The ids are those of the queue BFS, which gives each new
        # element the id of its first (a, k) pair in row-major order.
        # By induction the ids of a level follow the lexicographically
        # least reduced word NF(x), and NF(a b) = NF(a) + NF(b) for the
        # least pair (id(a), id(b)) with l(a) = l: so the new ids go by
        # (l(b), first pair in a-major, b-by-id order), and the last
        # letter of NF(a b) is that of NF(b).  The parent NF(x) minus its
        # last letter s_k is x s_k, read from ``right`` at the end.
        # Gathers index the flat permutation array: row a starts at a 2P.
        # Entries are stored as perm_dtype (int16 up to 2P = 2^15), but
        # offsets and keys are computed in intp / int64.
        p = self.table.n_positive
        offsets = gen_perms.astype(np.intp)
        head_offsets = offsets[:, :n]
        self.perms = perms = np.empty((expected, n_roots), dtype=perm_dtype(n_roots))
        perms[0] = np.arange(n_roots)
        flat = perms.reshape(-1)
        preds = np.full((expected, 2), -1, dtype=np.intp)  # (parent, last letter of NF)
        # The level step tests a(alpha_k) directly, so the generators
        # need no inversion sets or lengths.
        generators = _Ball(offsets, head_offsets, None, np.arange(n), None)
        ball: Optional[_Ball] = None
        bounds = [0, 1]
        while True:
            lo, hi = bounds[-2], bounds[-1]
            d = _ball_depth(bounds, hi - lo, p)
            if d == 1:
                B = generators
                valid = perms[lo:hi, :n] < p
            else:
                if ball is None or ball.depth < d:
                    ball = _Ball.of_levels(perms, preds, bounds, d, p, n)
                B = ball.cut(bounds[d + 1] - 1, d)
                valid = (perms[lo:hi][:, B.inversions] < p).all(axis=2)
            a, b = valid.nonzero()
            if not len(a):
                break
            start = (a + lo) * n_roots
            keys = self._pack(flat[B.heads.take(b, axis=0) + start[:, None]])
            order = keys.argsort(kind="stable")
            ranked = keys[order]
            fresh = np.ones(len(keys), dtype=bool)
            fresh[1:] = ranked[1:] != ranked[:-1]
            first = np.sort(order[fresh])
            top = hi + len(first)
            if top > expected:
                raise RuntimeError(
                    f"enumeration exceeded the closed-form order {expected}")
            if d == 1:
                sizes = [top - hi]
            else:
                length = B.lengths[b[first]]
                first = first[length.argsort(kind="stable")]
                sizes = np.bincount(length)[1:].tolist()
            b = b[first]
            flat.take(B.perms.take(b, axis=0) + start[first, None], out=perms[hi:top])
            preds[hi:top, 1] = B.last[b]
            for size in sizes:
                bounds.append(bounds[-1] + size)
        if bounds[-1] != expected:
            raise RuntimeError(
                f"enumerated {bounds[-1]} elements, closed form says {expected}"
            )
        self.heads = np.ascontiguousarray(perms[:, :n])
        self._flat = flat
        self._bounds = bounds  # level l is ids bounds[l] .. bounds[l + 1] - 1
        self.lengths = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
        # The keys of all elements, sorted, and the id of each.
        keys = self._pack(self.heads)
        order = keys.argsort(kind="stable").astype(np.int32)
        self._sorted_index = (keys[order], order)
        # right[a, k] = a s_k; the lookup also confirms closure.  Gathering
        # head offsets from contiguous rows is faster than mult_ids (E6, H4).
        self.right = np.empty((expected, n), dtype=np.int32)
        rows = BATCH // max(n, 1)
        for lo in range(0, expected, rows):
            self.right[lo:lo + rows] = self._ids_of_heads(perms[lo:lo + rows][:, head_offsets])
        # The parent of x is x s_k, for s_k the last letter of NF(x).
        preds[1:, 0] = self.right[np.arange(1, expected), preds[1:, 1]]
        self._preds = preds
        self.generators = self.right[0].tolist()
        self.identity = 0
        self._inverses: Optional[np.ndarray] = None
        self._classes: Optional[list[tuple[int, ...]]] = None
        self._class_of: Optional[np.ndarray] = None
        self._center: Optional[tuple[int, ...]] = None
        self._mult_table: Optional[np.ndarray] = None
        self._hom_space = None  # hommonoid.HomSpace, filled by hommonoid.hom_space
        # Filled on first use by ordinary assignment: a cached_property
        # writes the instance __dict__ directly, which on CPython 3.11
        # slows every later attribute read on the group.
        self._head_ids: Optional[dict] = None
        self._left: Optional[np.ndarray] = None
        self._gen_conj: Optional[np.ndarray] = None

    # -- the element index ---------------------------------------------------

    def _pack(self, heads: np.ndarray) -> np.ndarray:
        """Sortable keys of rows of heads: int64 in radix 2P, or the
        rows as fixed-width byte strings when that would overflow."""
        if self._radix is not None:
            return heads @ self._radix
        rows = np.ascontiguousarray(heads, dtype=self.perms.dtype)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))[..., 0]

    @property
    def _index(self) -> dict:
        """Head bytes -> id, for scalar lookups: a dict hit is several
        times faster than a one-row ``_ids_of_heads``."""
        if self._head_ids is None:
            rows = self.heads.view(np.dtype((np.void, self.heads.itemsize * self.heads.shape[1])))
            self._head_ids = dict(zip(rows.ravel().tolist(), range(len(self))))
        return self._head_ids

    def _ids_of_heads(self, heads: np.ndarray) -> np.ndarray:
        """The ids of the elements with the given heads, shape (..., n)
        -> (...); a row that no element has raises ValueError."""
        sorted_keys, order = self._sorted_index
        keys = self._pack(heads)
        pos = sorted_keys.searchsorted(keys)
        # A key above every element's sorts past the end; clipped, it
        # still fails the comparison.
        if sorted_keys.take(pos, mode="clip").tobytes() != keys.tobytes():
            raise ValueError("permutation does not belong to the group")
        return order[pos]

    def heads_of(self, *factors) -> np.ndarray:
        """The heads of the elementwise products x1 x2 ... xk of
        broadcastable id arrays, shape (..., n), with no lookup: the heads
        of xk, mapped by each earlier factor in turn, one flat ``take``
        per factor, as (x1 ... xk)(alpha_i) = x1(... xk(alpha_i))."""
        *rest, last = factors
        heads = self.heads.take(last, axis=0)
        width = self.perms.shape[1]
        for x in reversed(rest):
            heads = self._flat.take(heads + np.multiply(x, width)[..., None])
        return heads

    def mult_ids(self, *factors) -> np.ndarray:
        """Elementwise products x1 x2 ... xk of broadcastable id arrays
        (apply xk first to a root, then the factor before it, ...).  A
        product x g of two factors whose right one holds only simple
        generators (ids 1..n) is read as ``right[x, g - 1]``; any other
        product gathers its heads and is looked up once however many
        factors it has, in blocks of whole rows of at most BATCH
        products (or of one row).  Ids are not checked: they must lie in
        [0, |G|)."""
        xs = [np.asarray(x, dtype=np.intp) for x in factors]
        g = xs[-1]
        if len(xs) == 2 and g.size and 1 <= g.min() and g.max() <= self.right.shape[1]:
            return self.right[xs[0], g - 1]
        grid = np.broadcast(*xs)
        if grid.size <= BATCH:
            return self._ids_of_heads(self.heads_of(*xs))
        xs = [np.broadcast_to(x, grid.shape) for x in xs]
        out = np.empty(grid.shape, dtype=np.int32)
        rows = BATCH * len(out) // grid.size
        for lo in range(0, len(out), max(rows, 1)):
            block = slice(lo, lo + rows) if rows else lo
            out[block] = self.mult_ids(*(x[block] for x in xs))
        return out

    def commute(self, A, B) -> np.ndarray:
        """Elementwise whether a b = b a, for broadcastable id arrays:
        an element is determined by its heads, so the heads of the two
        products are compared and nothing is looked up."""
        return (self.heads_of(A, B) == self.heads_of(B, A)).all(axis=-1)

    @property
    def left(self) -> np.ndarray:
        """left[a, k] is the id of s_k a."""
        if self._left is None:
            self._left = self.mult_ids(self.generators, np.arange(len(self))[:, None])
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
        perm = np.asarray(perm)
        heads = perm[:len(self.graph.vertices)].tolist()
        # Range-check the heads before they are cast to the stored type to
        # key the lookup: the cast could wrap an entry of 2P or more onto
        # a root id.  The whole permutation is then compared by value.
        if perm.shape != self.perms.shape[1:] or min(heads) < 0 or max(heads) >= len(perm):
            raise ValueError("permutation does not belong to the group")
        a = self._index.get(np.array(heads, dtype=self.perms.dtype).tobytes())
        if a is None or not np.array_equal(self.perms[a], perm):
            raise ValueError("permutation does not belong to the group")
        return a

    def mult(self, a: int, b: int) -> int:
        """Product ab (apply b first to a root, then a)."""
        return self._index[self.perms[a].take(self.heads[b]).tobytes()]

    def mult_table(self) -> np.ndarray:
        """Full Cayley table; only sensible for small groups."""
        if self._mult_table is None:
            size = len(self)
            if size > TABLE_CAP:
                raise CapExceededError(
                    f"multiplication table of order {size} exceeds the Cayley-table "
                    f"limit {TABLE_CAP}")
            tbl = np.empty((size, size), dtype=np.int32)
            tbl[0] = np.arange(size)
            flat = tbl.reshape(-1)
            # a = p s_k gives a b = p (s_k b): row a is row p gathered at
            # the column left[:, k], so rows fill level by level, in
            # blocks of at most BATCH cells.
            cols = np.ascontiguousarray(self.left.T)
            rows = max(1, BATCH // size)
            for ids, parents, gens in self._levels():
                for lo in range(0, len(parents), rows):
                    block = slice(lo, lo + rows)
                    flat.take(cols[gens[block]] + parents[block, None] * size,
                              out=tbl[ids][block])
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
        # Scalar steps: on a few factors, about three times as fast as mult_ids.
        out = self.identity
        for x in ids:
            out = self.mult(out, x)
        return out

    def inv(self, a: int) -> int:
        return self.inverse_table().item(a)

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mult(self.mult(g, x), self.inv(g))

    def length(self, a: int) -> int:
        return self.lengths.item(a)

    def word(self, a: int) -> tuple[str, ...]:
        """A reduced word for the element, from the BFS tree."""
        out, preds, names = [], self._preds, self.graph.vertices
        while a != 0:
            a, k = preds.item(a, 0), preds.item(a, 1)
            out.append(names[k])
        return tuple(reversed(out))

    def from_word(self, word: Iterable[str]) -> int:
        out, index, right = self.identity, self.graph._index, self.right
        for s in word:
            k = index.get(s)
            if k is None:
                raise ValueError(f"unknown generator {s!r}")
            out = right.item(out, k)
        return out

    def generator(self, s: str) -> int:
        return self.generators[self.graph.index(s)]

    def images(self, a: int) -> tuple[int, ...]:
        """The element encoded by the images of all simple roots."""
        return tuple(int(x) for x in self.heads[a])

    def element_order(self, a: int) -> int:
        """a^k = 1 exactly when a^k fixes every simple root, so |a| is
        the lcm of the lengths of their cycles under a's permutation."""
        perm, order = memoryview(self.perms[a]), 1
        for i in range(self.heads.shape[1]):
            j, k = perm[i], 1
            while j != i:
                j, k = perm[j], k + 1
            order = math.lcm(order, k)
        return order

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
        """Z(W): z s_k z^-1 = s_(z(alpha_k)), so z is central iff z(alpha_k) = +-alpha_k."""
        if self._center is None:
            k = np.arange(self.heads.shape[1])  # root ids k and k + P are +-alpha_k
            central = (self.heads % self.table.n_positive == k).all(axis=1)
            self._center = tuple(np.flatnonzero(central).tolist())
        return self._center

    def check_ids(self, ids: Collection[int]) -> None:
        """Raise ValueError, naming the range, unless every id, of a
        collection or an id array, is G's: numpy reads -1 as the last id."""
        if len(ids):
            lo, hi = (ids.min(), ids.max()) if isinstance(ids, np.ndarray) else (min(ids), max(ids))
            if not 0 <= lo <= hi < len(self):
                bad = lo if lo < 0 else hi
                raise ValueError(f"element id {bad} outside the range [0, {len(self)})")

    # -- subgroups ---------------------------------------------------------------

    def subgroup(self, ids: Iterable[int], verified: bool = False) -> "SubgroupHandle":
        ids = frozenset(int(i) for i in ids)
        self.check_ids(ids)
        return SubgroupHandle(self, ids, _trusted=verified)

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
        return (isinstance(other, SubgroupHandle) and self.group is other.group
                and self.ids == other.ids)

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
        return bool(self.mask()[G.mult_ids(s, h, s)].all())  # s^-1 = s

    def is_abelian(self) -> bool:
        gens = np.array(self.generating_set(), dtype=np.intp)
        return bool(self.group.commute(gens[:, None], gens[None, :]).all())

    def center(self) -> frozenset[int]:
        """Z(H): the elements of H that commute with its generators."""
        ids = _commuting(self.group, np.array(self.sorted_ids()), self.generating_set())
        return frozenset(ids.tolist())

    def as_view(self) -> "GroupView":
        return GroupView.of_subgroup(self)


def _closure(G, gens: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """The subgroup of G (an EnumeratedGroup or a GroupView) generated
    by ``gens`` as a membership mask, and the generators it used: each
    one in turn that is not yet in the span of those before it.

    A new generator multiplies the current span once.  After that each
    round multiplies the elements found in the last round on the right
    by the generators used so far, or, while they are no more than
    those generators and the products no more than BATCH, by the whole
    span found so far, which holds those generators.  Either way every
    element meets every generator used, so the span ends closed under
    them.  Span rounds double the word length reached, so a long thin
    subgroup, such as a dihedral one, closes in O(log |H|) rounds
    rather than one per word length.  While the generators used are
    simple generators of an EnumeratedGroup, whose products are reads of
    ``right``, span rounds wait until the span exceeds WALK_SPAN."""
    seen = np.zeros(len(G), dtype=bool)
    seen[G.identity] = True
    slot = np.empty(len(G), dtype=np.intp)
    used: list[int] = []
    n = len(G.generators) if isinstance(G, EnumeratedGroup) else 0
    for g in gens:
        if seen[g]:
            continue
        used.append(int(g))
        simple = max(used) <= n
        cols = np.array(used, dtype=np.intp)
        span = np.flatnonzero(seen)
        products = G.mult_ids(span, g)
        size = len(span)
        while True:
            frontier = products[~seen[products]]
            frontier = frontier[_distinct(frontier, slot)]
            if not len(frontier):
                break
            seen[frontier] = True
            size += len(frontier)
            if (len(frontier) <= len(used) and len(frontier) * size <= BATCH
                    and not (simple and size <= WALK_SPAN)):
                products = G.mult_ids(frontier[:, None], np.flatnonzero(seen)).ravel()
            else:
                products = G.mult_ids(frontier[:, None], cols).ravel()
    return seen, used


def _distinct(values: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The positions of one occurrence of each distinct value, in
    order, found by a scatter into the scratch array ``slot`` (indexed
    by the values) rather than by a sort: the first occurrence, as
    NumPy writes repeated indices in order, and in any case exactly
    one."""
    at = np.arange(len(values))
    slot[values[::-1]] = at[::-1]
    return at[slot[values] == at]


def _filter(cands: np.ndarray, xs: Sequence[int], keep) -> np.ndarray:
    """The candidates c with ``keep(c, x)`` true for every x; ``keep``
    takes a column of candidates and a row of xs.  Blocks of xs double
    in size, so that early blocks shrink the candidates cheaply, and
    hold at most BATCH pairs."""
    xs = np.asarray(xs, dtype=np.intp)
    lo = 0
    while lo < len(xs):
        block = xs[lo:lo + max(1, min(lo, BATCH // len(cands)))]
        lo += len(block)
        cands = cands[keep(cands[:, None], block[None, :]).all(axis=1)]
    return cands


def _commuting(G: EnumeratedGroup, cands: np.ndarray, xs) -> np.ndarray:
    """The candidates that commute with every x of the ids xs, taken once
    each in id order from a mask; not the identity, which commutes with all."""
    wanted = np.zeros(len(G), dtype=bool)
    wanted[xs] = True
    wanted[G.identity] = False
    return _filter(cands, np.flatnonzero(wanted), G.commute)


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


def enumerate_group(g: CoxeterGraph, cap: int = DEFAULT_GROUP_CAP) -> EnumeratedGroup:
    return EnumeratedGroup(g, cap=cap)


def subgroup_closure(G: EnumeratedGroup, gens: Iterable[int],
                     normal: bool = False) -> SubgroupHandle:
    """Smallest subgroup containing ``gens``; with ``normal`` the
    smallest normal subgroup, generated by the conjugacy classes of
    ``gens``."""
    gen_list = [int(a) for a in gens]
    G.check_ids(gen_list)
    if normal:
        classes = G.conjugacy_classes()
        gen_list = sorted({x for a in gen_list for x in classes[G.class_of(a)]})
    span, _ = _closure(G, gen_list)
    return SubgroupHandle(G, frozenset(np.flatnonzero(span).tolist()), _trusted=True)


def centralizer(G: EnumeratedGroup, xs: Iterable[int]) -> SubgroupHandle:
    """{g : gx = xg for all x}; the whole group when ``xs`` is empty."""
    xs = np.fromiter(xs, dtype=np.intp)  # np.asarray would wrap a set as one object
    G.check_ids(xs)
    ids = _commuting(G, np.arange(len(G)), xs)
    return SubgroupHandle(G, frozenset(ids.tolist()), _trusted=True)


def normalizer(G: EnumeratedGroup, H: SubgroupHandle) -> SubgroupHandle:
    """{g : gHg^-1 = H}.  Conjugating a generating set of H into H is
    enough since conjugation is an automorphism and H is finite.  When
    every generator of H is simple, H is W_I, and a s_k a^-1, the
    reflection along a(alpha_k) (Humphreys 1990, 5.7), lies in W_I
    exactly when that root's coordinates off I are exactly zero (as in
    ``deodhar.decompose_on_table``), with no product.  Any other H goes
    through ``mult_ids(a, h, a^-1)`` for each generator h."""
    _check_owner(G, H)
    gens = H.generating_set()
    if max(gens, default=0) <= len(G.generators):  # all simple: H is W_I
        I = [h - 1 for h in gens]
        on_I = (np.delete(G.table.roots, I, axis=1) == 0).all(axis=1)
        ids = np.flatnonzero(on_I[G.heads[:, I]].all(axis=1))
    else:
        inside, inv = H.mask(), G.inverse_table()
        ids = _filter(np.arange(len(G)), gens, lambda a, h: inside[G.mult_ids(a, h, inv[a])])
    return SubgroupHandle(G, frozenset(ids.tolist()), _trusted=True)


def core(G: EnumeratedGroup, H: SubgroupHandle) -> SubgroupHandle:
    """Largest normal subgroup inside H: the union of the conjugacy
    classes entirely contained in H."""
    _check_owner(G, H)
    classes = G.conjugacy_classes()
    broken = np.zeros(len(classes), dtype=bool)
    broken[G._class_of[~H.mask()]] = True
    ids = np.flatnonzero(~broken[G._class_of])
    return SubgroupHandle(G, frozenset(ids.tolist()), _trusted=True)


def _check_owner(G: EnumeratedGroup, H: SubgroupHandle) -> None:
    """Raise ValueError unless H is a subgroup of G: ids of another
    group, even of the same order, name other elements."""
    if H.group is not G:
        raise ValueError("the subgroup H belongs to another group, not to G")


def reflection_of_root(G: EnumeratedGroup, root_id: int) -> int:
    """The group element acting as the reflection along the root."""
    return G.element_from_perm(G.table.reflection_perm(root_id))


def respects_generators(G1: EnumeratedGroup, G2: EnumeratedGroup, h: np.ndarray,
                        domain, gens: Sequence[int]) -> bool:
    """Whether h(x g) = h(x) h(g) for every x in ``domain`` and every g
    in ``gens``, a generating set of the subgroup ``domain``; by
    induction on word length this covers every pair of the domain."""
    xs = np.asarray(domain, dtype=np.intp)[:, None]
    gs = np.asarray(gens, dtype=np.intp)
    return bool((h[G1.mult_ids(xs, gs)] == G2.mult_ids(h[xs], h[gs])).all())


# -- generic isomorphism search -------------------------------------------------


class GroupView:
    """A finite group as its Cayley table on local ids 0..n-1:
    ``table[a, b]`` is the local id of ab.  The identity, inverses,
    element orders, conjugacy classes and a generating set all derive
    from the table with array operations; an EnumeratedGroup or any of
    its subgroups becomes a view through ``of_group`` / ``of_subgroup``,
    which skip ``_check_group`` through ``_trusted``: their tables are
    products in an enumerated group, with the identity at local id 0."""

    def __init__(self, table, preferred_gens: Optional[Sequence[int]] = None,
                 _trusted: bool = False):
        self.table = np.asarray(table, dtype=np.int32)
        self.size = len(self.table)
        if self.table.shape != (self.size, self.size):
            raise ValueError("a Cayley table must be square")
        self.identity = 0
        self._preferred = None if preferred_gens is None else [int(g) for g in preferred_gens]
        self._classes: Optional[list[tuple[int, ...]]] = None
        # Filled on first use by ordinary assignment, as in EnumeratedGroup.
        self._inverses: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None
        if not _trusted:
            self._check_group()

    def _check_group(self) -> None:
        """Raise ValueError naming what fails unless the table is a Latin
        square with a two-sided identity that passes Light's test, (x g) y
        = x (g y) for all x, y, on generators: those g form a submagma."""
        T, ids = self.table, np.arange(self.size)
        if not ((np.sort(T, axis=0) == ids[:, None]).all() and (np.sort(T, axis=1) == ids).all()):
            raise ValueError("the Cayley table is not a group: it is not a Latin square")
        # In a Latin square at most one row is the identity row.
        rows = np.flatnonzero((T == ids).all(axis=1))
        if not len(rows) or not (T[:, rows[0]] == ids).all():
            raise ValueError("the Cayley table is not a group: it has no two-sided identity")
        self.identity = int(rows[0])
        # The greedy choice generates the table, as preferred ones may not.
        for g in _closure(self, ids)[1]:
            if not (T[T[:, g]] == T[:, T[g]]).all():
                raise ValueError("the Cayley table is not a group: it is not associative "
                                 f"at element {g}")

    @staticmethod
    def of_group(G: EnumeratedGroup) -> "GroupView":
        return GroupView(G.mult_table(), G.generators, _trusted=True)

    @staticmethod
    def of_subgroup(H: SubgroupHandle) -> "GroupView":
        """H on the positions of its sorted ids."""
        local = np.array(H.sorted_ids(), dtype=np.intp)
        position = np.empty(len(H.group), dtype=np.int32)
        position[local] = np.arange(len(local))
        table = position[H.group.mult_ids(local[:, None], local)]
        return GroupView(table, position[H.generating_set()], _trusted=True)

    def __len__(self) -> int:
        return self.size

    def mult_ids(self, A, B) -> np.ndarray:
        return self.table[A, B]

    @property
    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            self._powers()
        return self._inverses

    @property
    def orders(self) -> np.ndarray:
        if self._orders is None:
            self._powers()
        return self._orders

    def _powers(self) -> None:
        """Orders and inverses from powers of all elements at once: when
        a^k is the identity, k is the order of a and a^(k-1) its inverse;
        x -> x a permutes a Latin square's ids, so the powers get there."""
        orders = np.zeros(self.size, dtype=np.int32)
        inverses = np.empty(self.size, dtype=np.intp)
        todo = np.arange(self.size)
        previous = np.full(self.size, self.identity)
        power = todo
        k = 1
        while len(todo):
            done = power == self.identity
            orders[todo[done]] = k
            inverses[todo[done]] = previous[done]
            todo, previous = todo[~done], power[~done]
            power = self.table[previous, todo]
            k += 1
        self._orders, self._inverses = orders, inverses

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

    A BFS over ``gens`` gives every x its depth d and a parent x g^-1.
    For d > 1, the BFS sets a to the ancestor of x at depth 2^k, the
    largest power of two below d: the parent when d - 1 is a power of
    two, else the parent's ancestor.  Then b = a^-1 x, the d - 2^k
    generators of the tree path from a to x, has depth at most 2^k, so
    round r covers the depths 2^(r-1) + 1 .. 2^r: about log2 of the
    largest depth rounds, not one per depth."""
    depth = np.full(view.size, -1)
    depth[view.identity] = 0
    anc = np.full(view.size, view.identity)
    slot = np.empty(view.size, dtype=np.intp)
    frontier = np.array([view.identity])
    d = 0
    while len(frontier):
        d += 1
        products = view.table[frontier[:, None], gens[None, :]].ravel()
        pos = np.flatnonzero(depth[products] < 0)
        pos = pos[_distinct(products[pos], slot)]
        xs = products[pos]
        depth[xs] = d
        parents = frontier[pos // len(gens)]
        anc[xs] = parents if (d - 1) & (d - 2) == 0 else anc[parents]
        frontier = xs
    if (depth < 0).any():
        raise ValueError("generating set does not generate the view")
    rounds = []
    for r in range(1, max(d - 2, 0).bit_length() + 1):  # d - 1 is the largest depth
        xs = np.flatnonzero((depth > 1 << (r - 1)) & (depth <= 1 << r))
        rounds.append((xs, anc[xs], view.table[view.inverses[anc[xs]], xs]))
    return rounds


def check_search_limits(order: int, cap: int) -> None:
    """Raise CapExceededError, naming the limit, unless an isomorphism
    search on groups of this order is within ``cap`` and ``TABLE_CAP``."""
    for limit, name in ((cap, "cap"), (TABLE_CAP, "Cayley-table limit")):
        if order > limit:
            raise CapExceededError(
                f"isomorphism search on order {order} exceeds the {name} {limit}")


class _Search:
    """Generator-image backtracking from the view ``v1`` to ``v2``.

    ``gens`` are v1's generators, scarcest candidates first, and
    ``candidates[k]`` the elements of v2 with the order and class size
    of ``gens[k]``.  A map is fixed by its generator images
    (``_fill_plan``); ``verify`` accepts it only as a homomorphism with
    trivial kernel."""

    def __init__(self, v1: GroupView, v2: GroupView, gens: np.ndarray,
                 candidates: list[np.ndarray]):
        self.v1, self.v2, self.gens, self.candidates = v1, v2, gens, candidates
        T1 = v1.table
        self.pair_orders = v1.orders[T1[gens[:, None], gens[None, :]]]
        self.plan = _fill_plan(v1, gens)
        self.gen_cols = T1[:, gens]

    @staticmethod
    def of(v1: GroupView, v2: GroupView) -> Optional["_Search"]:
        """The search from v1 to v2, or None when element orders and
        class sizes already tell them apart."""
        ord1, ord2 = v1.orders, v2.orders
        if not np.array_equal(np.sort(ord1), np.sort(ord2)):
            return None
        csize1, csize2 = v1.class_sizes(), v2.class_sizes()
        sig1 = sorted((len(c), int(ord1[c[0]])) for c in v1.conjugacy_classes())
        sig2 = sorted((len(c), int(ord2[c[0]])) for c in v2.conjugacy_classes())
        if sig1 != sig2:
            return None
        gens = v1.generating_set()
        candidates = [np.flatnonzero((ord2 == ord1[g]) & (csize2 == csize1[g])) for g in gens]
        # Try scarce generators first.
        order = sorted(range(len(gens)), key=lambda i: len(candidates[i]))
        return _Search(v1, v2, np.array([gens[i] for i in order], dtype=np.intp),
                       [candidates[i] for i in order])

    def verify(self, assign: np.ndarray) -> Optional[np.ndarray]:
        T2 = self.v2.table
        fa = np.empty(self.v1.size, dtype=np.int32)
        fa[self.gens] = assign
        fa[self.v1.identity] = self.v2.identity
        for xs, a, b in self.plan:
            fa[xs] = T2[fa[a], fa[b]]
        # Homomorphism on every (element, generator) cell of the
        # table; by induction on word length this covers all pairs.
        if not (fa.take(self.gen_cols) == T2.take(assign, axis=1).take(fa, axis=0)).all():
            return None
        # A homomorphism between groups of one order is a bijection
        # exactly when its kernel is trivial.
        if np.count_nonzero(fa == self.v2.identity) != 1:
            return None
        return fa

    def images_for(self, images: list[int]) -> list[int]:
        """Candidates for the next generator whose products with
        ``images`` have the orders the generators' products have;
        largest first, so that pop() tries them in id order."""
        k = len(images)
        T2, ord2 = self.v2.table, self.v2.orders
        cands = self.candidates[k]
        for j, image in enumerate(images):
            cands = cands[ord2[T2[cands, image]] == self.pair_orders[k, j]]
        return cands[::-1].tolist()

    def extend(self, prefix: list[int]) -> Optional[np.ndarray]:
        """The first verified map, in depth-first order, whose generator
        images begin with ``prefix`` (already filtered by
        ``images_for``); None when there is none.

        untried[k] holds the candidates for generator len(prefix) + k
        not tried yet.  A loop rather than a recursive closure, which
        would form a reference cycle keeping both tables alive until a
        full collection."""
        images = list(prefix)
        untried: list[list[int]] = []
        while True:
            if len(images) < len(self.gens):
                untried.append(self.images_for(images))
            else:
                f = self.verify(np.array(images, dtype=np.intp))
                if f is not None:
                    return f
            while untried and not untried[-1]:
                untried.pop()
            if not untried:
                return None
            del images[len(prefix) + len(untried) - 1:]
            images.append(untried[-1].pop())

    def transversals(self) -> list[np.ndarray]:
        """The stabilizer chain of Aut(v1), for a search of v1 against
        itself.  Entry i holds one verified automorphism for each point
        c of the orbit of gens[i] under the automorphisms fixing
        gens[:i], found by ``extend`` on the prefix gens[:i] + [c]; for
        c = gens[i] it is the identity.  Every automorphism is exactly
        one product t_0 . t_1 . ... of one map per entry, so |Aut| is
        the product of the entries' lengths (orbit-stabilizer)."""
        identity = self.verify(self.gens)
        chain = []
        for i, g in enumerate(self.gens.tolist()):
            prefix = self.gens[:i].tolist()
            maps = (identity if c == g else self.extend(prefix + [c])
                    for c in self.images_for(prefix))
            chain.append(np.array([f for f in maps if f is not None]))
        return chain


def automorphism_count(G, cap: int = DEFAULT_ISO_CAP) -> int:
    """|Aut(G)| as the product of the orbit sizes of the stabilizer
    chain (``_Search.transversals``); each orbit point is witnessed by
    an automorphism that passed the search's verifier.  Accepts what
    ``find_isomorphism`` accepts, and checks the same limits before any
    view is built."""
    check_search_limits(len(G), cap)
    v = _as_view(G)
    return math.prod(len(t) for t in _Search.of(v, v).transversals())


def find_isomorphism(
    G1, G2, all_maps: bool = False, cap: int = DEFAULT_ISO_CAP
) -> list[list[int]]:
    """Isomorphisms G1 -> G2 by generator-image backtracking, as maps
    indexed by G1-local id, between EnumeratedGroups, SubgroupHandles
    or GroupViews.  Empty when the groups are not isomorphic, else the
    first map in depth-first order over the generator images (scarcest
    generator first, images in id order) that passed ``verify``.

    With ``all_maps`` every isomorphism, in that order: the first map
    composed with each automorphism of G1 from the stabilizer chain of
    ``automorphism_count``, checked in one batch by ``_check_maps``.
    Above ``TABLE_CAP`` squared map entries it raises CapExceededError
    before composing.  Each view holds an N x N int32 table, so ``cap``
    and ``TABLE_CAP``, both checked before any view is built, bound the
    memory."""
    if len(G1) != len(G2):
        return []
    check_search_limits(len(G1), cap)
    v1 = _as_view(G1)
    v2 = v1 if G2 is G1 else _as_view(G2)
    search = _Search.of(v1, v2)
    first = None if search is None else search.extend([])
    if first is None:
        return []
    if not all_maps:
        return [first.tolist()]
    chain = (search if v2 is v1 else _Search.of(v1, v1)).transversals()
    count, n = math.prod(len(t) for t in chain), v1.size
    if count * n > TABLE_CAP ** 2:
        raise CapExceededError(
            f"listing {count} automorphisms of order {n} exceeds the limit "
            f"{TABLE_CAP ** 2} on map entries")
    maps = np.arange(n, dtype=np.int32)[None, :]
    for t in reversed(chain):
        maps = t[:, maps].reshape(-1, n)
    if v2 is not v1:
        maps = first[maps]
    _check_maps(search, maps)
    keys = maps[:, search.gens].T  # none on a trivial group: its one map needs no sort
    return (maps[np.lexsort(keys[::-1])] if len(keys) else maps).tolist()


def _check_maps(search: _Search, maps: np.ndarray) -> None:
    """``search.verify`` on every row of ``maps`` at once, one generator
    at a time: f(x g) = f(x) f(g) on every element x, and a trivial
    kernel."""
    n, T2 = search.v1.size, search.v2.table.reshape(-1)
    for j, g in enumerate(search.gens.tolist()):
        rhs = T2.take(maps * n + maps[:, g, None])
        if not (maps.take(search.gen_cols[:, j], axis=1) == rhs).all():
            raise VerificationError("a listed map is not a homomorphism")
    if not (np.count_nonzero(maps == search.v2.identity, axis=1) == 1).all():
        raise VerificationError("a listed map has a nontrivial kernel")


def _as_view(G) -> GroupView:
    if isinstance(G, GroupView):
        return G
    if isinstance(G, SubgroupHandle):
        return G.as_view()
    if isinstance(G, EnumeratedGroup):
        return GroupView.of_group(G)
    raise TypeError(f"cannot view {type(G).__name__} as a finite group")
