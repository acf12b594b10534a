"""The geometric representation: bilinear form, reflection action,
root enumeration for finite types, inversion sets and supports.

Coordinates are double-precision over the simple-root basis; roots are
identified against the table through a nearest-neighbour lookup with a
single global tolerance.  A lookup that lands strictly between the
tolerance and the separation guard is treated as numerical drift and
raised, never silently rounded.

The lookup sorts the roots by a fingerprint f(x) = x @ w with
w_j = 1/(j + pi).  By Cauchy-Schwarz |f(q) - f(x)| <= |w| |q - x|, so
every root within r of a query q has its fingerprint within |w| r of
f(q): two binary searches bound a window of the sorted fingerprints
that holds all of them, and exact distances are taken inside it.  A
lookup opens its window at the separation guard and widens it only for
a vector farther than that from every root, so the answer is the exact
nearest root and a miss names its true distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .classify import classify_components, graph_positive_roots
from .errors import CapExceededError, InfiniteTypeError, RootLookupError
from .graph import INF, CoxeterGraph

DEFAULT_EPS = 1e-9
# Distinct roots of catalog types are far apart; anything between EPS
# and this guard signals accumulated drift rather than a new root.
SEPARATION_GUARD = 1e-6

ROOT_CAP = 10**6


def bilinear_form(g: CoxeterGraph) -> np.ndarray:
    """Matrix of <a_s, a_t> = -cos(pi/m(s,t)); -1 on inf edges."""
    n = len(g.vertices)
    B = np.empty((n, n))
    for i, s in enumerate(g.vertices):
        for j, t in enumerate(g.vertices):
            m = g.m(s, t)
            B[i, j] = -1.0 if m == INF else -math.cos(math.pi / m)
    return B


def reflection_matrix(g: CoxeterGraph, s: str, B: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix of v -> v - 2<a_s, v> a_s acting on column coordinates."""
    if B is None:
        B = bilinear_form(g)
    n = len(g.vertices)
    i = g.index(s)
    M = np.eye(n)
    M[i, :] -= 2.0 * B[i, :]
    return M


def apply_generator(g: CoxeterGraph, s: str, v: Sequence[float]) -> np.ndarray:
    """Reflect v along the simple root of s."""
    vec = np.asarray(v, dtype=float)
    if vec.shape != (len(g.vertices),):
        raise ValueError(f"expected a vector of length {len(g.vertices)}")
    B = bilinear_form(g)
    i = g.index(s)
    return vec - 2.0 * float(B[i] @ vec) * _unit(len(g.vertices), i)


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def support(g: CoxeterGraph, v: Sequence[float], eps: float = DEFAULT_EPS) -> tuple[str, ...]:
    """Vertices whose coordinate exceeds eps in magnitude."""
    vec = np.asarray(v, dtype=float)
    return tuple(s for i, s in enumerate(g.vertices) if abs(vec[i]) > eps)


def _fingerprint_weights(n: int) -> np.ndarray:
    """The weights w_j = 1/(j + pi) of the fingerprint f(x) = x @ w.  A
    nonzero algebraic coefficient vector d has sum d_j / (j + pi) != 0,
    since pi is transcendental, so distinct roots never share an exact
    fingerprint."""
    return 1.0 / (np.arange(n) + np.pi)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    step = a - b
    return np.sqrt(np.einsum("ij,ij->i", step, step))


@dataclass(frozen=True, eq=False)
class FingerprintIndex:
    """Rows of ``points`` sorted by fingerprint, for exact nearest-point
    queries (see the module notes).  Built by ``fingerprint_index``."""

    points: np.ndarray      # (N, n)
    weights: np.ndarray     # _fingerprint_weights(n)
    keys: np.ndarray        # the fingerprints, sorted
    order: np.ndarray       # order[k] is the row of keys[k]
    stretch: float          # |w|, widened by the float slop
    pad: float              # float error of two fingerprints near a point

    def nearest(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nearest point to every row of vectors, and its distance.
        The first window has radius SEPARATION_GUARD.  A row whose
        nearest point lies beyond it gets windows of radius d, the
        distance of the point found, or 64 times the last radius if that
        is smaller: the windows stay short, and the window of radius d
        is the last a row needs."""
        found, dist = self._nearest_within(vectors, SEPARATION_GUARD)
        # Not "dist > guard": a NaN row must reach the finiteness check.
        rows = (~(dist <= SEPARATION_GUARD)).nonzero()[0]
        if len(rows):
            if not np.isfinite(vectors[rows]).all():
                raise ValueError("query vectors must be finite")
            radius = np.full(len(vectors), SEPARATION_GUARD)
            while len(rows):
                radius[rows] = np.minimum(dist[rows], 64 * radius[rows])
                found[rows], dist[rows] = self._nearest_within(vectors[rows], radius[rows])
                rows = rows[dist[rows] > radius[rows]]
        return found, dist

    def _nearest_within(self, vectors: np.ndarray, radius) -> tuple[np.ndarray, np.ndarray]:
        """Per row of vectors, the nearest of the points whose
        fingerprints lie in the row's window, and its distance.  The
        window holds every point within radius (a scalar or one per
        row), so a nearest point within radius is always the one found.
        An empty window gives the point with the next fingerprint, which
        lies beyond radius."""
        f = vectors @ self.weights
        reach = self.stretch * radius + self.pad
        lo = self.keys.searchsorted(f - reach)
        hi = self.keys.searchsorted(f + reach)
        found = self.order.take(lo, mode="clip")
        dist = _distances(self.points.take(found, axis=0), vectors)
        # Windows rarely hold a second point; these passes take the
        # further points of the longer ones.
        for k in range(1, (hi - lo).max(initial=0)):
            rows = (hi - lo > k).nonzero()[0]
            cand = self.order[lo[rows] + k]
            d = _distances(self.points[cand], vectors[rows])
            closer = d < dist[rows]
            dist[rows[closer]] = d[closer]
            found[rows[closer]] = cand[closer]
        return found, dist


def fingerprint_index(points: np.ndarray) -> FingerprintIndex:
    """Index the rows of points, nonzero vectors whose coordinates share
    one sign (roots do); RootLookupError if two lie within
    SEPARATION_GUARD of each other.

    Two such rows have fingerprints within the window reach of
    SEPARATION_GUARD, so the guard compares each key with the following
    ones up to that reach: complete, and almost always one pass."""
    n = points.shape[1]
    weights = _fingerprint_weights(n)
    f = points @ weights
    order = f.argsort(kind="stable").astype(np.int32)
    keys = f[order]
    # The float error of x @ w is below n 2^-53 sum_j |x_j| w_j.  That
    # sum is |f(x)| for a point, and at most |f(x)| + |w| r for a query
    # within r of it; slop covers two such errors four times over.
    slop = 4 * n * np.finfo(float).eps
    norm = float(np.linalg.norm(weights))
    index = FingerprintIndex(points, weights, keys, order, stretch=norm * (1 + slop),
                             pad=slop * float(np.abs(keys).max()))
    reach = index.stretch * SEPARATION_GUARD + index.pad
    first = np.arange(len(keys))
    gap = 1
    while True:
        first = first[first + gap < len(keys)]
        first = first[keys[first + gap] - keys[first] <= reach]
        if not len(first):
            return index
        if np.any(_distances(points[order[first + gap]], points[order[first]])
                  <= SEPARATION_GUARD):
            raise RootLookupError("root BFS produced a near-duplicate vector")
        gap += 1


@dataclass
class RootTable:
    """All roots of a finite-type graph with integer ids.

    Ids 0..P-1 are the positive roots in BFS discovery order (the
    first len(g) of them are the simple roots in vertex order); id
    i + P is the negative of id i.
    """

    graph: CoxeterGraph
    roots: np.ndarray            # (2P, n) coordinates
    n_positive: int
    form: np.ndarray
    # Row k is the action of the k-th generator on root ids.
    _gen_perms: np.ndarray = field(repr=False)
    _index: FingerprintIndex = field(repr=False)
    eps: float = DEFAULT_EPS

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.roots)

    def simple_root_id(self, s: str) -> int:
        return self.graph.index(s)

    def neg_id(self, i: int) -> int:
        p = self.n_positive
        return i + p if i < p else i - p

    def is_positive_id(self, i: int) -> bool:
        return i < self.n_positive

    def root_id(self, v: Sequence[float]) -> int:
        """Id of the root equal to v within eps; RootLookupError if the
        nearest table entry is farther than eps."""
        vec = np.asarray(v, dtype=float)
        i, d = self._index.nearest(vec[None])
        if d[0] > self.eps:
            raise RootLookupError(
                f"vector {vec} is {d[0]:.3e} from the nearest root (eps={self.eps:.1e})"
            )
        return int(i[0])

    def root_ids(self, vectors: np.ndarray) -> np.ndarray:
        """Vectorized hard lookup of many rows."""
        idx, d = self._index.nearest(np.asarray(vectors, dtype=float))
        if np.any(d > self.eps):
            raise RootLookupError(f"batch lookup missed by up to {float(d.max()):.3e}")
        return idx

    def inner(self, i: int, j: int) -> float:
        return float(self.roots[i] @ self.form @ self.roots[j])

    # -- permutations -------------------------------------------------------

    def generator_perm(self, s: str) -> np.ndarray:
        """Action of the generator s on root ids, as an int32 array."""
        return self._gen_perms[self.graph.index(s)]

    def reflection_perm(self, root_id: int) -> np.ndarray:
        """Action of the reflection along the given root on root ids."""
        gamma = self.roots[root_id]
        images = self.roots - 2.0 * np.outer(self.roots @ self.form @ gamma, gamma)
        perm = self.root_ids(images)
        if not np.array_equal(np.sort(perm), np.arange(len(self.roots))):
            raise RootLookupError(f"reflection along root {root_id} is not a permutation")
        return perm

    def coefficients(self, i: int) -> np.ndarray:
        return self.roots[i]


def enumerate_roots(
    g: CoxeterGraph, cap: int = ROOT_CAP, eps: float = DEFAULT_EPS
) -> RootTable:
    """The positive roots by depth, negatives appended afterwards; the
    BFS edges are the generator permutations.

    For a positive root b, s_i b = b - 2<a_i, b> a_i is one level
    deeper exactly when <a_i, b> < 0 (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, 4.6.2), and every root of depth d + 1 is such an
    up-move from depth d.  So each level comes from the up-moves of the
    one before, and two moves can only meet inside one level.  There
    they are merged: sorted by a fingerprint, neighbours within
    SEPARATION_GUARD are one root.  Candidates are taken generator-major
    and the first of each merged group keeps its coordinates, which
    fixes the ids.  Each up-move b -> s_i b, read backwards, is the
    down-move from s_i b; s_i sends a_i to -a_i and fixes every other
    positive root with no i-edge, those orthogonal to a_i.

    So two up-moves meet only in a root with two down-moves, which has
    two inner products <a_j, c> above the guard.  A level whose
    candidates have no more such inner products than there are
    candidates skips the merge: its new roots are the candidates, in
    order.  Those inner products are also the next level's up-move
    test."""
    labels = classify_components(g)
    for lab in labels:
        if not lab.is_finite():
            raise InfiniteTypeError(
                f"component of type {lab} is infinite; its root system is infinite"
            )
    expected = graph_positive_roots(g)
    if 2 * expected > cap:
        raise CapExceededError(f"root system has {2 * expected} roots; cap is {cap}")

    n = len(g.vertices)
    B = bilinear_form(g)
    weights = _fingerprint_weights(n)
    # Row r, block i of (roots @ reflect) is s_i applied to root r.
    reflect = np.hstack([reflection_matrix(g, s, B).T for s in g.vertices])
    roots = np.empty((2 * expected, n))
    roots[:n] = np.eye(n)  # simple roots, vertex order
    edges: list[tuple[np.ndarray, ...]] = []  # (generator, source, target) per level
    lo, hi = 0, n
    inner = B  # <a_i, b> for the roots b of the level, one row each
    while True:
        # Inner products within the guard count as zero (a fixed root).
        gens, src = (inner.T < -SEPARATION_GUARD).nonzero()
        if not len(src):
            break
        cand = (roots[lo:hi] @ reflect).reshape(-1, n).take(src * n + gens, axis=0)
        inner = cand @ B
        # Two up-moves meet only in a root with two down-moves.  Each
        # candidate has its own, so a merge needs more down-moves than
        # candidates; a merge skipped in error would leave a second copy
        # of a root, which the root count catches.
        if np.count_nonzero(inner > SEPARATION_GUARD) > len(src):
            order = (cand @ weights).argsort(kind="stable")
            ranked = cand.take(order, axis=0)
            step = ranked[1:] - ranked[:-1]
            fresh = np.ones(len(src), dtype=bool)
            fresh[1:] = np.einsum("ij,ij->i", step, step) > SEPARATION_GUARD ** 2
            # The earliest candidate of each run is the new root; runs
            # take ids in the order of their earliest candidates.
            first = np.minimum.reduceat(order, fresh.nonzero()[0])
            new = np.sort(first)
            dst = np.empty(len(src), dtype=np.intp)
            dst[order] = new.searchsorted(first)[fresh.cumsum() - 1] + hi
            cand, inner = cand.take(new, axis=0), inner.take(new, axis=0)
        else:
            dst = np.arange(hi, hi + len(src))
        top = hi + len(cand)
        if top > expected:
            # The type is finite, so only float drift above the guard
            # can keep two copies of one root apart.
            raise RootLookupError(
                f"root BFS exceeded the expected {expected} positive roots: float "
                f"drift above SEPARATION_GUARD = {SEPARATION_GUARD:.0e} split a root"
            )
        roots[hi:top] = cand
        edges.append((gens, src + lo, dst))
        lo, hi = hi, top
    if hi != expected:
        raise RootLookupError(f"found {hi} positive roots, expected {expected}")
    positive = roots[:expected]
    # Unit-length sanity on everything we accepted.
    norms = np.einsum("ij,jk,ik->i", positive, B, positive)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise RootLookupError("non-unit vector in the root closure")
    roots[expected:] = -positive
    index = fingerprint_index(roots)
    gen_perms = np.tile(np.arange(2 * expected, dtype=np.int32), (n, 1))
    if edges:
        gens, src, dst = (np.concatenate(e) for e in zip(*edges))
        gen_perms[gens, src] = dst
        gen_perms[gens, dst] = src
    simple = np.arange(n)
    gen_perms[simple, simple] = simple + expected
    # s(-b) = -s(b): the negative half mirrors the positive one.
    gen_perms[:, expected:] = (gen_perms[:, :expected] + expected) % (2 * expected)
    return RootTable(graph=g, roots=roots, n_positive=expected, form=B, eps=eps,
                     _index=index, _gen_perms=gen_perms)


def phi_w(perm: np.ndarray, table: RootTable) -> frozenset[int]:
    """Inversion set: positive root ids sent negative by the element."""
    p = table.n_positive
    ids = np.arange(p)
    return frozenset(ids[perm[:p] >= p].tolist())


def format_table(table: RootTable) -> str:
    """CLI rendering: one line ``id: c1 c2 ... cn`` per root."""
    lines = []
    for i, row in enumerate(table.roots):
        coords = " ".join(f"{c:.12g}" for c in row)
        lines.append(f"{i}: {coords}")
    return "\n".join(lines) + "\n"
