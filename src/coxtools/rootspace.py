"""The geometric representation: bilinear form, reflection action,
root enumeration for finite types, inversion sets and supports.

Coordinates are double-precision over the simple-root basis, and the
root BFS is the only float computation that identifies roots: two
up-moves that land within SEPARATION_GUARD of each other are one root.
Everything after it is integer-exact.  The BFS edges are the generator
permutations on root ids, one of them per positive root is its parent
edge, and the reflection along a root is the permutation of a simple
reflection conjugated along the parent chain.  ``root_id`` remains for
caller-supplied coordinates: a nearest-root search with the fixed
tolerance ROOT_TOLERANCE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classify import classify_components, graph_positive_roots
from .errors import CapExceededError, InfiniteTypeError, RootLookupError
from .graph import INF, CoxeterGraph

# Tolerance of root_id and support on caller-supplied coordinates.
ROOT_TOLERANCE = 1e-9
# Distinct roots of catalog types are far apart; two BFS vectors closer
# than this guard are one root, reached along two paths.
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


def reflection_matrix(g: CoxeterGraph, s: str, B: np.ndarray) -> np.ndarray:
    """Matrix of v -> v - 2<a_s, v> a_s acting on column coordinates,
    B the bilinear form of g."""
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


def support(g: CoxeterGraph, v: Sequence[float]) -> tuple[str, ...]:
    """Vertices whose coordinate exceeds ROOT_TOLERANCE in magnitude."""
    vec = np.asarray(v, dtype=float)
    return tuple(s for i, s in enumerate(g.vertices) if abs(vec[i]) > ROOT_TOLERANCE)


def _fingerprint_weights(n: int) -> np.ndarray:
    """The weights w_j = 1/(j + pi) of the fingerprint f(x) = x @ w.  A
    nonzero algebraic coefficient vector d has sum d_j / (j + pi) != 0,
    since pi is transcendental, so distinct roots never share an exact
    fingerprint."""
    return 1.0 / (np.arange(n) + np.pi)


def check_separation(points: np.ndarray) -> None:
    """RootLookupError if two rows of points, nonzero vectors whose
    coordinates share one sign (roots do), lie within SEPARATION_GUARD
    of each other.

    For the fingerprint f(x) = x @ w, Cauchy-Schwarz gives
    |f(x) - f(y)| <= |w| |x - y|, so two such rows have fingerprints
    within |w| SEPARATION_GUARD.  Sorted by fingerprint, each key is
    compared with the following ones up to that reach: complete, and
    almost always one pass."""
    n = points.shape[1]
    weights = _fingerprint_weights(n)
    f = points @ weights
    order = f.argsort(kind="stable")
    keys = f[order]
    # The float error of x @ w is below n 2^-53 sum_j |x_j| w_j, which
    # is |f(x)| for a point; slop covers two such errors four times over.
    slop = 4 * n * np.finfo(float).eps
    reach = (float(np.linalg.norm(weights)) * (1 + slop) * SEPARATION_GUARD
             + slop * float(np.abs(keys).max()))
    first = np.arange(len(keys))
    gap = 1
    while True:
        first = first[first + gap < len(keys)]
        first = first[keys[first + gap] - keys[first] <= reach]
        if not len(first):
            return
        step = points[order[first + gap]] - points[order[first]]
        if np.any(np.einsum("ij,ij->i", step, step) <= SEPARATION_GUARD ** 2):
            raise RootLookupError("root BFS produced a near-duplicate vector")
        gap += 1


@dataclass
class RootTable:
    """All roots of a finite-type graph with integer ids.

    Ids 0..P-1 are the positive roots in BFS discovery order (the
    first len(g) of them are the simple roots in vertex order); id
    i + P is the negative of id i.  Ids grow with depth.
    """

    graph: CoxeterGraph
    roots: np.ndarray            # (2P, n) coordinates
    n_positive: int
    form: np.ndarray
    # Row k is the action of the k-th generator on root ids.
    _gen_perms: np.ndarray = field(repr=False)
    # Entry b >= n is a generator k with s_k b one level shallower.
    _parent_gens: np.ndarray = field(repr=False)

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.roots)

    def simple_root_id(self, s: str) -> int:
        return self.graph.index(s)

    def root_id(self, v: Sequence[float]) -> int:
        """Id of the root within ROOT_TOLERANCE of v; RootLookupError if
        the nearest root is farther."""
        vec = np.asarray(v, dtype=float)
        dist = np.linalg.norm(self.roots - vec, axis=1)
        i = int(dist.argmin())
        if not dist[i] <= ROOT_TOLERANCE:
            raise RootLookupError(
                f"vector {vec} is {dist[i]:.3e} from the nearest root "
                f"(tolerance {ROOT_TOLERANCE:.0e})")
        return i

    def inner(self, i: int, j: int) -> float:
        return float(self.roots[i] @ self.form @ self.roots[j])

    # -- permutations -------------------------------------------------------

    def generator_perm(self, s: str) -> np.ndarray:
        """Action of the generator s on root ids, as an int32 array."""
        return self._gen_perms[self.graph.index(s)]

    def reflection_perm(self, root_id: int) -> np.ndarray:
        """Action of the reflection along the given root (or its
        negative) on root ids.  The parent chain writes the root as
        u a_i with u = s_k1 ... s_kd, so the reflection is u s_i u^-1."""
        p, gens = self.n_positive, self._gen_perms
        if not 0 <= root_id < 2 * p:
            raise IndexError(f"root id {root_id} is not in [0, {2 * p})")
        ids = np.arange(2 * p, dtype=gens.dtype)
        u, b = ids, root_id % p
        while b >= len(gens):
            k = self._parent_gens[b]
            u, b = u.take(gens[k]), gens[k, b]
        inverse = np.empty_like(u)
        inverse[u] = ids
        return u[gens[b][inverse]]

    def coefficients(self, i: int) -> np.ndarray:
        return self.roots[i]


def enumerate_roots(g: CoxeterGraph, cap: int = ROOT_CAP) -> RootTable:
    """The positive roots by depth, negatives appended afterwards; the
    BFS edges are the generator permutations, and one edge into each
    root is its parent edge.

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
        raise CapExceededError(
            f"root system has {2 * expected} roots, which exceeds the cap {cap}")

    n = len(g.vertices)
    B = bilinear_form(g)
    if not n:  # the empty graph's trivial group has no roots
        return RootTable(g, B, 0, B, np.empty((0, 0), dtype=np.int32), np.empty(0, dtype=np.intp))
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
    check_separation(roots)
    gen_perms = np.tile(np.arange(2 * expected, dtype=np.int32), (n, 1))
    parent_gens = np.full(expected, -1, dtype=np.intp)
    if edges:
        gens, src, dst = (np.concatenate(e) for e in zip(*edges))
        gen_perms[gens, src] = dst
        gen_perms[gens, dst] = src
        # Every edge into a root is a down-move from it; any one will do.
        parent_gens[dst] = gens
    simple = np.arange(n)
    gen_perms[simple, simple] = simple + expected
    # s(-b) = -s(b): the negative half mirrors the positive one.
    gen_perms[:, expected:] = (gen_perms[:, :expected] + expected) % (2 * expected)
    return RootTable(graph=g, roots=roots, n_positive=expected, form=B,
                     _gen_perms=gen_perms, _parent_gens=parent_gens)


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
