"""Longest elements, highest roots, reflection decompositions of
longest elements, and the nested normal subgroups of the B- and
D-families.

An element is fixed by the positive roots it sends negative, and w0(I)
sends exactly those supported on I negative (Humphreys, Reflection
Groups and Coxeter Groups, 1.6-1.8).  One walk finds it, u <- u s_k
for the first k of I with u(a_k) > 0, one step per letter of w0(I):
``longest_element`` on the right generator table of an enumerated
group, ``longest_word`` on the generator permutations of a root table.

The decomposition algorithm peels one commuting reflection off the
longest element per turn: pick an irreducible component of the current
vertex set, take its highest root(s), reflect, and recurse on the
component minus the contact vertex (or the two contact vertices for
the A / odd-I2 families).  Highest roots are read off the root table
exactly: they are the roots of the component that no generator of it
sends deeper, and their contacts are the generators that move them.
The product is accepted as w0(I) by the roots it sends negative.
Tie-breaks are fixed so the produced generator sequences are
reproducible: the component containing the last vertex in canonical
order is processed first, and of the two highest roots of B_n, F4 and
even I2(m) the paper's first is taken, by a contact read off the
component's own graph.  Only the parity of the sequence length is
meaningful downstream; it is independent of all of these choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .classify import TypeLabel, build_named
from .engine import EnumeratedGroup, SubgroupHandle, subgroup_closure
from .errors import CoxeterError
from .graph import components, reach, vertex_subset


# -- longest elements ---------------------------------------------------------


def _sigma(g, ks: Sequence[int], heads: Sequence[int], p: int) -> dict[str, str]:
    """The graph automorphism induced by w0 from the images of the
    simple roots (w0 . a_s = -a_sigma(s)); raises unless each simple
    root of the subset goes to a negative simple root, which singles
    out w0 in its parabolic."""
    sigma: dict[str, str] = {}
    for k in ks:
        j = int(heads[k]) - p
        if not 0 <= j < len(g.vertices):
            raise CoxeterError("longest element did not negate a simple root")
        sigma[g.vertices[k]] = g.vertices[j]
    return sigma


def longest_word(table, subset: Iterable[str]) -> tuple[list[str], np.ndarray, dict[str, str]]:
    """w0(subset) from the root table alone: the word the walk spells,
    NF(w0), the least reduced word that ``EnumeratedGroup.word``
    prints; its root permutation; and the graph automorphism sigma it
    induces (w0 . a_s = -a_sigma(s)).  Each step composes one generator
    permutation of all 2P roots."""
    g, p = table.graph, table.n_positive
    ks = [g.index(s) for s in vertex_subset(g, subset)]
    u, word = np.arange(len(table), dtype=np.int32), []
    while (k := next((k for k in ks if u[k] < p), None)) is not None:
        u = u.take(table.generator_perm(g.vertices[k]))
        word.append(g.vertices[k])
    return word, u, _sigma(g, ks, u, p)


def longest_element(G: EnumeratedGroup, subset: Iterable[str]) -> tuple[int, dict[str, str]]:
    """The longest element of the standard parabolic on ``subset`` and
    its induced graph automorphism, as an element of the group.

    Walks ``right`` from the identity: while some simple root a_k of
    the subset has a positive image, a s_k is one longer than a, so
    this stops after l(w0) steps, at the one element of the parabolic
    that makes them all negative.  Sigma is read off its heads."""
    g = G.graph
    ks = [g.index(s) for s in vertex_subset(g, subset)]
    p = G.table.n_positive
    heads, right = G.heads, G.right
    a = G.identity
    while True:
        row = heads[a].tolist()
        for k in ks:
            if row[k] < p:
                a = right[a, k]
                break
        else:
            return int(a), _sigma(g, ks, row, p)


def sigma_is_identity(sigma: dict[str, str]) -> bool:
    return all(s == t for s, t in sigma.items())


@dataclass
class ReflectionDecomposition:
    """w0(I) as an ordered product of pairwise-commuting reflections
    along pairwise-orthogonal roots, with the descending chain of
    leftover vertex subsets K0 = I > K1 > ... > Kr = empty."""

    subset: tuple[str, ...]
    root_ids: list[int]
    reflections: list[int]
    subsets: list[tuple[str, ...]]
    w0: int

    @property
    def length(self) -> int:
        """Number of reflections (the generator-sequence length r)."""
        return len(self.root_ids)

    @property
    def generator_sequence(self) -> list[tuple[str, ...]]:
        """K1, ..., Kr (the initial K0 = I is not part of it)."""
        return self.subsets[1:]


def highest_roots(table, comp: Sequence[str]) -> list[tuple[int, tuple[str, ...]]]:
    """The highest roots of a connected vertex set J, each with its
    contacts: the generators of J that move it.

    The highest roots are the positive roots in the span of J that no
    generator of J sends deeper, one per W_J-orbit: each orbit meets
    the closed fundamental chamber exactly once (Humphreys, Reflection
    Groups and Coxeter Groups, 1.12).  Every orbit holds a simple root
    of J, so climbing by up-moves from each of them finds them all.
    Ids grow with depth, so s_j b is deeper than b exactly when
    b < s_j b < P."""
    p = table.n_positive
    moves = [table.generator_perm(s)[:p].tolist() for s in comp]
    found: dict[int, None] = {}
    for s in comp:
        b = table.simple_root_id(s)
        while up := [m[b] for m in moves if b < m[b] < p]:
            b = up[0]
        found[b] = None
    return [(b, tuple(s for s, m in zip(comp, moves) if m[b] != b)) for b in found]


def _first_contact(graph, comp: Sequence[str]) -> str:
    """The contact of the paper's first highest root of a component J
    with two, read off J's graph: for |J| = 2 (B2 and even I2(m)) the
    later vertex, else, of the leaves furthest from the 4-edge, the
    first: the far end of B_n's path, the earlier leaf of F4."""
    if len(comp) == 2:
        return comp[1]
    sub = graph.subgraph(comp)
    four = [v for v in comp if any(sub.m(v, w) == 4 for w in sub.neighbors(v))]
    leaves = [v for v in comp if len(sub.neighbors(v)) == 1]
    if len(four) != 2 or len(leaves) != 2:
        raise CoxeterError(f"component {comp} has two highest roots but is not B_n or F4")
    depth = reach(sub, four)
    return max(leaves, key=depth.__getitem__)


def decompose_on_table(table, subset: Iterable[str], tie_break: str = "paper"):
    """Table-level reflection decomposition of w0(subset): the root
    ids, their reflection permutations, the leftover chain and w0.
    Works for any finite type whose roots fit in memory, without
    enumerating the group (E8 has 240 roots but ~7e8 elements).

    The product P of the reflections is w0(subset) exactly when the
    positive roots it sends negative are those supported on the subset:
    their coordinates off it are exactly zero, since reflecting by s_k
    changes only coordinate k."""
    if tie_break not in ("paper", "alt"):
        raise ValueError("tie_break must be 'paper' or 'alt'")
    graph = table.graph
    start = vertex_subset(graph, subset)
    current = start
    vertex_pos = {v: i for i, v in enumerate(graph.vertices)}
    root_ids: list[int] = []
    refl_perms: list[np.ndarray] = []
    subsets: list[tuple[str, ...]] = [start]
    while current:
        comps = components(graph.subgraph(current))
        pick = max if tie_break == "paper" else min
        comp = pick(comps, key=lambda c: pick(vertex_pos[v] for v in c))
        highest = highest_roots(table, comp)
        if len(highest) == 2:
            first = [c for _, c in highest].index((_first_contact(graph, comp),))
            highest.insert(0, highest.pop(first))
        rid, contacts = highest[0] if tie_break == "paper" else highest[-1]
        refl_perms.append(table.reflection_perm(rid))
        current = tuple(v for v in current if v not in contacts)
        root_ids.append(rid)
        subsets.append(current)
    product, p = np.arange(len(table), dtype=np.int32), table.n_positive
    for perm in refl_perms:
        product = product[perm]
    off = [k for k, v in enumerate(graph.vertices) if v not in start]
    if not np.array_equal(product[:p] >= p, (table.roots[:p, off] == 0).all(axis=1)):
        raise CoxeterError("reflection product does not equal the longest element")
    return root_ids, refl_perms, subsets, product


def deodhar_decompose(
    G: EnumeratedGroup, subset: Iterable[str], tie_break: str = "paper"
) -> ReflectionDecomposition:
    """Reflection decomposition of w0(subset).

    ``tie_break='paper'`` processes the component containing the last
    canonical vertex and takes variant 1 of a double root;
    ``'alt'`` does the opposite.  The resulting sequences differ but
    their length parity never does.
    """
    root_ids, refl_perms, subsets, w0_perm = decompose_on_table(
        G.table, subset, tie_break)
    return ReflectionDecomposition(
        subset=subsets[0],
        root_ids=root_ids,
        reflections=[G.element_from_perm(p) for p in refl_perms],
        subsets=subsets,
        w0=G.element_from_perm(w0_perm),
    )


# -- the B/D tower subgroups --------------------------------------------------

# The catalog rank at which each tower starts: G_{B_n} is generated by
# w0(S(B_i)) for 1 <= i <= n, G_{D_n} by w0(S(D_i)) for 2 <= i <= n.
TOWERS = {"B": 1, "D": 2}


def special_subgroup(G: EnumeratedGroup, family: str, n: int) -> SubgroupHandle:
    """G_{B_n} or G_{D_n} (see ``TOWERS``) of the catalog-named
    W(B_n) or W(D_n): ``special_subgroup_via`` with the identity tau.

    Both are elementary abelian 2-groups, normal in the ambient group,
    with the listed longest elements as a basis; this is asserted.
    """
    if family not in TOWERS:
        raise ValueError("family must be 'B' or 'D'")
    if G.graph != build_named(TypeLabel(family, n)):
        raise ValueError(f"group is not the catalog-named W({family}{n})")
    rank = n + 1 - TOWERS[family]
    H = special_subgroup_via(G, {v: v for v in G.graph.vertices}, family)
    if len(H) != 1 << rank:
        raise CoxeterError(f"G_{{{family}_{n}}} is not elementary abelian of rank {rank}")
    if not H.is_normal() or not H.is_abelian():
        raise CoxeterError(f"G_{{{family}_{n}}} failed normality/commutativity checks")
    return H


def special_subgroup_via(G: EnumeratedGroup, tau: dict[str, str], family: str) -> SubgroupHandle:
    """tau(G_{B_n}) or tau(G_{D_n}), n the rank of G: generated by the
    w0(tau(S(family_i))) from the tower's start in ``TOWERS`` up to n,
    for tau an isomorphism from the catalog graph onto G's graph (a
    renaming and a graph automorphism) or the identity on catalog names."""
    prefix = [tau[f"s{k}"] for k in range(1, len(G.graph) + 1)]
    gens = [longest_element(G, prefix[:i])[0]
            for i in range(TOWERS[family], len(prefix) + 1)]
    return subgroup_closure(G, gens)
