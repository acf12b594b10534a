"""Longest elements, highest roots, reflection decompositions of
longest elements, and the nested normal subgroups of the B- and
D-families.

The longest element w0(I) is found two ways, neither of which composes
l(w0) permutations.  In an enumerated group, ``longest_element`` walks
the right generator table from the identity, one step per letter of
w0(I), reading only the simple-root images of the element reached.
On a bare root table (E8, or I2(m) with m in the thousands),
``longest_perm`` takes a power of each component's bipartite Coxeter
element by repeated squaring, about log2 h permutation products.
Either way w0(I) is checked to send every simple root of I to a
negative simple root, which singles it out in W_I.

The decomposition algorithm peels one commuting reflection off the
longest element per turn: pick an irreducible component of the current
vertex set, take its highest root(s), reflect, and recurse on the
component minus the contact vertex (or the two contact vertices for
the A / odd-I2 families).  Highest roots are read off the root table
exactly: they are the roots of the component that no generator of it
sends deeper, and their contacts are the generators that move them.
Tie-breaks are fixed so the produced generator sequences are
reproducible: the component containing the last vertex in canonical
order is processed first, and of the two highest roots of B_n, F4 and
even I2(m) the paper's first (by its catalog contact) is used.  Only
the parity of the sequence length is meaningful downstream; it is
independent of all of these choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .classify import TypeLabel, build_named, classify_irreducible
from .engine import EnumeratedGroup, SubgroupHandle, subgroup_closure
from .errors import CoxeterError
from .graph import components, graph_isomorphisms, reach, vertex_subset


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


def _power(perm: np.ndarray, k: int) -> np.ndarray:
    """perm^k, by repeated squaring."""
    out = np.arange(len(perm), dtype=perm.dtype)
    while k:
        if k & 1:
            out = out.take(perm)
        perm = perm.take(perm)
        k >>= 1
    return out


def longest_perm(table, subset: Iterable[str]) -> tuple[np.ndarray, dict[str, str]]:
    """Root permutation of w0(subset) plus the graph automorphism
    sigma it induces (w0 . a_s = -a_sigma(s)); needs only the table.

    Per component J, split J into two sets of pairwise commuting
    generators (a finite Coxeter graph is a tree), let c+ and c- be
    their products and c = c+ c- the bipartite Coxeter element, of
    order the Coxeter number h = 2 |Phi_J^+| / |J|.  Then w0(J) is
    c^(h/2) for even h and c^((h-1)/2) c+ for odd h (Bourbaki, Lie
    Groups and Lie Algebras, Ch. V, 6, Ex. 2), and the components'
    longest elements commute.  Phi_J^+ is read from the table: the
    positive roots whose coordinates off J are zero, which they are
    exactly, since reflecting by s_k changes only coordinate k.
    """
    g = table.graph
    sub = g.subgraph(subset)
    p = table.n_positive
    perm = np.arange(len(table), dtype=np.int32)
    for comp in components(sub):
        parts = [np.arange(len(table), dtype=np.int32) for _ in range(2)]
        for v, depth in reach(sub, comp[:1]).items():
            parts[depth % 2] = parts[depth % 2].take(table.generator_perm(v))
        off = [k for k, v in enumerate(g.vertices) if v not in comp]
        positive = np.count_nonzero((table.roots[:p, off] == 0).all(axis=1))
        h = 2 * positive // len(comp)
        w0 = _power(parts[0].take(parts[1]), h // 2)
        perm = perm.take(w0.take(parts[0]) if h % 2 else w0)
    ks = [g.index(s) for s in sub.vertices]
    return perm, _sigma(g, ks, perm, p)


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


def _component_map(graph, comp: Sequence[str]) -> tuple[TypeLabel, dict[int, str]]:
    """Classify a component and fix the lexicographically smallest
    mapping catalog position -> ambient vertex."""
    sub = graph.subgraph(comp)
    label = classify_irreducible(sub)
    if not label.is_finite():
        raise CoxeterError(f"component {comp} is not of finite type")
    catalog = build_named(label)
    isos = graph_isomorphisms(catalog, sub, all_maps=True)
    if not isos:
        raise CoxeterError(f"classification of {comp} as {label} has no witness")
    vertex_pos = {v: i for i, v in enumerate(graph.vertices)}
    best = min(
        isos,
        key=lambda m: tuple(vertex_pos[m[f"s{i}"]] for i in range(1, len(catalog) + 1)),
    )
    return label, {i: best[f"s{i}"] for i in range(1, len(catalog) + 1)}


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


def _variant_contacts(label: TypeLabel) -> tuple[int, int]:
    """Catalog positions of the contacts of the paper's first and second
    highest root, for the types with two."""
    return {"B": (label.param, label.param - 1), "F": (1, 4), "I2": (2, 1)}[label.family]


def decompose_on_table(table, subset: Iterable[str], tie_break: str = "paper"):
    """Table-level reflection decomposition of w0(subset): the root
    ids, their reflection permutations and the leftover chain.  Works
    for any finite type whose roots fit in memory, without enumerating
    the group (E8 has 240 roots but ~7e8 elements)."""
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
            label, pos_map = _component_map(graph, comp)
            order = [(pos_map[c],) for c in _variant_contacts(label)]
            highest.sort(key=lambda root: order.index(root[1]))
        rid, contacts = highest[0] if tie_break == "paper" else highest[-1]
        refl_perms.append(table.reflection_perm(rid))
        current = tuple(v for v in current if v not in contacts)
        root_ids.append(rid)
        subsets.append(current)
    product = np.arange(len(table), dtype=np.int32)
    for p in refl_perms:
        product = product[p]
    w0_perm, _ = longest_perm(table, start)
    if not np.array_equal(product, w0_perm):
        raise CoxeterError("reflection product does not equal the longest element")
    return root_ids, refl_perms, subsets, w0_perm


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
