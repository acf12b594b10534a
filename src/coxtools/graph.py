"""Coxeter graphs: data model, ``.cox`` text format, connectivity and
label-preserving isomorphism search.

A Coxeter graph is a simple edge-labelled graph with labels in
{3, 4, ...} or infinity; a missing edge means the two generators
commute (label 2), and a vertex paired with itself has label 1.  The
vertex order given at construction is the canonical index order used
everywhere downstream (root coordinates, element ids).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapExceededError, GraphParseError

# Sentinel for the label m = infinity; serialized as the token "inf".
INF = float("inf")

ISO_VERTEX_CAP = 64


class CoxeterGraph:
    """Immutable edge-labelled graph defining a Coxeter system.

    ``vertices`` is an ordered tuple of distinct names; ``edges`` maps
    frozenset pairs to labels >= 3 (or INF).  Pairs that are absent
    have label 2.  The constructor makes the only validity checks, and
    reads ``edges`` one at a time, so a parser can name the bad line.
    """

    __slots__ = ("vertices", "_index", "_labels", "_edge_order", "_adj", "_hash",
                 "_type_labels")

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str, object]] = ()):
        self.vertices = tuple(str(v) for v in vertices)
        self._index: dict[str, int] = {}
        for i, v in enumerate(self.vertices):
            if self._index.setdefault(v, i) != i:
                raise ValueError(f"duplicate vertex {v!r}")
        labels: dict[frozenset, object] = {}
        order: list[tuple[str, str]] = []
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b, m in edges:
            if a not in self._index or b not in self._index:
                raise ValueError(f"unknown vertex in edge ({a}, {b})")
            if a == b:
                raise ValueError(f"self-edge at {a!r}")
            if m != INF and (not isinstance(m, int) or m < 3):
                raise ValueError(f"edge label must be an integer >= 3 or inf, got {m!r}")
            key = frozenset((a, b))
            if key in labels:
                raise ValueError(f"duplicate edge ({a}, {b})")
            labels[key] = m
            order.append((a, b))
            adj[a].append(b)
            adj[b].append(a)
        self._labels = labels
        self._edge_order = tuple(order)
        self._adj = {v: tuple(ns) for v, ns in adj.items()}
        self._hash = hash((self.vertices, frozenset(labels.items())))
        # Component type labels, filled by classify.classify_components.
        self._type_labels = None

    # -- basic queries ----------------------------------------------------

    def m(self, s: str, t: str) -> object:
        """Coxeter matrix entry m(s, t): 1 on the diagonal, 2 off-graph."""
        if s == t:
            if s not in self._index:
                raise KeyError(s)
            return 1
        return self._labels.get(frozenset((s, t)), 2)

    def index(self, v: str) -> int:
        return self._index[v]

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._adj[v]

    def edges(self) -> Iterator[tuple[str, str, object]]:
        for a, b in self._edge_order:
            yield a, b, self._labels[frozenset((a, b))]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoxeterGraph)
            and self.vertices == other.vertices
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        es = ", ".join(f"{a}-{b}:{m}" for a, b, m in self.edges())
        return f"CoxeterGraph({list(self.vertices)}, [{es}])"

    # -- derived graphs ---------------------------------------------------

    def subgraph(self, keep: Iterable[str]) -> "CoxeterGraph":
        """Full subgraph on ``keep``, in canonical vertex order."""
        verts = vertex_subset(self, keep)
        keep = set(verts)
        return CoxeterGraph(verts, [(a, b, m) for a, b, m in self.edges()
                                    if a in keep and b in keep])

    def relabel(self, mapping: dict[str, str]) -> "CoxeterGraph":
        verts = [mapping[v] for v in self.vertices]
        es = [(mapping[a], mapping[b], m) for a, b, m in self.edges()]
        return CoxeterGraph(verts, es)

    @staticmethod
    def disjoint_union(*graphs: "CoxeterGraph") -> "CoxeterGraph":
        """Concatenate graphs; vertex names must not collide."""
        return CoxeterGraph([v for g in graphs for v in g.vertices],
                            [e for g in graphs for e in g.edges()])


# -- text format -----------------------------------------------------------


def _edge(line: str) -> tuple[str, str, object]:
    """An ``edge a b label`` line as (a, b, int or INF), unchecked."""
    parts = line.split()
    if parts[0] == "vertices:":
        raise ValueError("second 'vertices:' line")
    if parts[0] != "edge" or len(parts) != 4:
        raise ValueError(f"malformed line {line!r}")
    _, a, b, lab = parts
    if lab == "inf":
        return a, b, INF
    try:
        return a, b, int(lab)
    except ValueError:
        raise ValueError(f"bad label {lab!r}") from None


def parse_graph(text: str) -> CoxeterGraph:
    """Parse the ``.cox`` line format.

    Grammar: optional ``#`` comment lines; exactly one
    ``vertices: name1 name2 ...`` line first; then ``edge a b label``
    lines with label an integer >= 3 or the token ``inf``.  Only tokens
    are read here; the edges stream into ``CoxeterGraph``'s checks, and
    an error names the line being read."""
    lineno = 1

    def statements() -> Iterator[str]:
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line

    lines = statements()
    first = next(lines, None)
    if first is None:
        raise GraphParseError(1, "missing 'vertices:' line")
    try:
        if not first.startswith("vertices:"):
            raise ValueError("expected 'vertices: ...' as first declaration")
        names = first[len("vertices:"):].split()
        if not names:
            raise ValueError("empty vertex list")
        return CoxeterGraph(names, map(_edge, lines))
    except ValueError as exc:
        raise GraphParseError(lineno, str(exc)) from None


def render_graph(g: CoxeterGraph) -> str:
    """Canonical serializer; ``parse_graph(render_graph(g)) == g``."""
    lines = ["vertices: " + " ".join(g.vertices)]
    for a, b, m in g.edges():
        lines.append(f"edge {a} {b} {'inf' if m == INF else m}")
    return "\n".join(lines) + "\n"


# -- connectivity -----------------------------------------------------------


def reach(g: CoxeterGraph, sources: Iterable[str], odd_only: bool = False) -> dict[str, int]:
    """Breadth-first depth of every vertex reachable from ``sources``
    (depth 0), walking only odd-labelled edges with ``odd_only``.  It
    serves components, distances, connectivity and the distance from a
    4-edge that ``deodhar`` reads a highest root's contact off."""
    depth = dict.fromkeys(sources, 0)
    queue = list(depth)
    for v in queue:
        for w in g.neighbors(v):
            if w not in depth and (not odd_only or (m := g.m(v, w)) != INF and m % 2 == 1):
                depth[w] = depth[v] + 1
                queue.append(w)
    return depth


def components(g: CoxeterGraph, odd_only: bool = False) -> list[tuple[str, ...]]:
    """Connected components, ordered by smallest vertex index; with
    ``odd_only`` the even- and inf-labelled edges are removed first."""
    out, seen = [], set()
    for start in g.vertices:
        if start not in seen:
            comp = reach(g, [start], odd_only)
            seen.update(comp)
            out.append(tuple(v for v in g.vertices if v in comp))
    return out


def is_connected(g: CoxeterGraph) -> bool:
    return len(g) > 0 and len(reach(g, g.vertices[:1])) == len(g)


# -- labelled isomorphism ----------------------------------------------------


def _vertex_signature(g: CoxeterGraph, v: str):
    return tuple(sorted((str(g.m(v, w)) for w in g.neighbors(v))))


def graph_isomorphisms(
    g1: CoxeterGraph, g2: CoxeterGraph, all_maps: bool = False
) -> list[dict[str, str]]:
    """Label-preserving bijections g1 -> g2 by backtracking.

    Returns all of them with ``all_maps`` (so ``g1 is g2`` yields
    Aut(g1)), otherwise at most one.  Pruning is on (degree, multiset
    of incident labels).
    """
    if len(g1) > ISO_VERTEX_CAP or len(g2) > ISO_VERTEX_CAP:
        raise CapExceededError(f"isomorphism search capped at {ISO_VERTEX_CAP} vertices")
    if len(g1) != len(g2):
        return []
    sig2: dict = {}
    for v in g2.vertices:
        sig2.setdefault((g2.degree(v), _vertex_signature(g2, v)), []).append(v)
    candidates = {}
    for v in g1.vertices:
        cands = sig2.get((g1.degree(v), _vertex_signature(g1, v)), [])
        if not cands:
            return []
        candidates[v] = cands
    # Assign scarce vertices first.
    order = sorted(g1.vertices, key=lambda v: (len(candidates[v]), g1.index(v)))
    found: list[dict[str, str]] = []
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            found.append(dict(mapping))
            return not all_maps
        v = order[k]
        for w in candidates[v]:
            if w in used:
                continue
            ok = all(g1.m(v, u) == g2.m(w, mapping[u]) for u in mapping)
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(k + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    extend(0)
    return found


def graph_isomorphism(g1: CoxeterGraph, g2: CoxeterGraph) -> Optional[dict[str, str]]:
    """First label-preserving bijection, or None."""
    maps = graph_isomorphisms(g1, g2, all_maps=False)
    return maps[0] if maps else None


def automorphisms(g: CoxeterGraph) -> list[dict[str, str]]:
    return graph_isomorphisms(g, g, all_maps=True)


def vertex_subset(g: CoxeterGraph, subset: Iterable[str]) -> tuple[str, ...]:
    """The named vertices in vertex order; an unknown name raises,
    naming the first unknown one in sorted order."""
    names = set(subset)
    for v in sorted(names):
        if v not in g:
            raise ValueError(f"unknown vertex {v!r}")
    return tuple(s for s in g.vertices if s in names)


def perp(g: CoxeterGraph, subset: Iterable[str]) -> tuple[str, ...]:
    """Vertices outside ``subset`` adjacent (m >= 3) to none of it."""
    inside = set(vertex_subset(g, subset))
    return tuple(
        v for v in g.vertices
        if v not in inside and all(g.m(v, t) == 2 for t in inside)
    )


def distance(g: CoxeterGraph, s: str, targets: Iterable[str]) -> int:
    """Graph distance from s to the nearest vertex of ``targets``, or -1."""
    return reach(g, targets).get(s, -1)


def all_subsets(g: CoxeterGraph) -> Iterator[tuple[str, ...]]:
    """All vertex subsets in (size, canonical index) order."""
    for r in range(len(g.vertices) + 1):
        yield from itertools.combinations(g.vertices, r)
