"""Recognition of irreducible finite types, and their degrees.

Low-rank coincidences are always resolved to the canonical label:
B1 -> A1, D3 -> A3, I2(3) -> A2, I2(4) -> B2.  (D2 is disconnected,
hence never the label of a connected graph.)

The degrees d_1..d_n of the basic invariants give the family facts:
|W| is their product, |Phi+| = sum(d_i - 1), and an irreducible W has
a nontrivial center exactly when every d_i is even (Humphreys,
Reflection Groups and Coxeter Groups, 1990, Ch. 3 and Table 3.1).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .errors import InfiniteTypeError
from .graph import INF, CoxeterGraph, components, graph_isomorphism, is_connected

INFINITE = float("inf")

# The parameter each finite family takes, as (least, greatest or None):
# the rank, or for I2 the edge label m.
_FAMILY_PARAMS = {"A": (1, None), "B": (1, None), "D": (2, None), "E": (6, 8),
                  "F": (4, 4), "H": (3, 4), "I2": (3, None)}
INFINITE_FAMILIES = ("Ainf", "Binf", "Dinf", "AinfInf", "E7plus", "H3plus", "Unknown")
# E7plus / H3plus are not Coxeter groups; they are admissible factor
# labels used in the isomorphism decider (even subgroups of E7, H3).


def _takes(family: str, p: object) -> bool:
    lo, hi = _FAMILY_PARAMS[family]
    return type(p) is int and lo <= p and (hi is None or p <= hi)


@dataclass(frozen=True, order=True)
class TypeLabel:
    """Name of an irreducible type: a family plus a rank / edge label."""

    family: str
    param: Optional[int] = None

    def __post_init__(self):
        f, p = self.family, self.param
        if f in _FAMILY_PARAMS:
            if not _takes(f, p):
                raise ValueError(f"family {f} does not take the parameter {p!r}")
        elif f in INFINITE_FAMILIES:
            if p is not None:
                raise ValueError(f"family {f} takes no parameter")
        else:
            raise ValueError(f"unknown family {f!r}")

    def __str__(self) -> str:
        if self.family == "I2":
            return f"I2({self.param})"
        if self.param is None:
            return self.family.replace("plus", "+")
        return f"{self.family}{self.param}"

    def is_finite(self) -> bool:
        return self.family in _FAMILY_PARAMS

    def canonical(self) -> "TypeLabel":
        f, p = self.family, self.param
        if f == "B" and p == 1:
            return TypeLabel("A", 1)
        if f == "D" and p == 3:
            return TypeLabel("A", 3)
        if f == "I2":
            if p == 3:
                return TypeLabel("A", 2)
            if p == 4:
                return TypeLabel("B", 2)
        return self


_LABEL_RE = re.compile(r"^([A-Z])(\d+)$")


def parse_type_label(text: str) -> TypeLabel:
    """Inverse of ``str(TypeLabel)``; accepts e.g. A3, I2(7), E7+, Ainf."""
    text = text.strip()
    for family in INFINITE_FAMILIES:
        if text == str(TypeLabel(family)):
            return TypeLabel(family)
    m = re.match(r"^I2\((\d+)\)$", text)
    if m:
        return TypeLabel("I2", int(m.group(1)))
    m = _LABEL_RE.match(text)
    if m:
        return TypeLabel(m.group(1), int(m.group(2)))
    raise ValueError(f"cannot parse type label {text!r}")


# -- catalog graphs ----------------------------------------------------------


def build_named(label: TypeLabel | str) -> CoxeterGraph:
    """Catalog Coxeter graph with vertices s1..sn.

    Conventions: A_n is the path s1-..-sn; B_n adds label 4 on
    (s1, s2); D_n joins s1 and s2 to s3 then continues s3-..-sn;
    E_n is the path s1-s3-s4-..-sn with s2 hanging off s4; F4 has the
    4 on (s2, s3); H_n has the 5 on (s1, s2); I2(m) is a single
    m-edge.  Truncations (B1, D2, D3) follow the same prefix rule.
    """
    if isinstance(label, str):
        label = parse_type_label(label)
    f, n = label.family, label.param
    if f in INFINITE_FAMILIES:
        raise InfiniteTypeError(f"{label} has no finite catalog graph")
    verts = [f"s{i}" for i in range(1, (2 if f == "I2" else n) + 1)]
    edges: list[tuple[str, str, object]] = []
    if f == "A" or (f == "B" and n == 1):
        edges = [(f"s{i}", f"s{i+1}", 3) for i in range(1, n)]
    elif f == "B":
        edges = [("s1", "s2", 4)] + [(f"s{i}", f"s{i+1}", 3) for i in range(2, n)]
    elif f == "D":
        if n >= 3:
            edges = [("s1", "s3", 3), ("s2", "s3", 3)]
            edges += [(f"s{i}", f"s{i+1}", 3) for i in range(3, n)]
    elif f == "E":
        edges = [("s1", "s3", 3), ("s2", "s4", 3)]
        edges += [(f"s{i}", f"s{i+1}", 3) for i in range(3, n)]
    elif f == "F":
        edges = [("s1", "s2", 3), ("s2", "s3", 4), ("s3", "s4", 3)]
    elif f == "H":
        edges = [("s1", "s2", 5)] + [(f"s{i}", f"s{i+1}", 3) for i in range(2, n)]
    elif f == "I2":
        edges = [("s1", "s2", n)]
    return CoxeterGraph(verts, edges)


def classify_irreducible(g: CoxeterGraph) -> TypeLabel:
    """Canonical finite-type label of a connected graph, or Unknown."""
    if len(g) == 0:
        raise ValueError("empty graph")
    if not is_connected(g):
        raise ValueError("graph is disconnected")
    n = len(g)
    if n == 1:
        return TypeLabel("A", 1)
    labels = [m for _, _, m in g.edges()]
    if INF in labels or len(labels) != n - 1:
        return TypeLabel("Unknown")  # inf edge, or a cycle
    if n == 2:
        return TypeLabel("I2", labels[0]).canonical()
    for family in _FAMILY_PARAMS:
        if family != "I2" and _takes(family, n):
            cand = TypeLabel(family, n)
            if graph_isomorphism(build_named(cand), g) is not None:
                return cand.canonical()
    return TypeLabel("Unknown")


def classify_components(g: CoxeterGraph) -> list[TypeLabel]:
    """One canonical label per connected component, in component order.
    Computed once per graph (graphs are immutable); each call returns a
    fresh list."""
    if g._type_labels is None:
        g._type_labels = tuple(classify_irreducible(g.subgraph(comp)) for comp in components(g))
    return list(g._type_labels)


# -- degrees and the facts they give ------------------------------------------

_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("H", 3): (2, 6, 10),
    ("H", 4): (2, 12, 20, 30),
}


def degrees(label: TypeLabel) -> tuple[int, ...]:
    """Degrees of the basic invariants of W(T), for a finite type."""
    f, n = label.family, label.param
    if f == "A":
        return tuple(range(2, n + 2))
    if f == "B":
        return tuple(range(2, 2 * n + 1, 2))
    if f == "D":
        return (*range(2, 2 * n - 1, 2), n)
    if f == "I2":
        return (2, n)
    if (f, n) in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[(f, n)]
    raise InfiniteTypeError(f"{label} is not a finite type")


def group_order(label: TypeLabel) -> object:
    """|W(T)| as an exact integer, or INFINITE; E7+ and H3+ are the
    index-2 even subgroups of E7 and H3."""
    if label.family in ("E7plus", "H3plus"):
        return group_order(parse_type_label(str(label)[:-1])) // 2
    if not label.is_finite():
        return INFINITE
    return math.prod(degrees(label))


def positive_root_count(label: TypeLabel) -> int:
    """|Phi+| for a finite type (equals the length of the longest element)."""
    d = degrees(label)
    return sum(d) - len(d)


def graph_order(g: CoxeterGraph) -> object:
    """Order of the Coxeter group of a whole (possibly reducible) graph."""
    total = 1
    for label in classify_components(g):
        o = group_order(label)
        if o == INFINITE:
            return INFINITE
        total *= o
    return total


def graph_positive_roots(g: CoxeterGraph) -> int:
    total = 0
    for label in classify_components(g):
        total += positive_root_count(label)
    return total
