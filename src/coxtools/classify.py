"""Recognition of irreducible finite types and exact group orders.

Low-rank coincidences are always resolved to the canonical label:
B1 -> A1, D1 -> A1, D3 -> A3, I2(3) -> A2, I2(4) -> B2.  (D2 is
disconnected, hence never the label of a connected graph.)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .errors import InfiniteTypeError
from .graph import INF, CoxeterGraph, components, graph_isomorphism, is_connected

INFINITE = float("inf")

FINITE_FAMILIES = ("A", "B", "D", "E", "F", "H", "I2")
INFINITE_FAMILIES = ("Ainf", "Binf", "Dinf", "AinfInf", "E7plus", "H3plus", "Unknown")
# E7plus / H3plus are not Coxeter groups; they are admissible factor
# labels used in the isomorphism decider (even subgroups of E7, H3).


@dataclass(frozen=True, order=True)
class TypeLabel:
    """Name of an irreducible type: a family plus a rank / edge label."""

    family: str
    param: Optional[int] = None

    def __post_init__(self):
        f, p = self.family, self.param
        if f in ("A", "B"):
            if not (isinstance(p, int) and p >= 1):
                raise ValueError(f"bad rank {p} for family {f}")
        elif f == "D":
            if not (isinstance(p, int) and p >= 2):
                raise ValueError(f"bad rank {p} for family D")
        elif f == "E":
            if p not in (6, 7, 8):
                raise ValueError(f"bad rank {p} for family E")
        elif f == "F":
            if p != 4:
                raise ValueError("family F has rank 4 only")
        elif f == "H":
            if p not in (3, 4):
                raise ValueError(f"bad rank {p} for family H")
        elif f == "I2":
            if not (isinstance(p, int) and p >= 3):
                raise ValueError(f"bad edge label {p} for I2")
        elif f in INFINITE_FAMILIES:
            if p is not None:
                raise ValueError(f"family {f} takes no parameter")
        else:
            raise ValueError(f"unknown family {f!r}")

    def __str__(self) -> str:
        if self.family == "I2":
            return f"I2({self.param})"
        if self.family == "E7plus":
            return "E7+"
        if self.family == "H3plus":
            return "H3+"
        if self.param is None:
            return self.family
        return f"{self.family}{self.param}"

    @property
    def rank(self) -> Optional[int]:
        if self.family == "I2":
            return 2
        if self.family in FINITE_FAMILIES:
            return self.param
        return None

    def is_finite(self) -> bool:
        return self.family in FINITE_FAMILIES

    def canonical(self) -> "TypeLabel":
        f, p = self.family, self.param
        if f == "B" and p == 1:
            return TypeLabel("A", 1)
        if f == "D":
            if p == 1:
                return TypeLabel("A", 1)
            if p == 3:
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
    fixed = {
        "E7+": TypeLabel("E7plus"),
        "H3+": TypeLabel("H3plus"),
        "Ainf": TypeLabel("Ainf"),
        "Binf": TypeLabel("Binf"),
        "Dinf": TypeLabel("Dinf"),
        "AinfInf": TypeLabel("AinfInf"),
        "Unknown": TypeLabel("Unknown"),
    }
    if text in fixed:
        return fixed[text]
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


def _candidate_labels(n: int) -> list[TypeLabel]:
    out = []
    if n >= 1:
        out.append(TypeLabel("A", n))
    if n >= 3:
        out.append(TypeLabel("B", n))
    if n >= 4:
        out.append(TypeLabel("D", n))
    if n in (6, 7, 8):
        out.append(TypeLabel("E", n))
    if n == 4:
        out.append(TypeLabel("F", 4))
    if n in (3, 4):
        out.append(TypeLabel("H", n))
    return out


def classify_irreducible(g: CoxeterGraph) -> TypeLabel:
    """Canonical finite-type label of a connected graph, or Unknown."""
    if len(g) == 0:
        raise ValueError("empty graph")
    if not is_connected(g):
        raise ValueError("graph is disconnected")
    n = len(g)
    if n == 1:
        return TypeLabel("A", 1)
    if n == 2:
        m = g.m(*g.vertices)
        if m == INF or m == 2:
            return TypeLabel("Unknown")
        if m == 3:
            return TypeLabel("A", 2)
        if m == 4:
            return TypeLabel("B", 2)
        return TypeLabel("I2", m)
    labels = [m for _, _, m in g.edges()]
    if INF in labels or len(labels) != n - 1:
        return TypeLabel("Unknown")  # inf edge, or a cycle
    for cand in _candidate_labels(n):
        if graph_isomorphism(build_named(cand), g) is not None:
            return cand
    return TypeLabel("Unknown")


def classify_components(g: CoxeterGraph) -> list[TypeLabel]:
    """One canonical label per connected component, in component order.
    Computed once per graph (graphs are immutable); each call returns a
    fresh list."""
    if g._type_labels is None:
        g._type_labels = tuple(classify_irreducible(g.subgraph(comp)) for comp in components(g))
    return list(g._type_labels)


# -- orders and root counts --------------------------------------------------

_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("H", 3): 120,
    ("H", 4): 14400,
}

_EXCEPTIONAL_POSITIVE_ROOTS = {
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
    ("F", 4): 24,
    ("H", 3): 15,
    ("H", 4): 60,
}


def group_order(label: TypeLabel) -> object:
    """|W(T)| as an exact integer, or INFINITE."""
    f, n = label.family, label.param
    if f == "A":
        return math.factorial(n + 1)
    if f == "B":
        return (1 << n) * math.factorial(n)
    if f == "D":
        return (1 << (n - 1)) * math.factorial(n)
    if f == "I2":
        return 2 * n
    if (f, n) in _EXCEPTIONAL_ORDERS:
        return _EXCEPTIONAL_ORDERS[(f, n)]
    if f == "E7plus":
        return _EXCEPTIONAL_ORDERS[("E", 7)] // 2
    if f == "H3plus":
        return _EXCEPTIONAL_ORDERS[("H", 3)] // 2
    return INFINITE


def positive_root_count(label: TypeLabel) -> int:
    """|Phi+| for a finite type (equals the length of the longest element)."""
    f, n = label.family, label.param
    if f == "A":
        return n * (n + 1) // 2
    if f == "B":
        return n * n
    if f == "D":
        return n * (n - 1)
    if f == "I2":
        return n
    if (f, n) in _EXCEPTIONAL_POSITIVE_ROOTS:
        return _EXCEPTIONAL_POSITIVE_ROOTS[(f, n)]
    raise InfiniteTypeError(f"{label} is not a finite type")


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
