"""The benchmark's own catalog of finite Coxeter types.

It writes `.cox` texts and knows the answers the benchmark checks
against (group orders, positive-root counts, direct indecomposability,
whether the centre is a proper direct factor) without calling coxtools,
so a check never trusts the code it checks.

A type is a string such as ``"A3"``, ``"F4"`` or ``"I2(7)"``; a product
is a tuple of such strings.  Names are canonical: I2(m) has m >= 5.
Vertex names follow the catalog convention s1..sn; in a product the
i-th factor's vertices are prefixed ``c<i>_``.
"""

from __future__ import annotations

import math
import re

_NAME = re.compile(r"^(?:([ABDEFH])(\d+)|I2\((\d+)\))$")

_EXCEPTIONAL_ORDER = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                      ("F", 4): 1152, ("H", 3): 120, ("H", 4): 14400}
_EXCEPTIONAL_POSITIVE = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
                         ("F", 4): 24, ("H", 3): 15, ("H", 4): 60}

# Catalog types as the acceptance suites enumerate them (README,
# criterion 1), minus I2(3) = A2 and I2(4) = B2.
CATALOG = (["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
            "D4", "D5", "F4", "H3", "H4"]
           + [f"I2({m})" for m in range(5, 15)])
# Types whose root table is small but whose group is far past any cap.
ROOT_ONLY = ["E6", "E7", "E8", "A8", "B8", "D8"]


def split(name: str) -> tuple[str, int]:
    m = _NAME.match(name)
    if not m:
        raise ValueError(f"not a catalog type name: {name!r}")
    if m.group(3) is not None:
        return "I2", int(m.group(3))
    return m.group(1), int(m.group(2))


def rank(name: str) -> int:
    family, n = split(name)
    return 2 if family == "I2" else n


def order(name: str) -> int:
    family, n = split(name)
    if family == "A":
        return math.factorial(n + 1)
    if family == "B":
        return 2 ** n * math.factorial(n)
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    if family == "I2":
        return 2 * n
    return _EXCEPTIONAL_ORDER[(family, n)]


def product_order(names) -> int:
    return math.prod(order(t) for t in names)


def positive_roots(name: str) -> int:
    family, n = split(name)
    if family == "A":
        return n * (n + 1) // 2
    if family == "B":
        return n * n
    if family == "D":
        return n * (n - 1)
    if family == "I2":
        return n
    return _EXCEPTIONAL_POSITIVE[(family, n)]


def indecomposable(name: str) -> bool:
    """False exactly for B_{2k+1} (k >= 1), I2(4k+2) (k >= 1), E7, H3."""
    family, n = split(name)
    if family == "B":
        return n < 3 or n % 2 == 0
    if family == "I2":
        return not (n >= 6 and n % 4 == 2)
    return (family, n) not in (("E", 7), ("H", 3))


def center_trivial(name: str) -> bool:
    """The centre is nontrivial exactly when the longest element is -1."""
    family, n = split(name)
    if family == "A":
        return n != 1
    if family == "D":
        return n % 2 == 1
    if family == "E":
        return n == 6
    if family == "I2":
        return n % 2 == 1
    return False  # B, F4, H3, H4


def edges(name: str) -> list[tuple[str, str, int]]:
    """Labelled edges of the catalog graph on s1..sn (labels >= 3)."""
    family, n = split(name)
    if family == "I2":
        return [("s1", "s2", n)]
    path = [(f"s{i}", f"s{i + 1}", 3) for i in range(1, n)]
    if family == "A":
        return path
    if family == "B":
        return [("s1", "s2", 4)] + path[1:]
    if family == "D":
        return [("s1", "s3", 3), ("s2", "s3", 3)] + path[2:]
    if family == "E":
        return [("s1", "s3", 3), ("s2", "s4", 3)] + path[2:]
    if family == "F":
        return [("s1", "s2", 3), ("s2", "s3", 4), ("s3", "s4", 3)]
    if family == "H":
        return [("s1", "s2", 5)] + path[1:]
    raise ValueError(name)


def vertices(names) -> list[str]:
    """Vertex names of a type (a string) or a product (a tuple)."""
    if isinstance(names, str):
        return [f"s{i}" for i in range(1, rank(names) + 1)]
    return [f"c{i}_{v}" for i, t in enumerate(names) for v in vertices(t)]


def commuting_pairs(name: str) -> list[tuple[str, str]]:
    """Pairs of distinct generators with m(s, t) = 2."""
    linked = {frozenset((a, b)) for a, b, _ in edges(name)}
    vs = vertices(name)
    return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
            if frozenset((a, b)) not in linked]


def cox_text(names) -> str:
    """The `.cox` text of a type or of a product of types."""
    if isinstance(names, str):
        es = edges(names)
    else:
        es = [(f"c{i}_{a}", f"c{i}_{b}", m)
              for i, t in enumerate(names) for a, b, m in edges(t)]
    lines = ["# generated by perfbench", "vertices: " + " ".join(vertices(names))]
    lines += [f"edge {a} {b} {m}" for a, b, m in es]
    return "\n".join(lines) + "\n"


def products(atoms, max_order: int, max_parts: int) -> list[tuple[str, ...]]:
    """Multisets of ``atoms`` (as sorted tuples) with at most
    ``max_parts`` factors and order at most ``max_order``."""
    atoms = sorted(atoms, key=lambda t: (order(t), t))
    out: list[tuple[str, ...]] = []

    def rec(start: int, chosen: list[str], total: int):
        if chosen:
            out.append(tuple(chosen))
        if len(chosen) == max_parts:
            return
        for i in range(start, len(atoms)):
            o = total * order(atoms[i])
            if o <= max_order:
                chosen.append(atoms[i])
                rec(i, chosen, o)
                chosen.pop()

    rec(0, [], 1)
    return out
