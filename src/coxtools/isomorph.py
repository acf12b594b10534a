"""Irreducible and admissible decompositions, the abstract-isomorphism
decision for Coxeter groups, factorization of a concrete isomorphism
through a direct decomposition, and automorphism-group accounting.

Verdicts are three-valued: YES and NO are proved, UNKNOWN is reserved
for pairs whose infinite components are non-isomorphic *graphs* (graph
isomorphism is sufficient but not necessary for group isomorphism, and
the infinite irreducible case is open).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .classify import TypeLabel, classify_irreducible
from .engine import EnumeratedGroup, SubgroupHandle, find_isomorphism
from .errors import CoxeterError
from .graph import CoxeterGraph, components, graph_isomorphism
from .hommonoid import homs_fixing_factors, invertible_homs

__all__ = [
    "YES", "NO", "UNKNOWN",
    "ComponentMultiset", "DirectDecomposition", "FactoredIsomorphism", "AutBudget",
    "admissible_refinement", "condition_ii_cardinalities", "coxeter_isomorphic",
    "factor_isomorphism", "admissible_factor_handles", "aut_decomposition",
    "aut_order_symproduct",
]

YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"

_INFINITE_SYMBOLIC = ("Ainf", "Binf", "Dinf", "AinfInf")


@dataclass
class ComponentMultiset:
    """Finite components as canonical labels (admissible labels E7+ /
    H3+ may appear after refinement), infinite components as symbolic
    labels, plus the subgraphs of unclassified infinite components."""

    finite: Counter = field(default_factory=Counter)
    infinite: Counter = field(default_factory=Counter)
    unknown_graphs: list[CoxeterGraph] = field(default_factory=list)

    @staticmethod
    def from_graph(g: CoxeterGraph) -> "ComponentMultiset":
        out = ComponentMultiset()
        for comp in components(g):
            sub = g.subgraph(comp)
            label = classify_irreducible(sub)
            if label.is_finite():
                out.finite[label] += 1
            else:
                out.unknown_graphs.append(sub)
        return out

    @staticmethod
    def from_labels(labels: Iterable[TypeLabel]) -> "ComponentMultiset":
        out = ComponentMultiset()
        for label in labels:
            if label.family == "Unknown":
                raise ValueError("Unknown components need their graph; use from_graph")
            if label.is_finite():
                out.finite[label.canonical()] += 1
            elif label.family in _INFINITE_SYMBOLIC:
                out.infinite[label] += 1
            else:
                raise ValueError(f"{label} is not an irreducible component label")
        return out


def admissible_refinement(m: ComponentMultiset) -> ComponentMultiset:
    """Split each directly decomposable finite component into its two
    admissible factors; everything else is kept."""
    out = ComponentMultiset(
        finite=Counter(), infinite=Counter(m.infinite),
        unknown_graphs=list(m.unknown_graphs),
    )
    a1 = TypeLabel("A", 1)
    for label, count in m.finite.items():
        f, n = label.family, label.param
        if f == "B" and n >= 3 and n % 2 == 1:
            out.finite[a1] += count
            out.finite[TypeLabel("D", n).canonical()] += count
        elif f == "I2" and n >= 6 and n % 4 == 2:
            out.finite[a1] += count
            out.finite[TypeLabel("I2", n // 2).canonical()] += count
        elif (f, n) == ("E", 7):
            out.finite[a1] += count
            out.finite[TypeLabel("E7plus")] += count
        elif (f, n) == ("H", 3):
            out.finite[a1] += count
            out.finite[TypeLabel("H3plus")] += count
        else:
            out.finite[label] += count
    return out


def condition_ii_cardinalities(finite: Counter) -> dict:
    """The cardinality list of the finite-part matching condition, as a
    dictionary keyed by the list items, in list order; items with
    count 0 are left out."""
    out: dict = {}
    for label, count in finite.items():
        for rank, key in _condition_ii_items(label.family, label.param):
            out[rank, key] = out.get((rank, key), 0) + count
    return {key: val for (_, key), val in sorted(out.items()) if val}


_NAMED_ITEMS = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("H", 3), ("H", 4))


def _condition_ii_items(f: str, n: Optional[int]) -> list:
    """The list items a component of type (f, n) counts towards, each
    with its (section, index) rank in the list.  Labels that are not
    canonical (B1, D3, I2(4), ...) count towards none."""
    out = []
    if (f, n) in (("A", 1), ("E", 7), ("H", 3)) \
            or (f == "B" and n >= 3 and n % 2 == 1) \
            or (f == "I2" and n >= 6 and n % 4 == 2):
        out.append(((0, 0), ("A1_B_odd_E7_H3_I2_4k2",)))
    if (f, n) in (("B", 3), ("A", 3)):
        out.append(((1, 0), ("B3_A3",)))
    if f in ("B", "D") and n >= 5 and n % 2 == 1:
        out.append(((2, n // 2), ("B_odd_D_odd", n // 2)))
    if (f, n) in (("I2", 6), ("A", 2)):
        out.append(((3, 0), ("I26_A2",)))
    if f == "I2" and (n >= 10 and n % 4 == 2 or n >= 5 and n % 2 == 1):
        k = n // 4 if n % 2 == 0 else n // 2
        out.append(((4, k), ("I2_4k2_I2_2k1", k)))
    if f == "A" and n >= 4:
        out.append(((5, n), ("A", n)))
    if f == "B" and n % 2 == 0:
        out.append(((6, n), ("B_even", n)))
    if f == "D" and n >= 4 and n % 2 == 0:
        out.append(((7, n), ("D_even", n)))
    if (f, n) in _NAMED_ITEMS:
        out.append(((8, _NAMED_ITEMS.index((f, n))), (f, n)))
    if f == "I2" and n >= 8 and n % 4 == 0:
        out.append(((9, n // 4), ("I2_4k", n // 4)))
    return out


GraphOrLabels = Union[CoxeterGraph, ComponentMultiset, Sequence[TypeLabel]]


def _as_multiset(x: GraphOrLabels) -> ComponentMultiset:
    if isinstance(x, ComponentMultiset):
        return x
    if isinstance(x, CoxeterGraph):
        return ComponentMultiset.from_graph(x)
    return ComponentMultiset.from_labels(x)


def coxeter_isomorphic(a: GraphOrLabels, b: GraphOrLabels) -> str:
    """Decide whether the two Coxeter groups are abstractly isomorphic.

    The finite parts are compared both through the cardinality list
    and through admissible-refinement equality; the two must agree.
    Infinite symbolic labels compare as multisets; unclassified
    infinite components compare by graph isomorphism and a mismatch
    yields UNKNOWN rather than NO.
    """
    ma, mb = _as_multiset(a), _as_multiset(b)
    cond2_list = condition_ii_cardinalities(ma.finite) == condition_ii_cardinalities(mb.finite)
    cond2_refine = admissible_refinement(ma).finite == admissible_refinement(mb).finite
    if cond2_list != cond2_refine:
        raise CoxeterError("condition-II implementations disagree; this is a bug")
    if not cond2_list:
        return NO
    if ma.infinite != mb.infinite:
        return NO
    unknown_a, unknown_b = list(ma.unknown_graphs), list(mb.unknown_graphs)
    if len(unknown_a) != len(unknown_b):
        # Infinite irreducible components are directly indecomposable,
        # so their count is an isomorphism invariant.
        return NO
    # Match unknown graphs up to graph isomorphism (greedy on iso classes).
    remaining = list(unknown_b)
    for ga in unknown_a:
        hit = next(
            (i for i, gb in enumerate(remaining)
             if len(ga) == len(gb) and graph_isomorphism(ga, gb) is not None),
            None,
        )
        if hit is None:
            return UNKNOWN
        remaining.pop(hit)
    return YES


# -- factorization of a concrete isomorphism ------------------------------------


@dataclass
class DirectDecomposition:
    """An internal direct product decomposition of an enumerated group,
    with the factorization of every element precomputed."""

    group: EnumeratedGroup
    factors: list[SubgroupHandle]
    projections: list[dict[int, int]]  # per factor: element id -> factor part

    @staticmethod
    def of(group: EnumeratedGroup, factors: Sequence[SubgroupHandle]) -> "DirectDecomposition":
        factors = list(factors)
        lists = [H.sorted_ids() for H in factors]
        total = math.prod(len(l) for l in lists)
        if total != len(group):
            raise ValueError("factor orders do not multiply to the group order")
        for H in factors:
            if not H.is_normal():
                raise ValueError("direct factor is not normal")
        projections: list[dict[int, int]] = [dict() for _ in factors]
        seen = set()
        for combo in itertools.product(*lists):
            w = group.mult_many(combo)
            if w in seen:
                raise ValueError("decomposition is not direct (duplicate product)")
            seen.add(w)
            for proj, part in zip(projections, combo):
                proj[w] = part
        return DirectDecomposition(group, factors, projections)

    def central_factor_ids(self) -> list[int]:
        """Factors with Z(G_l) = G_l; in a direct product these are
        exactly the abelian factors (and they lie in the center)."""
        return [i for i, H in enumerate(self.factors) if H.is_abelian()]


@dataclass
class FactoredIsomorphism:
    phi: dict[int, int]                  # non-central factor index bijection
    phi_central: dict[int, int]          # pairing of the central factors
    g_lambda: dict[int, dict[int, int]]  # per non-central factor: element map
    g_z: dict[int, int]                  # homomorphism into Z(G') (dense)


def factor_isomorphism(
    dec1: DirectDecomposition, dec2: DirectDecomposition, f: Sequence[int]
) -> FactoredIsomorphism:
    """Split a verified isomorphism f along two direct decompositions:
    a bijection phi of the non-central factors, isomorphisms
    g_l = proj_phi(l) . f restricted to each factor, and a central
    correction g_Z with f(w) = g_l(w) g_Z(w) on each factor."""
    G1, G2 = dec1.group, dec2.group
    if len(f) != len(G1) or len(set(f)) != len(G2):
        raise ValueError("f is not a bijection")
    for a in G1.element_ids():
        for b in G1.element_ids():
            if f[G1.mult(a, b)] != G2.mult(f[a], f[b]):
                raise ValueError("f is not an isomorphism")
    z2 = set(G2.center())
    central1 = set(dec1.central_factor_ids())
    central2 = set(dec2.central_factor_ids())
    noncentral1 = [i for i in range(len(dec1.factors)) if i not in central1]
    noncentral2 = [j for j in range(len(dec2.factors)) if j not in central2]

    phi: dict[int, int] = {}
    for i in noncentral1:
        Hi = dec1.factors[i]
        hits = []
        for j in noncentral2:
            zj = dec2.factors[j].center()
            image = {dec2.projections[j][f[x]] for x in Hi.ids}
            if not image <= zj:
                hits.append(j)
        if len(hits) != 1:
            raise CoxeterError(
                f"factor {i} projects non-centrally to {len(hits)} factors; "
                "the decomposition is not admissible"
            )
        phi[i] = hits[0]
    if sorted(phi.values()) != sorted(noncentral2):
        raise CoxeterError("phi is not a bijection of the non-central factors")

    g_lambda: dict[int, dict[int, int]] = {}
    for i, j in phi.items():
        Hi, Hj = dec1.factors[i], dec2.factors[j]
        gmap = {x: dec2.projections[j][f[x]] for x in Hi.ids}
        if set(gmap.values()) != Hj.ids or len(set(gmap.values())) != len(Hi.ids):
            raise CoxeterError(
                "g_lambda is not bijective onto its factor; "
                "the supplied decomposition is not admissible"
            )
        for x in Hi.ids:
            for y in Hi.ids:
                if gmap[G1.mult(x, y)] != G2.mult(gmap[x], gmap[y]):
                    raise CoxeterError("g_lambda is not a homomorphism")
        g_lambda[i] = gmap

    # Pair the central factors arbitrarily (they are isomorphic
    # elementary abelian blocks of equal cardinality per prime).
    if len(central1) != len(central2):
        raise CoxeterError("central factor counts differ")
    phi_central = dict(zip(sorted(central1), sorted(central2)))

    # g_Z on each factor, then extended multiplicatively.
    per_factor_gz: list[dict[int, int]] = []
    for i, Hi in enumerate(dec1.factors):
        vals: dict[int, int] = {}
        for x in Hi.ids:
            if i in central1:
                vals[x] = f[x]
            else:
                image = f[x]
                rest = G2.identity
                for j in range(len(dec2.factors)):
                    if j == phi[i]:
                        continue
                    rest = G2.mult(rest, dec2.projections[j][image])
                vals[x] = rest
            if vals[x] not in z2:
                raise CoxeterError("g_Z does not land in the center")
        per_factor_gz.append(vals)
    g_z: dict[int, int] = {}
    for w in G1.element_ids():
        acc = G2.identity
        for i in range(len(dec1.factors)):
            acc = G2.mult(acc, per_factor_gz[i][dec1.projections[i][w]])
        g_z[w] = acc
    for a in G1.element_ids():
        for b in G1.element_ids():
            if g_z[G1.mult(a, b)] != G2.mult(g_z[a], g_z[b]):
                raise CoxeterError("g_Z is not a homomorphism")
    # Reconstruction f(w) = g_lambda(w) g_Z(w) on the factors.
    for i, Hi in enumerate(dec1.factors):
        for x in Hi.ids:
            expected = g_z[x] if i in central1 else G2.mult(g_lambda[i][x], g_z[x])
            if f[x] != expected:
                raise CoxeterError("reconstruction f = g_lambda * g_Z failed")
    return FactoredIsomorphism(phi=phi, phi_central=phi_central,
                               g_lambda=g_lambda, g_z=g_z)


def admissible_factor_handles(G: EnumeratedGroup) -> list[SubgroupHandle]:
    """Concrete admissible direct factors of an enumerated group: each
    irreducible component stays whole when directly indecomposable and
    splits into center x complement otherwise (the complement is the
    kernel of a character that is -1 on the longest element: a
    non-sign character for the B/I2 families, the sign character for
    the E7/H3 ones)."""
    from .structure import homs_to_pm1, sgn_character
    from .deodhar import longest_perm

    factors: list[SubgroupHandle] = []
    for comp in components(G.graph):
        sub = G.graph.subgraph(comp)
        label = classify_irreducible(sub)
        part = G.parabolic(comp)
        from .structure import is_directly_indecomposable
        if is_directly_indecomposable(label):
            factors.append(part)
            continue
        w0 = G.element_from_perm(longest_perm(G.table, comp)[0])
        factors.append(G.subgroup(frozenset({0, w0}), verified=True))
        if label.family in ("B", "I2"):
            chosen = next(
                ch for ch in homs_to_pm1(sub)
                if ch.of_element(G, w0) == -1
                and any(s == 1 for s in ch.signs)
            )
        else:
            chosen = sgn_character(sub)
        factors.append(G.subgroup(
            frozenset(a for a in part.ids if chosen.of_element(G, a) == 1),
            verified=True,
        ))
    return factors


# -- automorphism accounting -----------------------------------------------------


@dataclass
class AutBudget:
    h1: int
    h2: int
    h3: int
    h4: int
    aut_order: int
    brute_order: Optional[int] = None

    def identity_holds(self) -> bool:
        return self.h1 * self.h2 * self.h3 % self.h4 == 0 and \
            self.aut_order == self.h1 * self.h2 * self.h3 // self.h4


def aut_decomposition(dec: DirectDecomposition, brute: bool = True,
                      cap: int = 1_200) -> AutBudget:
    """Order bookkeeping of Aut(G) = (H1 H2) x| H3 with H1 the
    invertible central homs, H2 the product of the factor automorphism
    groups, H3 the symmetries of isomorphic factors and H4 = H1 ^ H2."""
    G = dec.group
    central = set(dec.central_factor_ids())
    noncentral = [i for i in range(len(dec.factors)) if i not in central]
    h1 = len(invertible_homs(G))
    # One Cayley table per factor, shared by every search below; a
    # factor above the cap stays a handle, so that the search raises
    # before building its table.
    views = {i: dec.factors[i].as_view() if len(dec.factors[i]) <= cap else dec.factors[i]
             for i in noncentral}
    h2 = 1
    for i in noncentral:
        h2 *= len(find_isomorphism(views[i], views[i], all_maps=True, cap=cap))
    # Partition the non-central factors into isomorphism classes.
    classes: list[list[int]] = []
    for i in noncentral:
        placed = False
        for cls in classes:
            if find_isomorphism(views[cls[0]], views[i], cap=cap):
                cls.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])
    h3 = 1
    for cls in classes:
        h3 *= math.factorial(len(cls))
    h4 = len(homs_fixing_factors(G, dec.factors, central))
    if h1 * h2 * h3 % h4 != 0:
        raise CoxeterError("|H1||H2||H3| is not divisible by |H4|")
    aut_order = h1 * h2 * h3 // h4
    brute_order = None
    if brute:
        brute_order = len(find_isomorphism(G, G, all_maps=True, cap=cap))
        if brute_order != aut_order:
            raise CoxeterError(
                f"automorphism budget {aut_order} != brute-forced {brute_order}"
            )
    return AutBudget(h1=h1, h2=h2, h3=h3, h4=h4,
                     aut_order=aut_order, brute_order=brute_order)


def aut_order_symproduct(multiplicities: Sequence[int]) -> int:
    """|Aut| of a finite direct product of symmetric groups, where
    ``multiplicities[n-1]`` copies of Sym_n appear: the exact value

        2^(m2 (|m| - m1 - m2) + C(m2, 2) + m6)
          * prod_(i=1..m2) (2^i - 1) * prod_(n>=3) (n!)^(m_n) m_n!.
    """
    m = list(multiplicities)
    if any(x < 0 for x in m):
        raise ValueError("multiplicities must be nonnegative")
    total = sum(m)
    m1 = m[0] if len(m) >= 1 else 0
    m2 = m[1] if len(m) >= 2 else 0
    m6 = m[5] if len(m) >= 6 else 0
    exponent = m2 * (total - m1 - m2) + math.comb(m2, 2) + m6
    out = 1 << exponent
    for i in range(1, m2 + 1):
        out *= (1 << i) - 1
    for n, mn in enumerate(m, start=1):
        if n >= 3 and mn:
            out *= math.factorial(n) ** mn * math.factorial(mn)
    return out
