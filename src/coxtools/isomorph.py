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

import numpy as np

from .classify import TypeLabel, classify_components
from .deodhar import longest_element
from .engine import (EnumeratedGroup, SubgroupHandle, automorphism_count,
                     check_search_limits, find_isomorphism, respects_generators)
from .errors import CoxeterError
from .graph import CoxeterGraph, components, graph_isomorphism
from .hommonoid import count_fixing, count_invertible, f2_apply, hom_space
from .structure import center_direct_factor

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
        """From the labels ``classify_components`` caches on the graph;
        only unclassified components are cut out as subgraphs."""
        out = ComponentMultiset()
        for comp, label in zip(components(g), classify_components(g)):
            if label.is_finite():
                out.finite[label] += 1
            else:
                out.unknown_graphs.append(g.subgraph(comp))
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
        decision = center_direct_factor(label)
        if not decision.proper_factor:
            out.finite[label] += count
            continue
        out.finite[a1] += count
        if decision.complement_is_even_subgroup:
            out.finite[TypeLabel(f"{label.family}{label.param}plus")] += count
        else:
            out.finite[decision.complement] += count
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


GraphOrLabels = Union[CoxeterGraph, Sequence[TypeLabel]]


def _as_multiset(x: GraphOrLabels) -> ComponentMultiset:
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
    with the factorization of every element precomputed: row i of
    ``projections`` is the factor-i part of every element id."""

    group: EnumeratedGroup
    factors: list[SubgroupHandle]
    projections: np.ndarray  # (k, N) intp: projections[i, w] = factor-i part of w

    @staticmethod
    def of(group: EnumeratedGroup, factors: Sequence[SubgroupHandle]) -> "DirectDecomposition":
        factors = list(factors)
        lists = [np.array(H.sorted_ids(), dtype=np.intp) for H in factors]
        if math.prod(len(l) for l in lists) != len(group):
            raise ValueError("factor orders do not multiply to the group order")
        for H in factors:
            if not H.is_normal():
                raise ValueError("direct factor is not normal")
        # Every product x1 x2 ... xk over the grid, in row-major order:
        # the decomposition is direct iff each element occurs once.
        grid = np.ix_(*lists)
        products = group.mult_ids(*grid).ravel()
        if np.bincount(products, minlength=len(group)).max() > 1:
            raise ValueError("decomposition is not direct (duplicate product)")
        projections = np.empty((len(factors), len(group)), dtype=np.intp)
        for row, parts in zip(projections, np.broadcast_arrays(*grid)):
            row[products] = parts.ravel()
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
    correction g_Z with f(w) = g_l(w) g_Z(w) on each factor.  Each
    homomorphism check tests the (element, generator) cells only."""
    G1, G2 = dec1.group, dec2.group
    f = np.asarray(f, dtype=np.intp)
    if len(f) != len(G1) or not np.array_equal(np.sort(f), np.arange(len(G2))):
        raise ValueError("f is not a bijection")
    if not respects_generators(G1, G2, f, G1.element_ids(), G1.generators):
        raise ValueError("f is not an isomorphism")
    z2 = G2.subgroup(G2.center(), verified=True).mask()
    central1 = set(dec1.central_factor_ids())
    central2 = set(dec2.central_factor_ids())
    noncentral1 = [i for i in range(len(dec1.factors)) if i not in central1]
    noncentral2 = [j for j in range(len(dec2.factors)) if j not in central2]
    ids1 = [np.array(H.sorted_ids(), dtype=np.intp) for H in dec1.factors]
    proj2 = dec2.projections

    centers2 = {j: G2.subgroup(dec2.factors[j].center(), verified=True).mask()
                for j in noncentral2}
    phi: dict[int, int] = {}
    for i in noncentral1:
        image = f[ids1[i]]
        hits = [j for j in noncentral2 if not centers2[j][proj2[j, image]].all()]
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
        gmap = proj2[j, f]
        vals = gmap[ids1[i]]
        if not np.array_equal(np.sort(vals), Hj.sorted_ids()):
            raise CoxeterError(
                "g_lambda is not bijective onto its factor; "
                "the supplied decomposition is not admissible"
            )
        if not respects_generators(G1, G2, gmap, ids1[i], Hi.generating_set()):
            raise CoxeterError("g_lambda is not a homomorphism")
        g_lambda[i] = dict(zip(ids1[i].tolist(), vals.tolist()))

    # Pair the central factors arbitrarily (they are isomorphic
    # elementary abelian blocks of equal cardinality per prime).
    if len(central1) != len(central2):
        raise CoxeterError("central factor counts differ")
    phi_central = dict(zip(sorted(central1), sorted(central2)))

    # g_Z on each factor: f itself on a central factor, else the
    # product of the other factor parts of f(x); extended
    # multiplicatively over the projections.
    per_factor_gz = np.zeros((len(dec1.factors), len(G1)), dtype=np.intp)
    for i, ids in enumerate(ids1):
        image = f[ids]
        if i in central1:
            vals = image
        else:
            rest = [proj2[j, image] for j in range(len(dec2.factors)) if j != phi[i]]
            vals = G2.mult_ids(np.full_like(image, G2.identity), *rest)
        if not z2[vals].all():
            raise CoxeterError("g_Z does not land in the center")
        per_factor_gz[i, ids] = vals
    g_z = G2.mult_ids(*np.take_along_axis(per_factor_gz, dec1.projections, axis=1))
    if not respects_generators(G1, G2, g_z, G1.element_ids(), G1.generators):
        raise CoxeterError("g_Z is not a homomorphism")
    # Reconstruction f(w) = g_lambda(w) g_Z(w) on the factors.
    for i, ids in enumerate(ids1):
        expected = g_z[ids] if i in central1 else G2.mult_ids(proj2[phi[i], f[ids]], g_z[ids])
        if not np.array_equal(f[ids], expected):
            raise CoxeterError("reconstruction f = g_lambda * g_Z failed")
    return FactoredIsomorphism(phi=phi, phi_central=phi_central,
                               g_lambda=g_lambda, g_z=dict(enumerate(g_z.tolist())))


def admissible_factor_handles(G: EnumeratedGroup) -> list[SubgroupHandle]:
    """Concrete admissible direct factors of an enumerated group: each
    irreducible component stays whole when directly indecomposable and
    splits into center x complement otherwise (the complement is the
    kernel of a character that is -1 on the longest element: the sign
    character when the complement is the even subgroup, E7 and H3, a
    non-sign one otherwise)."""
    factors: list[SubgroupHandle] = []
    for comp, label in zip(components(G.graph), classify_components(G.graph)):
        decision = center_direct_factor(label)
        part = G.parabolic(comp)
        if not decision.proper_factor:
            factors.append(part)
            continue
        w0 = longest_element(G, comp)[0]
        factors.append(G.subgroup(frozenset({0, w0}), verified=True))
        # The first character of W_comp that is -1 on w0, as a mask u over
        # its odd components in itertools.product order.  The sign
        # character, every component, comes last: it is taken only where
        # no other is -1 on w0, E7 and H3.
        space = hom_space(G)
        u = next(u for u in itertools.product(*[(0, 1) if c[0] in comp else (0,)
                                                for c in space.components])
                 if f2_apply(u, int(space.pi[w0])))
        factors.append(G.subgroup(
            np.flatnonzero(part.mask() & (f2_apply(u, space.pi) == 0)).tolist(), verified=True))
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


def aut_decomposition(dec: DirectDecomposition, brute: bool = True) -> AutBudget:
    """Order bookkeeping of Aut(G) = (H1 H2) x| H3 with H1 the
    invertible central homs, H2 the product of the factor automorphism
    groups, H3 the symmetries of isomorphic factors and H4 = H1 ^ H2.
    |H2| and, with ``brute``, the order of the whole group are counted
    by ``automorphism_count``: orbit-stabilizer along the isomorphism
    search's stabilizer chain.  |H1| and |H4| are closed counts over F2
    (``hommonoid``), so no map is enumerated.  The limit of every
    search is checked before anything is computed."""
    G = dec.group
    central = set(dec.central_factor_ids())
    noncentral = [i for i in range(len(dec.factors)) if i not in central]
    for H in [dec.factors[i] for i in noncentral] + ([G] if brute else []):
        check_search_limits(len(H))
    h1 = count_invertible(G)
    # One Cayley table per factor, shared by every search below.
    views = {i: dec.factors[i].as_view() for i in noncentral}
    h2 = math.prod(automorphism_count(views[i]) for i in noncentral)
    # Partition the non-central factors into isomorphism classes.
    classes: list[list[int]] = []
    for i in noncentral:
        for cls in classes:
            if find_isomorphism(views[cls[0]], views[i]):
                cls.append(i)
                break
        else:
            classes.append([i])
    h3 = math.prod(math.factorial(len(cls)) for cls in classes)
    h4 = count_fixing(G, dec.factors, central)
    if h1 * h2 * h3 % h4 != 0:
        raise CoxeterError("|H1||H2||H3| is not divisible by |H4|")
    aut_order = h1 * h2 * h3 // h4
    brute_order = None
    if brute:
        brute_order = automorphism_count(G)
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
