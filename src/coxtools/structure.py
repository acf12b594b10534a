"""Sign-type characters, the center-as-direct-factor decision, direct
indecomposability, closed-form cores of normalizers and centralizers
of involution-generated normal subgroups, and Richardson normal form
of involutions.

Each closed-form operation can be asked to re-derive its answer by
brute force (``verify=True``); a mismatch raises, it is never returned
as a result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .classify import TypeLabel, build_named, classify_components, degrees
from .deodhar import TOWERS, longest_element, sigma_is_identity, special_subgroup_via
from .engine import (
    EnumeratedGroup,
    SubgroupHandle,
    centralizer,
    core,
    normalizer,
    subgroup_closure,
)
from .errors import CoxeterError, VerificationError
from .graph import (CoxeterGraph, all_subsets, components, graph_isomorphisms, is_connected,
                    vertex_subset)
from .hommonoid import f2_apply, hom_space

X_H_RANK_CAP = 20


# -- characters to {+-1} ------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """A homomorphism W -> {+-1}, stored as the sign of each generator
    (constant on connected components of the odd graph).  On a group it
    is (-1)^(u.pi), u the components where it is -1 and pi the
    component parities of ``hommonoid.hom_space``."""

    graph: CoxeterGraph
    signs: tuple[int, ...]  # one per vertex, +1 or -1

    def sign(self, vertex: str) -> int:
        return self.signs[self.graph.index(vertex)]

    def of_element(self, G: EnumeratedGroup, a: int) -> int:
        return 1 if self.kernel_mask(G)[a] else -1

    def kernel_mask(self, G: EnumeratedGroup) -> np.ndarray:
        """Per element id of G, whether u.pi is 0 there, u the odd-graph
        components of G's graph where the character is -1 (vertices
        outside its own graph count as +1)."""
        space = hom_space(G)
        u = [comp[0] in self.graph and self.sign(comp[0]) == -1 for comp in space.components]
        return f2_apply(u, space.pi) == 0

    def kernel(self, G: EnumeratedGroup) -> SubgroupHandle:
        return G.subgroup(np.flatnonzero(self.kernel_mask(G)).tolist(), verified=True)


def homs_to_pm1(g: CoxeterGraph) -> list[Character]:
    """All 2^k characters, k the number of odd-graph components; the
    trivial one first and the sign character (all -1) last."""
    comps = components(g, odd_only=True)
    out = []
    for choice in itertools.product((1, -1), repeat=len(comps)):
        signs = [0] * len(g.vertices)
        for value, comp in zip(choice, comps):
            for v in comp:
                signs[g.index(v)] = value
        out.append(Character(g, tuple(signs)))
    return out


def sgn_character(g: CoxeterGraph) -> Character:
    return Character(g, (-1,) * len(g.vertices))


# -- center as a direct factor -------------------------------------------------


@dataclass(frozen=True)
class CenterFactorDecision:
    label: TypeLabel
    center_trivial: bool
    proper_factor: bool
    complement: Optional[TypeLabel] = None   # catalog complement, if Coxeter
    complement_is_even_subgroup: bool = False

    def __str__(self) -> str:
        if self.center_trivial:
            return f"{self.label}: center trivial"
        if not self.proper_factor:
            return f"{self.label}: No (center is not a direct factor)"
        what = "W+" if self.complement_is_even_subgroup else str(self.complement)
        return f"{self.label}: Yes, complement {what}"


def has_nontrivial_center(label: TypeLabel) -> bool:
    """Whether W(T) has a nontrivial center, {1, w0} for an irreducible
    type: exactly when every degree is even.  False for infinite types."""
    return label.is_finite() and all(d % 2 == 0 for d in degrees(label))


def center_direct_factor(label: TypeLabel) -> CenterFactorDecision:
    label = label.canonical()
    if not has_nontrivial_center(label):
        return CenterFactorDecision(label, center_trivial=True, proper_factor=False)
    f, n = label.family, label.param
    if f == "B" and n % 2 == 1 and n >= 3:
        comp = TypeLabel("D", n).canonical()   # D3 -> A3
        return CenterFactorDecision(label, False, True, complement=comp)
    if f == "I2" and n % 4 == 2 and n >= 6:
        comp = TypeLabel("I2", n // 2).canonical()  # I2(3) -> A2
        return CenterFactorDecision(label, False, True, complement=comp)
    if (f, n) in (("E", 7), ("H", 3)):
        return CenterFactorDecision(label, False, True, complement_is_even_subgroup=True)
    return CenterFactorDecision(label, center_trivial=False, proper_factor=False)


def is_directly_indecomposable(label: TypeLabel) -> bool:
    """False exactly when the center is a proper direct factor: B_{2k+1},
    I2(4k+2) (k>=1), E7 and H3; all infinite irreducible types are
    indecomposable."""
    return not center_direct_factor(label).proper_factor


# -- the case analysis ----------------------------------------------------------

# The four subgroups the closed forms produce: kind -> (case name, the
# paper's case numeral or None).  Cores of normalizers: a B-prefix is
# case (i), a D-prefix case (ii), any other proper subset case (iii).
CASES = {
    "whole": ("W", None),
    "special_B": ("tau(G_B)", "i"),
    "special_D": ("tau(G_D)", "ii"),
    "center": ("Z(W)", "iii"),
}


@dataclass(frozen=True)
class SubgroupDescription:
    """Closed-form answer, one of the kinds in ``CASES``: the whole
    group, its center, or tau(G_{B_n}) / tau(G_{D_n}) for the catalog
    isomorphism ``tau`` (see ``deodhar.TOWERS``)."""

    kind: str  # a key of CASES
    tau: Optional[tuple[tuple[str, str], ...]] = None  # catalog vertex -> graph vertex

    def resolve(self, G: EnumeratedGroup) -> SubgroupHandle:
        if self.kind == "center":
            return G.subgroup(frozenset(G.center()), verified=True)
        if self.kind == "whole":
            return G.whole()
        if self.kind in ("special_B", "special_D"):
            return special_subgroup_via(G, dict(self.tau), self.kind[-1])
        raise ValueError(f"unknown description kind {self.kind!r}")

    def case_name(self) -> str:
        return CASES[self.kind][0]


def _tower_cases(g: CoxeterGraph) -> Iterator[tuple[SubgroupDescription, list[set[str]]]]:
    """The B- and D-special cases of the connected graph g of rank n:
    tau(G_{B_n}) (n >= 2) or tau(G_{D_n}) (n >= 3) for every isomorphism
    tau from the catalog graph onto g, each with the tau-images of the
    proper tower prefixes, S(B_k) for 1 <= k < n or S(D_k) for
    2 <= k < n.  Only the family whose canonical label is g's type is
    searched, so D_3 matches A3 and B_2 matches I2(4)."""
    n = len(g)
    for family, first in TOWERS.items():
        if n <= first or classify_components(g) != [TypeLabel(family, n).canonical()]:
            continue
        for tau in graph_isomorphisms(build_named(TypeLabel(family, n)), g, all_maps=True):
            image = [tau[f"s{i}"] for i in range(1, n + 1)]
            yield (SubgroupDescription(f"special_{family}", tuple(sorted(tau.items()))),
                   [set(image[:k]) for k in range(first, n)])


def _check(what: str, answer: SubgroupDescription, G: EnumeratedGroup,
           brute: SubgroupHandle) -> None:
    """The ``verify`` step: the closed form must resolve to ``brute``."""
    resolved = answer.resolve(G)
    if brute != resolved:
        raise VerificationError(
            f"{what}: closed form {answer.case_name()} has order {len(resolved)}, "
            f"brute force order {len(brute)}"
        )


def _check_graph(g: CoxeterGraph, G: Optional[EnumeratedGroup]) -> None:
    """The closed forms need a connected graph, and the group they are
    resolved in, if given, must be built from it."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if G is not None and G.graph != g:
        raise ValueError("the group G is not built from the graph g")


def core_of_normalizer(
    g: CoxeterGraph,
    subset: Iterable[str],
    verify: bool = False,
    G: Optional[EnumeratedGroup] = None,
) -> SubgroupDescription:
    """Core of the normalizer of the standard parabolic on ``subset``
    in an irreducible W: a B-prefix gives tau(G_{B_n}), a D-prefix
    tau(G_{D_n}), anything else the center; the empty and full subsets
    give the whole group."""
    _check_graph(g, G)
    subset = set(vertex_subset(g, subset))
    if not subset or subset == set(g.vertices):
        answer = SubgroupDescription("whole")
    else:
        answer = next((d for d, prefixes in _tower_cases(g) if subset in prefixes),
                      SubgroupDescription("center"))
    if verify:
        if G is None:
            G = EnumeratedGroup(g)
        _check(f"core-of-normalizer mismatch on I={sorted(subset)}", answer, G,
               core(G, normalizer(G, G.parabolic(subset))))
    return answer


# -- X_H and centralizers of normal closures -----------------------------------


def _central_longest(G: EnumeratedGroup) -> Iterator[tuple[tuple[str, ...], int]]:
    """(I, w0(I)) for every nonempty I with w0(I) central in W_I
    (sigma_I = id), in ``all_subsets`` order."""
    for subset in all_subsets(G.graph):
        if subset:
            w0, sigma = longest_element(G, subset)
            if sigma_is_identity(sigma):
                yield subset, w0


def x_h(G: EnumeratedGroup, H: SubgroupHandle) -> list[tuple[tuple[str, ...], int]]:
    """All pairs (I, w0(I)) with w0(I) != 1 central in W_I and lying in
    H, over all subsets I of the generators."""
    if len(G.graph) > X_H_RANK_CAP:
        raise CoxeterError(f"rank exceeds the subset-enumeration cap {X_H_RANK_CAP}")
    return [(subset, w0) for subset, w0 in _central_longest(G) if w0 in H.ids]


def centralizer_of_normal_closure(
    g: CoxeterGraph,
    involutions: Sequence[int],
    verify: bool = False,
    G: Optional[EnumeratedGroup] = None,
) -> SubgroupDescription:
    """Centralizer of the smallest normal subgroup N containing the
    given involutions, by the closed form: N inside the center -> whole
    group; N inside some tau(G_{B_n}) / tau(G_{D_n}) -> that subgroup;
    anything else -> the center.

    This is the paper's key ingredient: "we can determine, for an
    irreducible Coxeter group W, the centralizers in W of the normal
    subgroups of W that are generated by involutions".  Z(W),
    tau(G_{B_n}) and tau(G_{D_n}) are normal in W, and a normal
    subgroup contains N exactly when it contains the involutions, so
    the cases are decided by membership and N is built only to verify.
    """
    _check_graph(g, G)
    if G is None:
        G = EnumeratedGroup(g)
    G.check_ids(involutions)
    for x in involutions:
        if x == 0 or G.mult(x, x) != 0:
            raise ValueError(f"element {x} is not an involution")
    xs = {int(x) for x in involutions}
    if xs <= set(G.center()):
        answer = SubgroupDescription("whole")
    else:
        answer = next((d for d, _ in _tower_cases(g) if xs <= d.resolve(G).ids),
                      SubgroupDescription("center"))
    if verify:
        _check("centralizer mismatch", answer, G,
               centralizer(G, subgroup_closure(G, involutions, normal=True).ids))
    return answer


# -- Richardson form -----------------------------------------------------------


def richardson_form(G: EnumeratedGroup, w: int) -> tuple[int, tuple[str, ...]]:
    """For an involution w, a pair (u, I) with u w u^-1 = w0(I) and
    w0(I) central in W_I; subsets are searched smallest (then
    lexicographically) first."""
    G.check_ids([w])
    if w == 0 or G.mult(w, w) != 0:
        raise ValueError("element is not an involution")
    # Conjugation orbit of w with witnesses: witness[x] = u with
    # u w u^-1 = x, by a FIFO queue over the generator tables: s x s is
    # gen_conj[x], s u is left[u].  A level-batched BFS was slower: an
    # orbit in I2(m) has about m/4 levels of two elements, and each
    # level costs tens of microseconds of array overhead.
    witness = {w: G.identity}
    queue = [w]
    for x in queue:
        for y, su in zip(G.gen_conj[x].tolist(), G.left[witness[x]].tolist()):
            if y not in witness:
                witness[y] = su
                queue.append(y)
    for subset, w0 in _central_longest(G):
        if w0 in witness:
            u = witness[w0]
            if G.conj(u, w) != w0:
                raise CoxeterError("conjugating witness failed")
            return u, subset
    raise CoxeterError("no Richardson form found; this contradicts the theory")
