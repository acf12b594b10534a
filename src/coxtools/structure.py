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
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .classify import TypeLabel, build_named
from .deodhar import longest_element, sigma_is_identity, special_subgroup_via
from .engine import (
    EnumeratedGroup,
    SubgroupHandle,
    centralizer,
    core,
    normalizer,
    subgroup_closure,
)
from .errors import CoxeterError, VerificationError
from .graph import CoxeterGraph, all_subsets, components, graph_isomorphisms, is_connected

X_H_RANK_CAP = 20


# -- characters to {+-1} ------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """A homomorphism W -> {+-1}, stored as the sign of each generator
    (constant on connected components of the odd graph)."""

    graph: CoxeterGraph
    signs: tuple[int, ...]  # one per vertex, +1 or -1

    def sign(self, vertex: str) -> int:
        return self.signs[self.graph.index(vertex)]

    def of_element(self, G: EnumeratedGroup, a: int) -> int:
        out = 1
        for s in G.word(a):
            out *= self.sign(s)
        return out

    def is_trivial(self) -> bool:
        return all(x == 1 for x in self.signs)

    def kernel(self, G: EnumeratedGroup) -> SubgroupHandle:
        ids = frozenset(a for a in G.element_ids() if self.of_element(G, a) == 1)
        return G.subgroup(ids, verified=True)


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
    f, n = label.family, label.param
    if f == "A":
        return n == 1
    if f == "B":
        return True
    if f == "D":
        return n % 2 == 0
    if f == "E":
        return n in (7, 8)
    if f in ("F", "H"):
        return True
    if f == "I2":
        return n % 2 == 0
    return False  # infinite types


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
    """False exactly for B_{2k+1}, I2(4k+2) (k>=1), E7 and H3; all
    infinite irreducible types are indecomposable."""
    label = label.canonical()
    f, n = label.family, label.param
    if f == "B" and n >= 3 and n % 2 == 1:
        return False
    if f == "I2" and n >= 6 and n % 4 == 2:
        return False
    if (f, n) in (("E", 7), ("H", 3)):
        return False
    return True


# -- subgroup descriptions ----------------------------------------------------


@dataclass(frozen=True)
class SubgroupDescription:
    """Closed-form answer: Trivial / Center / Whole / tau(G_{B_n}) /
    tau(G_{D_n}) / an explicit handle."""

    kind: str  # 'trivial' | 'center' | 'whole' | 'special_B' | 'special_D' | 'explicit'
    tau: Optional[tuple[tuple[str, str], ...]] = None  # catalog vertex -> graph vertex
    explicit: Optional[SubgroupHandle] = field(default=None, compare=False)

    def resolve(self, G: EnumeratedGroup) -> SubgroupHandle:
        if self.kind == "trivial":
            return G.trivial_subgroup()
        if self.kind == "center":
            return G.subgroup(frozenset(G.center()), verified=True)
        if self.kind == "whole":
            return G.whole()
        if self.kind in ("special_B", "special_D"):
            return special_subgroup_via(G, dict(self.tau), self.kind[-1])
        if self.kind == "explicit":
            return self.explicit
        raise ValueError(f"unknown description kind {self.kind!r}")

    def case_name(self) -> str:
        return {
            "trivial": "trivial",
            "center": "Z(W)",
            "whole": "W",
            "special_B": "tau(G_B)",
            "special_D": "tau(G_D)",
            "explicit": "explicit",
        }[self.kind]


def _special_matches(g: CoxeterGraph, subset: set[str]) -> Optional[SubgroupDescription]:
    """Match (g, I) against the B- and D-special cases: g isomorphic to
    a catalog graph and I the tau-image of a prefix S(B_k), 1 <= k < n,
    or S(D_k), 2 <= k < n (n >= 3)."""
    n = len(g)
    if n < 2:
        return None
    for family, first in (("B", 1), ("D", 2)):
        if family == "D" and n < 3:
            continue
        catalog = build_named(TypeLabel(family, n))
        for tau in graph_isomorphisms(catalog, g, all_maps=True):
            for k in range(first, n):
                prefix = {tau[f"s{i}"] for i in range(1, k + 1)}
                if prefix == subset:
                    return SubgroupDescription(
                        kind=f"special_{family}", tau=tuple(sorted(tau.items()))
                    )
    return None


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
    if not is_connected(g):
        raise ValueError("graph must be connected")
    subset = set(subset)
    for v in subset:
        if v not in g:
            raise ValueError(f"unknown vertex {v!r}")
    if not subset or subset == set(g.vertices):
        answer = SubgroupDescription("whole")
    else:
        answer = _special_matches(g, subset) or SubgroupDescription("center")
    if verify:
        if G is None:
            G = EnumeratedGroup(g)
        brute = core(G, normalizer(G, G.parabolic(subset)))
        resolved = answer.resolve(G)
        if brute != resolved:
            raise VerificationError(
                f"core-of-normalizer mismatch on I={sorted(subset)}: "
                f"closed form {answer.case_name()} has order {len(resolved)}, "
                f"brute force order {len(brute)}"
            )
    return answer


# -- X_H and centralizers of normal closures -----------------------------------


def x_h(G: EnumeratedGroup, H: SubgroupHandle) -> list[tuple[tuple[str, ...], int]]:
    """All pairs (I, w0(I)) with w0(I) != 1 central in W_I and lying in
    H, over all subsets I of the generators."""
    if len(G.graph) > X_H_RANK_CAP:
        raise CoxeterError(f"rank exceeds the subset-enumeration cap {X_H_RANK_CAP}")
    out = []
    for subset in all_subsets(G.graph):
        if not subset:
            continue
        w0, sigma = longest_element(G, subset)
        if w0 != 0 and sigma_is_identity(sigma) and w0 in H.ids:
            out.append((subset, w0))
    return out


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
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if G is None:
        G = EnumeratedGroup(g)
    for x in involutions:
        if x == 0 or G.mult(x, x) != 0:
            raise ValueError(f"element {x} is not an involution")
    answer = _closure_centralizer_case(g, G, {int(x) for x in involutions})
    if verify:
        brute = centralizer(G, subgroup_closure(G, involutions, normal=True).ids)
        resolved = answer.resolve(G)
        if brute != resolved:
            raise VerificationError(
                f"centralizer mismatch: closed form {answer.case_name()} "
                f"order {len(resolved)}, brute force order {len(brute)}"
            )
    return answer


def _closure_centralizer_case(
    g: CoxeterGraph, G: EnumeratedGroup, xs: set[int]
) -> SubgroupDescription:
    if xs <= set(G.center()):
        return SubgroupDescription("whole")
    n = len(g)
    for family, min_rank in (("B", 2), ("D", 3)):
        if n < min_rank:
            continue
        catalog = build_named(TypeLabel(family, n))
        for tau in graph_isomorphisms(catalog, g, all_maps=True):
            if xs <= special_subgroup_via(G, tau, family).ids:
                return SubgroupDescription(
                    kind=f"special_{family}", tau=tuple(sorted(tau.items()))
                )
    return SubgroupDescription("center")


# -- Richardson form -----------------------------------------------------------


def richardson_form(G: EnumeratedGroup, w: int) -> tuple[int, tuple[str, ...]]:
    """For an involution w, a pair (u, I) with u w u^-1 = w0(I) and
    w0(I) central in W_I; subsets are searched smallest (then
    lexicographically) first."""
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
    for subset in all_subsets(G.graph):
        if not subset:
            continue
        w0, sigma = longest_element(G, subset)
        if not sigma_is_identity(sigma):
            continue
        if w0 in witness:
            u = witness[w0]
            if G.conj(u, w) != w0:
                raise CoxeterError("conjugating witness failed")
            return u, subset
    raise CoxeterError("no Richardson form found; this contradicts the theory")
