"""The center-as-direct-factor decision, direct indecomposability,
the normal subgroups G_{B_n} and G_{D_n} of the B- and D-towers,
closed-form cores of normalizers and centralizers of
involution-generated normal subgroups, and Richardson normal form of
involutions.

Each closed-form operation can be asked to re-derive its answer by
brute force (``verify=True``); a mismatch raises, it is never returned
as a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .classify import TypeLabel, build_named, classify_components, degrees
from .deodhar import longest_element, sigma_is_identity
from .engine import (
    EnumeratedGroup,
    SubgroupHandle,
    centralizer,
    core,
    normalizer,
    subgroup_closure,
)
from .errors import CoxeterError, VerificationError
from .graph import CoxeterGraph, all_subsets, graph_isomorphisms, is_connected, vertex_subset

X_H_RANK_CAP = 20


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

# The catalog rank at which each tower starts: G_{B_n} is generated by
# w0(S(B_i)) for 1 <= i <= n, G_{D_n} by w0(S(D_i)) for 2 <= i <= n.
TOWERS = {"B": 1, "D": 2}


@dataclass(frozen=True)
class SubgroupDescription:
    """Closed-form answer, one of the kinds in ``CASES``: the whole
    group, its center, or tau(G_{B_n}) / tau(G_{D_n}) for a catalog
    isomorphism tau, held as its tower prefixes (see ``_tower``)."""

    kind: str  # a key of CASES
    prefixes: tuple[tuple[str, ...], ...] = ()  # tower order, the whole graph last

    def basis(self, G: EnumeratedGroup) -> list[int]:
        """The w0 of the prefixes: a basis of tau(G) over F_2."""
        return [longest_element(G, p)[0] for p in self.prefixes]

    def resolve(self, G: EnumeratedGroup) -> SubgroupHandle:
        if self.kind == "center":
            return G.subgroup(frozenset(G.center()), verified=True)
        if self.kind == "whole":
            return G.whole()
        if self.kind in ("special_B", "special_D"):
            return subgroup_closure(G, self.basis(G))
        raise ValueError(f"unknown description kind {self.kind!r}")


def _tower(family: str, names: Sequence[str]) -> SubgroupDescription:
    """tau(G_{family_n}) for names = tau(s1), ..., tau(sn): its prefixes
    are the tau-images of S(family_k), k from the tower's start in
    ``TOWERS`` up to n."""
    return SubgroupDescription(f"special_{family}", tuple(
        tuple(names[:k]) for k in range(TOWERS[family], len(names) + 1)))


def special_subgroup(G: EnumeratedGroup, family: str, n: int) -> SubgroupHandle:
    """G_{B_n} or G_{D_n} (see ``TOWERS``) of the catalog-named
    W(B_n) or W(D_n): ``_tower`` with the identity tau.

    Both are elementary abelian 2-groups, normal in the ambient group,
    with the listed longest elements as a basis; this is asserted.
    """
    if family not in TOWERS:
        raise ValueError("family must be 'B' or 'D'")
    if G.graph != build_named(TypeLabel(family, n)):
        raise ValueError(f"group is not the catalog-named W({family}{n})")
    rank = n + 1 - TOWERS[family]
    H = _tower(family, G.graph.vertices).resolve(G)
    if len(H) != 1 << rank:
        raise CoxeterError(f"G_{{{family}_{n}}} is not elementary abelian of rank {rank}")
    if not H.is_normal() or not H.is_abelian():
        raise CoxeterError(f"G_{{{family}_{n}}} failed normality/commutativity checks")
    return H


def _tower_cases(g: CoxeterGraph) -> Iterator[SubgroupDescription]:
    """The B- and D-special cases of the connected graph g of rank n:
    tau(G_{B_n}) (n >= 2) or tau(G_{D_n}) (n >= 3) for every isomorphism
    tau from the catalog graph onto g.  Only the family whose canonical
    label is g's type is searched, so D_3 matches A3 and B_2 matches
    I2(4)."""
    n = len(g)
    for family, first in TOWERS.items():
        if n > first and classify_components(g) == [TypeLabel(family, n).canonical()]:
            for tau in graph_isomorphisms(build_named(TypeLabel(family, n)), g, all_maps=True):
                yield _tower(family, [tau[f"s{i}"] for i in range(1, n + 1)])


def _check(what: str, answer: SubgroupDescription, G: EnumeratedGroup,
           brute: SubgroupHandle) -> None:
    """The ``verify`` step: the closed form must resolve to ``brute``."""
    resolved = answer.resolve(G)
    if brute != resolved:
        raise VerificationError(
            f"{what}: closed form {CASES[answer.kind][0]} has order {len(resolved)}, "
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
        answer = next((d for d in _tower_cases(g) if subset in map(set, d.prefixes)),
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
    subgroup contains N exactly when it contains the involutions; N is
    built only to verify.  They are central when they commute with every
    s_k, and lie in tau(G) when they commute with its basis, the w0 of
    the tau-images of its tower prefixes, the whole graph last, as
    tau(G) is abelian and its own centralizer in W (a signed permutation
    commuting with every sign change, or with every even one for n >= 3,
    is one).
    """
    _check_graph(g, G)
    if G is None:
        G = EnumeratedGroup(g)
    G.check_ids(involutions)
    xs = np.fromiter(involutions, dtype=np.intp)
    if not (ok := G.is_involution(xs)).all():
        raise _not_an_involution(G, int(xs[ok.argmin()]))
    if G.commute(xs[:, None], G.generators).all():
        answer = SubgroupDescription("whole")
    else:
        answer = next((d for d in _tower_cases(g) if G.commute(xs[:, None], d.basis(G)).all()),
                      SubgroupDescription("center"))
    if verify:
        _check("centralizer mismatch", answer, G,
               centralizer(G, subgroup_closure(G, involutions, normal=True).ids))
    return answer


# -- Richardson form -----------------------------------------------------------


def _not_an_involution(G: EnumeratedGroup, x: int) -> ValueError:
    return ValueError(f"element {x} ({' '.join(G.word(x)) or 'the identity'}) "
                      "is not an involution")


def richardson_form(G: EnumeratedGroup, w: int) -> tuple[int, tuple[str, ...]]:
    """For an involution w, a pair (u, I) with u w u^-1 = w0(I) and
    w0(I) central in W_I; subsets are searched smallest (then
    lexicographically) first."""
    G.check_ids([w])
    if not G.is_involution(w):
        raise _not_an_involution(G, w)
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
            if not (G.heads_of(u, w) == G.heads_of(w0, u)).all():
                raise CoxeterError("conjugating witness failed")
            return u, subset
    raise CoxeterError("no Richardson form found; this contradicts the theory")
