"""Acceptance suites: every closed-form theorem the package implements
is cross-checked here against the brute-force engine at desk scale.

Each suite returns a SuiteResult; the CLI ``verify`` command and the
test module tests/test_acceptance.py both run them.  Failures carry
the first offending instance in the detail string.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .classify import TypeLabel, build_named, group_order
from .deodhar import deodhar_decompose, longest_element, sigma_is_identity
from .engine import (
    EnumeratedGroup,
    SubgroupHandle,
    automorphism_count,
    centralizer,
    core,
    enumerate_group,
    find_isomorphism,
    normalizer,
    subgroup_closure,
)
from .errors import VerificationError
from .graph import CoxeterGraph, all_subsets, components, distance, perp
from .hommonoid import (CentralHom, _invert, _invertible, _star, _values, f2_apply, hom_matrices,
                        hom_space)
from .isomorph import (
    NO,
    YES,
    ComponentMultiset,
    DirectDecomposition,
    admissible_factor_handles,
    admissible_refinement,
    aut_decomposition,
    aut_order_symproduct,
    condition_ii_cardinalities,
    coxeter_isomorphic,
    factor_isomorphism,
)
from .structure import (
    centralizer_of_normal_closure,
    center_direct_factor,
    core_of_normalizer,
    richardson_form,
    special_subgroup,
    x_h,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    checks: int = 0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail} ({self.checks} checks, {self.seconds:.1f}s)"


class _Failure(Exception):
    pass


def _suite(name: str):
    def wrap(fn: Callable[["_Context"], str]):
        def run(seed: int = 0) -> SuiteResult:
            ctx = _Context(seed=seed)
            t0 = time.time()
            try:
                detail = fn(ctx)
                return SuiteResult(name, True, detail, time.time() - t0, ctx.checks)
            except (_Failure, VerificationError) as exc:
                return SuiteResult(name, False, str(exc), time.time() - t0, ctx.checks)
        run.suite_name = name
        return run
    return wrap


class _Context:
    """Shared per-run cache of enumerated groups plus a check counter."""

    def __init__(self, seed: int = 0):
        self.groups: dict[TypeLabel, EnumeratedGroup] = {}
        self.checks = 0
        self.rng = random.Random(seed)

    def group(self, label: TypeLabel, cap: int = 20_000) -> EnumeratedGroup:
        if label not in self.groups:
            self.groups[label] = enumerate_group(build_named(label), cap=cap)
        return self.groups[label]

    def expect(self, cond: bool, message: str):
        self.checks += 1
        if not cond:
            raise _Failure(message)

    def expect_all(self, conds: np.ndarray, message: str):
        """One check per entry of ``conds``, in order: fails as
        ``expect`` would at the first false entry."""
        bad = np.flatnonzero(~np.asarray(conds, dtype=bool).ravel())
        self.checks += int(bad[0]) + 1 if len(bad) else np.size(conds)
        if len(bad):
            raise _Failure(message)


def _irreducible_types(max_order: int) -> list[TypeLabel]:
    out = []
    for label in [TypeLabel("A", n) for n in range(1, 9)] + \
                 [TypeLabel("B", n) for n in range(2, 9)] + \
                 [TypeLabel("D", n) for n in range(4, 9)] + \
                 [TypeLabel("E", n) for n in (6, 7, 8)] + \
                 [TypeLabel("F", 4), TypeLabel("H", 3), TypeLabel("H", 4)]:
        if group_order(label) <= max_order:
            out.append(label)
    m = 5
    while 2 * m <= max_order:
        out.append(TypeLabel("I2", m))
        m += 1
    return out


def _multiset_graph(labels: Sequence[TypeLabel]) -> CoxeterGraph:
    parts = []
    for i, t in enumerate(labels):
        g = build_named(t)
        parts.append(g.relabel({v: f"c{i}_{v}" for v in g.vertices}))
    return CoxeterGraph.disjoint_union(*parts)


# -- criterion 1: order oracle ---------------------------------------------------

ORDER_SUITE_TYPES = (
    [TypeLabel("A", n) for n in range(1, 7)]
    + [TypeLabel("B", n) for n in range(2, 6)]
    + [TypeLabel("D", n) for n in (4, 5)]
    + [TypeLabel("F", 4), TypeLabel("H", 3), TypeLabel("H", 4)]
    + [TypeLabel("I2", m) for m in range(3, 15)]
)


@_suite("orders")
def suite_orders(ctx: _Context) -> str:
    for label in ORDER_SUITE_TYPES:
        G = ctx.group(label)
        want = group_order(label.canonical())
        ctx.expect(
            len(G) == want,
            f"|W({label})| enumerated as {len(G)}, closed form {want}",
        )
    return f"{len(ORDER_SUITE_TYPES)} catalog orders match enumeration"


# -- criterion 2: Deodhar decompositions ------------------------------------------


@_suite("deodhar")
def suite_deodhar(ctx: _Context) -> str:
    for label in ORDER_SUITE_TYPES:
        G = ctx.group(label)
        S = list(G.graph.vertices)
        dec = deodhar_decompose(G, S)
        w0, _ = longest_element(G, S)
        ctx.expect(G.mult_many(dec.reflections) == w0,
                   f"{label}: reflection product is not w0")
        for r in dec.reflections:
            ctx.expect(G.mult(r, r) == 0, f"{label}: non-involutive reflection")
        for a, b in itertools.combinations(dec.reflections, 2):
            ctx.expect(G.mult(a, b) == G.mult(b, a),
                       f"{label}: reflections do not commute")
        for i, j in itertools.combinations(range(len(dec.root_ids)), 2):
            inner = G.table.inner(dec.root_ids[i], dec.root_ids[j])
            ctx.expect(abs(inner) < 1e-9,
                       f"{label}: roots {i},{j} have inner product {inner}")
        ctx.expect(
            (len(dec.reflections) - G.length(w0)) % 2 == 0,
            f"{label}: decomposition parity differs from l(w0)",
        )
        alt = deodhar_decompose(G, S, tie_break="alt")
        ctx.expect(
            len(alt.reflections) % 2 == len(dec.reflections) % 2,
            f"{label}: parity changed under the alternate tie-break",
        )
    # H3 generator sequence: {s1,s3}, {s1}, empty.
    H3 = ctx.group(TypeLabel("H", 3))
    seq = deodhar_decompose(H3, ["s1", "s2", "s3"]).generator_sequence
    ctx.expect(seq == [("s1", "s3"), ("s1",), ()],
               f"H3 generator sequence is {seq}")
    # B_n chain: roots are the catalog highest roots of nested prefixes,
    # finishing with the simple root of s1.
    for n in range(2, 6):
        B = ctx.group(TypeLabel("B", n))
        dec = deodhar_decompose(B, B.graph.vertices)
        ctx.expect(len(dec.root_ids) == n, f"B{n} chain has {len(dec.root_ids)} terms")
        sqrt2 = 2.0 ** 0.5
        for step, rid in enumerate(dec.root_ids):
            i = n - step
            if i == 1:
                want = np.eye(n)[0]
            else:
                want = np.array([1.0] + [sqrt2] * (i - 1) + [0.0] * (n - i))
            got = B.table.coefficients(rid)
            ctx.expect(bool(np.allclose(got, want, atol=1e-9)),
                       f"B{n} chain step {step} picked root {got}")
        ctx.expect(
            dec.generator_sequence == [tuple(f"s{j}" for j in range(1, i + 1))
                                       for i in range(n - 1, 0, -1)] + [()],
            f"B{n} generator sequence is {dec.generator_sequence}",
        )
    return f"decompositions verified on {len(ORDER_SUITE_TYPES)} types"


# -- criterion 3: core-of-normalizer oracle ---------------------------------------


@_suite("core-oracle")
def suite_core_oracle(ctx: _Context) -> str:
    labels = _irreducible_types(1152)
    count = 0
    for label in labels:
        G = ctx.group(label)
        g = G.graph
        for subset in all_subsets(g):
            if not subset or len(subset) == len(g.vertices):
                continue
            core_of_normalizer(g, subset, verify=True, G=G)
            count += 1
            ctx.checks += 1
    return f"{count} (type, subset) pairs agree with brute force over {len(labels)} types"


# -- criterion 4: centralizers of involutive normal closures ----------------------

CENTRALIZER_SUITE_TYPES = (
    [TypeLabel("A", 3), TypeLabel("B", 2), TypeLabel("B", 3), TypeLabel("D", 4),
     TypeLabel("H", 3), TypeLabel("F", 4)]
    + [TypeLabel("I2", m) for m in range(5, 11)]
)


def _involution_class_reps(G: EnumeratedGroup) -> list[int]:
    """The smallest id of each conjugacy class of involutions."""
    return sorted({min(G.conjugacy_classes()[G.class_of(x)]) for x in G.involutions()})


@_suite("centralizer-oracle")
def suite_centralizer_oracle(ctx: _Context) -> str:
    count = 0
    for label in CENTRALIZER_SUITE_TYPES:
        G = ctx.group(label)
        reps = _involution_class_reps(G)
        for r in range(len(reps) + 1):
            for xs in itertools.combinations(reps, r):
                centralizer_of_normal_closure(G.graph, list(xs), verify=True, G=G)
                count += 1
                ctx.checks += 1
    return f"{count} normal closures across {len(CENTRALIZER_SUITE_TYPES)} groups"


# -- criterion 5: center as a direct factor ----------------------------------------

CENTER_FACTOR_TYPES = [
    TypeLabel("B", 3), TypeLabel("B", 4), TypeLabel("B", 5), TypeLabel("D", 4),
    TypeLabel("F", 4), TypeLabel("H", 3),
    TypeLabel("I2", 6), TypeLabel("I2", 8), TypeLabel("I2", 10), TypeLabel("I2", 12),
]


def _index2_normal_subgroups(G: EnumeratedGroup) -> list[SubgroupHandle]:
    """All index-2 (necessarily normal) subgroups, through the derived
    subgroup D, the normal closure of the commutators: each contains D.
    G/D is elementary abelian (G is generated by involutions), so the
    subgroup generated by a union S of D-cosets and one more coset rD
    is S u rS.  Spans grow from D one coset at a time; those of half
    the order are kept."""
    s = np.array(G.generators, dtype=np.intp)
    inv = G.inverse_table()
    comms = G.mult_ids(s[:, None], s[None, :], inv[s][:, None], inv[s][None, :])
    derived = subgroup_closure(G, comms.ravel().tolist(), normal=True)
    covered = derived.mask()
    reps: list[int] = []
    while not covered.all():
        reps.append(int(np.argmin(covered)))
        covered[G.mult_ids(reps[-1], derived.sorted_ids())] = True
    spans, found = [derived.mask()], []
    seen = {spans[0].tobytes()}
    for span in spans:
        if 2 * span.sum() == len(G):
            found.append(frozenset(np.flatnonzero(span).tolist()))
            continue
        for r in [r for r in reps if not span[r]]:
            grown = span.copy()
            grown[G.mult_ids(r, np.flatnonzero(span))] = True
            if grown.tobytes() not in seen:
                seen.add(grown.tobytes())
                spans.append(grown)
    return [G.subgroup(ids, verified=True) for ids in sorted(found, key=sorted)]


@_suite("center-factor")
def suite_center_factor(ctx: _Context) -> str:
    for label in CENTER_FACTOR_TYPES:
        G = ctx.group(label)
        decision = center_direct_factor(label)
        ctx.expect(not decision.center_trivial, f"{label} should have a center")
        z = set(G.center())
        ctx.expect(len(z) == 2, f"{label}: |Z| = {len(z)}")
        w0 = next(x for x in z if x != 0)
        complements = [
            K for K in _index2_normal_subgroups(G) if w0 not in K.ids
        ]
        ctx.expect(
            bool(complements) == decision.proper_factor,
            f"{label}: closed form says {decision.proper_factor}, "
            f"brute force found {len(complements)} complements",
        )
        # Z(W) is a direct factor iff some character to {+-1} sends w0
        # to -1: u.pi(w0) = 1 for some mask u, i.e. pi(w0) != 0.
        ctx.expect(
            bool(hom_space(G).pi[w0]) == decision.proper_factor,
            f"{label}: Hom(W, Z(W)) criterion disagrees with the decision",
        )
        if decision.proper_factor:
            K = complements[0]
            ctx.expect(len(K) * 2 == len(G) and K.is_normal(),
                       f"{label}: bad complement")
            product = {G.mult(a, b) for a in (0, w0) for b in K.ids}
            ctx.expect(len(product) == len(G), f"{label}: Z x K is not all of W")
            if decision.complement is not None and len(G) <= 1200:
                combined = enumerate_group(_multiset_graph((TypeLabel("A", 1), decision.complement)))
                ctx.expect(
                    bool(find_isomorphism(G, combined)),
                    f"{label}: W is not isomorphic to A1 x {decision.complement}",
                )
            if decision.complement_is_even_subgroup:
                even = G.subgroup(np.flatnonzero(G.lengths % 2 == 0).tolist())
                ctx.expect(
                    any(K == even for K in complements),
                    f"{label}: W+ is not among the complements",
                )
    # H3+ is not isomorphic to any product of catalog Coxeter groups
    # of order 60 (I2(30), A1 x I2(15), A2 x I2(5)).
    H3 = ctx.group(TypeLabel("H", 3))
    even = H3.subgroup(np.flatnonzero(H3.lengths % 2 == 0).tolist())
    candidates = [
        [TypeLabel("I2", 30)],
        [TypeLabel("A", 1), TypeLabel("I2", 15)],
        [TypeLabel("A", 2), TypeLabel("I2", 5)],
    ]
    for labels in candidates:
        other = enumerate_group(_multiset_graph(labels))
        ctx.expect(
            not find_isomorphism(even, other),
            f"H3+ unexpectedly isomorphic to {labels}",
        )
    ctx.expect(len(centralizer(H3, even.ids).ids & even.ids) == 1,
               "H3+ does not have trivial center")
    ctx.expect(
        subgroup_closure(H3, [x for x in even.ids if H3.mult(x, x) == 0]) == even,
        "H3+ is not generated by involutions",
    )
    # H3+ is simple (its only normal subgroups are the trivial
    # class-unions), hence directly indecomposable.
    view = even.as_view()
    classes = view.conjugacy_classes()
    normal_count = 0
    for r in range(len(classes) + 1):
        for combo in itertools.combinations(range(len(classes)), r):
            ids = [x for i in combo for x in classes[i]]
            if view.identity not in ids:
                continue
            inside = np.zeros(len(view), dtype=bool)
            inside[ids] = True
            if inside[view.table[np.ix_(ids, ids)]].all():
                normal_count += 1
    ctx.expect(normal_count == 2, f"H3+ has {normal_count} normal subgroups, not 2")
    return f"{len(CENTER_FACTOR_TYPES)} types match the complement search, H3+ checks pass"


# -- criterion 6: lemma battery ----------------------------------------------------


def _n_i(G: EnumeratedGroup, subset: Sequence[str]) -> set[int]:
    """{w : w . Pi_I = Pi_I} via root images."""
    ids = {G.table.simple_root_id(s) for s in subset}
    return {
        a for a in G.element_ids()
        if {int(G.perms[a][i]) for i in ids} == ids
    }


@_suite("lemma-battery")
def suite_lemma_battery(ctx: _Context) -> str:
    small = _irreducible_types(400)
    for label in small:
        G = ctx.group(label)
        g = G.graph
        subsets = list(all_subsets(g))
        paras = {I: G.parabolic(I) for I in subsets}
        norms = {I: normalizer(G, paras[I]) for I in subsets}
        cores = {I: core(G, norms[I]) for I in subsets}

        for I in subsets:
            # Z of a central longest element equals the normalizer.
            w0, sigma = longest_element(G, I)
            if sigma_is_identity(sigma):
                ctx.expect(
                    centralizer(G, [w0]) == norms[I],
                    f"{label}, I={I}: Z_W(w0(I)) != N_W(W_I)",
                )
            # Semidirect decomposition of the normalizer.
            ni = _n_i(G, I)
            wi = paras[I].ids
            ctx.expect(len(ni & wi) == 1, f"{label}, I={I}: W_I ^ N_I != 1")
            ctx.expect(
                len(ni) * len(wi) == len(norms[I]),
                f"{label}, I={I}: |N| != |W_I| |N_I|",
            )
            products = {G.mult(a, b) for a in wi for b in ni}
            ctx.expect(products == norms[I].ids,
                       f"{label}, I={I}: N != W_I . N_I")
            # Core of a parabolic is trivial (irreducible, proper, nonempty).
            if I and len(I) < len(g.vertices):
                ctx.expect(
                    len(core(G, paras[I])) == 1,
                    f"{label}, I={I}: Core_W(W_I) != 1",
                )
            # Expanding: cores grow when an adjacent vertex joins I.
            outside = [s for s in g.vertices if s not in I and s not in perp(g, I)]
            for s in outside:
                J = tuple(v for v in g.vertices if v in set(I) | {s})
                ctx.expect(cores[I].ids <= cores[J].ids,
                           f"{label}: C_{I} not within C_{J}")
            # Cutting: cores survive trimming I to its far part.
            for s in g.vertices:
                if s in I or not I:
                    continue
                dmin = distance(g, s, I)
                dmax = max(distance(g, s, [t]) for t in I)
                for k in range(dmin + 1, dmax + 2):
                    J = tuple(t for t in I if distance(g, s, [t]) >= k)
                    ctx.expect(cores[I].ids <= cores[J].ids,
                               f"{label}: cutting C_{I} at {s},{k} fails")
        # Shifting: singleton cores agree along odd edges.
        for comp in components(g, odd_only=True):
            for s, t in itertools.combinations(comp, 2):
                ctx.expect(cores[(s,)] == cores[(t,)],
                           f"{label}: C_{{{s}}} != C_{{{t}}}")
        # Intersections of normalizers.
        if len(g.vertices) <= 4:
            for I in subsets:
                for J in subsets:
                    meet = tuple(v for v in g.vertices if v in set(I) & set(J))
                    ctx.expect(
                        norms[I].ids & norms[J].ids <= norms[meet].ids,
                        f"{label}: N(W_I) ^ N(W_J) escapes N(W_I^J)",
                    )
                    if set(I) <= set(J) and set(J) - set(I) <= set(perp(g, I)):
                        diff = tuple(v for v in g.vertices if v in set(J) - set(I))
                        ctx.expect(
                            norms[J].ids & norms[I].ids <= norms[diff].ids,
                            f"{label}: orthogonal-difference lemma fails at {I},{J}",
                        )

    # Maximal-parabolic corollary on B3, D4, H3, F4.
    for label in (TypeLabel("B", 3), TypeLabel("D", 4), TypeLabel("H", 3), TypeLabel("F", 4)):
        G = ctx.group(label)
        S = G.graph.vertices
        w0S, _ = longest_element(G, S)
        for s in S:
            I = tuple(v for v in S if v != s)
            N = normalizer(G, G.parabolic(I))
            if w0S in N.ids:
                expected = {G.mult(a, b) for a in G.parabolic(I).ids for b in (0, w0S)}
                ctx.expect(expected == N.ids,
                           f"{label}: N(W_(S-{s})) != W_I x| <w0(S)>")

    # Towers: intersections of the nested prefix normalizers.
    for n in (2, 3, 4):
        G = ctx.group(TypeLabel("B", n))
        acc = set(G.element_ids())
        for i in range(1, n):
            acc &= normalizer(G, G.parabolic([f"s{k}" for k in range(1, i + 1)])).ids
        ctx.expect(acc == special_subgroup(G, "B", n).ids,
                   f"B{n}: intersection of normalizers is not G_B{n}")
    for n in (3, 4):
        G = ctx.group(TypeLabel("D", n))
        acc = set(G.element_ids())
        for i in range(2, n):
            acc &= normalizer(G, G.parabolic([f"s{k}" for k in range(1, i + 1)])).ids
        gd = special_subgroup(G, "D", n)
        s1 = G.generator("s1")
        semidirect = {G.mult(a, b) for a in gd.ids for b in (0, s1)}
        ctx.expect(acc == semidirect,
                   f"D{n}: intersection of normalizers is not G_D{n} x| <s1>")

    # Core properties (2.2)-(2.5) over all subgroups of three small groups.
    for graph in (build_named(TypeLabel("A", 2)), build_named(TypeLabel("B", 2)),
                  _multiset_graph((TypeLabel("A", 1), TypeLabel("A", 2)))):
        G = enumerate_group(graph)
        subs: set[frozenset[int]] = set()
        ids = list(G.element_ids())
        for r in range(0, 4):
            for seed in itertools.combinations(ids[1:], r):
                subs.add(subgroup_closure(G, seed).ids)
        handles = [G.subgroup(s, verified=True) for s in sorted(subs, key=sorted)]
        cores_of = {H.ids: core(G, H) for H in handles}
        for H1, H2 in itertools.product(handles, repeat=2):
            c1, c2 = cores_of[H1.ids], cores_of[H2.ids]
            if H1.ids <= H2.ids:
                ctx.expect(c1.ids <= c2.ids, "core monotonicity (2.2) fails")
            if c1.ids <= H2.ids:
                ctx.expect(c1.ids <= c2.ids, "core sandwich (2.3) fails")
            meet = G.subgroup(H1.ids & H2.ids, verified=True)
            ctx.expect(core(G, meet).ids == c1.ids & c2.ids,
                       "core of intersection (2.4) fails")
            if H1.ids <= H2.ids:
                for w in G.element_ids():
                    conj = {G.conj(w, h) for h in H1.ids}
                    if len(conj & H2.ids) == 1:
                        ctx.expect(len(H1.ids & c2.ids) == 1,
                                   "disjoint-conjugate property (2.5) fails")
                        break

    # Z of a normal closure as an intersection of cores (class-rep
    # subsets are exhaustive: both sides only depend on the classes met).
    for label in (TypeLabel("A", 3), TypeLabel("B", 3)):
        G = ctx.group(label)
        invs = G.involutions()
        reps = _involution_class_reps(G)
        pools = [list(xs) for r in range(1, len(reps) + 1)
                 for xs in itertools.combinations(reps, r)]
        pools += [ctx.rng.sample(invs, ctx.rng.randint(1, min(4, len(invs))))
                  for _ in range(25)]
        for xs in pools:
            H = subgroup_closure(G, xs, normal=True)
            lhs = centralizer(G, H.ids)
            rhs = set(G.element_ids())
            for x in xs:
                rhs &= core(G, centralizer(G, [x])).ids
            ctx.expect(lhs.ids == rhs,
                       f"{label}: Z_W(closure) != intersection of cores for X={xs}")

    # Every involutive normal subgroup is the normal closure of its
    # central-longest-element set X_H, and its centralizer is the
    # intersection of the cores of the matching normalizers.
    for label in ([TypeLabel("A", 3), TypeLabel("B", 2), TypeLabel("B", 3),
                   TypeLabel("D", 4), TypeLabel("H", 3)]
                  + [TypeLabel("I2", m) for m in range(5, 9)]):
        G = ctx.group(label)
        reps = _involution_class_reps(G)
        for r in range(1, len(reps) + 1):
            for xs in itertools.combinations(reps, r):
                H = subgroup_closure(G, xs, normal=True)
                xh = x_h(G, H)
                ctx.expect(
                    subgroup_closure(G, [w for _, w in xh], normal=True) == H,
                    f"{label}: H is not the normal closure of X_H for X={xs}",
                )
                meet = set(G.element_ids())
                for I, _ in xh:
                    meet &= core(G, normalizer(G, G.parabolic(I))).ids
                ctx.expect(
                    centralizer(G, H.ids).ids == meet,
                    f"{label}: Z_W(H) != intersection of normalizer cores for X={xs}",
                )

    # Relation battery in the B- and D-towers (n <= 5).
    for n in (2, 3, 4, 5):
        G = ctx.group(TypeLabel("B", n))
        w0b = {i: longest_element(G, [f"s{k}" for k in range(1, i + 1)])[0]
               for i in range(1, n + 1)}
        s = {i: G.generator(f"s{i}") for i in range(1, n + 1)}
        for i in range(2, n):
            lhs = G.mult_many([s[i + 1], w0b[i], s[i + 1]])
            rhs = G.mult_many([w0b[i - 1], w0b[i], w0b[i + 1]])
            ctx.expect(lhs == rhs, f"B{n}: tower relation fails at i={i}")
        ctx.expect(G.mult_many([s[2], s[1], s[2]]) == G.mult(s[1], w0b[2]),
                   f"B{n}: s2 s1 s2 != s1 w0(B2)")
    for n in (3, 4, 5):
        G = enumerate_group(build_named(TypeLabel("D", n)))
        w0d = {i: longest_element(G, [f"s{k}" for k in range(1, i + 1)])[0]
               for i in range(2, n + 1)}
        s = {i: G.generator(f"s{i}") for i in range(1, n + 1)}
        ctx.expect(G.mult_many([s[3], w0d[2], s[3]]) == G.mult(w0d[2], w0d[3]),
                   f"D{n}: s3 w0(D2) s3 relation fails")
        for i in range(3, n):
            lhs = G.mult_many([s[i + 1], w0d[i], s[i + 1]])
            rhs = G.mult_many([w0d[i - 1], w0d[i], w0d[i + 1]])
            ctx.expect(lhs == rhs, f"D{n}: tower relation fails at i={i}")
        for i, j in itertools.combinations(sorted(w0d), 2):
            ctx.expect(G.mult(w0d[i], w0d[j]) == G.mult(w0d[j], w0d[i]),
                       f"D{n}: w0(D{i}) and w0(D{j}) do not commute")
        for k in range(1, (n - 1) // 2 + 1):
            m = 2 * k + 1
            lhs1 = G.mult_many([s[1], w0d[m], s[1]])
            lhs2 = G.mult_many([s[2], w0d[m], s[2]])
            rhs = G.mult(w0d[2], w0d[m])
            ctx.expect(lhs1 == rhs and lhs2 == rhs,
                       f"D{n}: odd-prefix relation fails at 2k+1={m}")
    return f"lemma battery passed on {len(small)} irreducible types plus towers"


# -- criterion 7: isomorphism decider soundness ------------------------------------


def _universe(max_order: int) -> list[tuple[TypeLabel, ...]]:
    atoms = _irreducible_types(max_order)
    atoms.sort(key=lambda t: (group_order(t), str(t)))
    out: list[tuple[TypeLabel, ...]] = []

    def rec(start: int, chosen: list[TypeLabel], order: int):
        if chosen:
            out.append(tuple(chosen))
        for i in range(start, len(atoms)):
            o = order * group_order(atoms[i])
            if o > max_order:
                continue
            chosen.append(atoms[i])
            rec(i, chosen, o)
            chosen.pop()

    rec(0, [], 1)
    return out


@_suite("isomorphism")
def suite_isomorphism(ctx: _Context) -> str:
    universe = _universe(240)
    groups: dict[tuple[TypeLabel, ...], EnumeratedGroup] = {}
    by_order: dict[int, list[tuple[TypeLabel, ...]]] = {}
    for labels in universe:
        order = 1
        for t in labels:
            order *= group_order(t)
        by_order.setdefault(order, []).append(labels)
    pairs = 0
    brute_pairs = 0
    for order, members in sorted(by_order.items()):
        for la, lb in itertools.combinations_with_replacement(members, 2):
            verdict = coxeter_isomorphic(list(la), list(lb))
            ctx.expect(verdict in (YES, NO),
                       f"{la} vs {lb}: finite pair returned {verdict}")
            for labels in (la, lb):
                if labels not in groups:
                    groups[labels] = enumerate_group(_multiset_graph(labels), cap=300)
            hit = bool(find_isomorphism(groups[la], groups[lb]))
            ctx.expect(
                hit == (verdict == YES),
                f"{la} vs {lb}: decider {verdict}, brute force {'found' if hit else 'none'}",
            )
            pairs += 1
            brute_pairs += 1
    # Factor a few found isomorphisms through admissible decompositions
    # and let the reconstruction f = g_lambda . g_Z verify itself.
    factored = 0
    for la, lb in (
        ((TypeLabel("B", 3),), (TypeLabel("A", 1), TypeLabel("A", 3))),
        ((TypeLabel("I2", 6), TypeLabel("A", 1)),
         (TypeLabel("A", 1), TypeLabel("A", 1), TypeLabel("A", 2))),
        ((TypeLabel("I2", 10),), (TypeLabel("A", 1), TypeLabel("I2", 5))),
    ):
        Ga = groups.get(la) or enumerate_group(_multiset_graph(la), cap=300)
        Gb = groups.get(lb) or enumerate_group(_multiset_graph(lb), cap=300)
        maps = find_isomorphism(Ga, Gb)
        ctx.expect(bool(maps), f"{la} vs {lb}: expected an isomorphism")
        deca = DirectDecomposition.of(Ga, admissible_factor_handles(Ga))
        decb = DirectDecomposition.of(Gb, admissible_factor_handles(Gb))
        factor_isomorphism(deca, decb, maps[0])
        factored += 1
        ctx.checks += 1
    # Across different orders the decider must refuse (cheap, no brute force).
    orders = sorted(by_order)
    for oa, ob in itertools.combinations(orders, 2):
        la = by_order[oa][0]
        lb = by_order[ob][0]
        ctx.expect(coxeter_isomorphic(list(la), list(lb)) == NO,
                   f"{la} vs {lb}: differing orders must be NO")
        pairs += 1
    # Condition-II list equality coincides with admissible-refinement
    # equality on random multisets.
    pool = (
        [TypeLabel("A", n) for n in range(1, 10)]
        + [TypeLabel("B", n) for n in range(2, 10)]
        + [TypeLabel("D", n) for n in range(4, 10)]
        + [TypeLabel("E", n) for n in (6, 7, 8)]
        + [TypeLabel("F", 4), TypeLabel("H", 3), TypeLabel("H", 4)]
        + [TypeLabel("I2", m) for m in range(5, 31)]
    )
    for _ in range(10_000):
        a = [ctx.rng.choice(pool) for _ in range(ctx.rng.randint(0, 8))]
        b = [ctx.rng.choice(pool) for _ in range(ctx.rng.randint(0, 8))]
        if ctx.rng.random() < 0.3:
            b = list(a)
            if b and ctx.rng.random() < 0.5:
                b[ctx.rng.randrange(len(b))] = ctx.rng.choice(pool)
        ca = Counter(t.canonical() for t in a)
        cb = Counter(t.canonical() for t in b)
        by_list = condition_ii_cardinalities(ca) == condition_ii_cardinalities(cb)
        by_refine = (admissible_refinement(ComponentMultiset(finite=ca)).finite
                     == admissible_refinement(ComponentMultiset(finite=cb)).finite)
        ctx.expect(by_list == by_refine,
                   f"condition-II implementations disagree on {a} vs {b}")
    return f"{pairs} decider pairs agree ({brute_pairs} brute-forced), 10^4 random multisets"


# -- criterion 8: automorphism accounting -------------------------------------------


def _sym_product_cases(max_group: int, max_aut: int):
    """All multiplicity tuples (m1, m2, ..., m6) with the product of
    symmetric groups of order <= max_group and a formula |Aut| small
    enough to enumerate by brute force."""
    import math as _math

    out = []
    # m1 = 1 exercises the trivial-factor cancellation in the formula
    # once; higher m1 repeats the same group.
    bounds = [1, 5, 3, 2, 1, 1]
    for m in itertools.product(*(range(b + 1) for b in bounds)):
        order = 1
        for n, mn in enumerate(m, start=1):
            order *= _math.factorial(n) ** mn
        if not 1 < order <= max_group:
            continue
        if aut_order_symproduct(m) > max_aut:
            continue
        out.append(m)
    return out


@_suite("aut")
def suite_aut(ctx: _Context) -> str:
    # Pinned values first: Sym2 x Sym3, Sym3^2, Sym4, Sym2^2 (= GL2(F2)).
    pinned = {(0, 1, 1): 12, (0, 0, 2): 72, (0, 0, 0, 1): 24, (0, 2): 6}
    for m, expected in pinned.items():
        got = aut_order_symproduct(m)
        ctx.expect(got == expected, f"aut_order_symproduct({m}) = {got}, want {expected}")
    # Then the whole enumerable family, including Sym6 (whose outer
    # automorphism is the 2^m6 factor) and Sym2^4 (= GL4(F2)).  Trivial
    # Sym1 factors change the formula's bookkeeping but not the group,
    # so the brute-forced |Aut| is cached on the nontrivial part.
    cases = _sym_product_cases(max_group=800, max_aut=21_000)
    brute_cache: dict[tuple, int] = {}
    for m in cases:
        expected = aut_order_symproduct(m)
        key = tuple(m[1:])
        if key not in brute_cache:
            labels = [TypeLabel("A", n - 1) for n, mult in enumerate(m, start=1) if n >= 2
                      for _ in range(mult)]
            G = enumerate_group(_multiset_graph(labels), cap=1200)
            brute_cache[key] = automorphism_count(G)
        ctx.expect(brute_cache[key] == expected,
                   f"brute |Aut| for Sym-product {m} is {brute_cache[key]}, "
                   f"formula {expected}")
    # Budget identity |Aut| = |H1||H2||H3|/|H4| with brute left side.
    for labels, h_expect in (
        ((TypeLabel("A", 1), TypeLabel("A", 2)), (2, 6, 1, 1, 12)),
        ((TypeLabel("A", 2), TypeLabel("A", 2)), (1, 36, 2, 1, 72)),
        # All-central decomposition: Aut is pure H1 = GL3(F2).
        ((TypeLabel("A", 1),) * 3, (168, 1, 1, 1, 168)),
        # Central block plus a repeated non-central class.
        ((TypeLabel("A", 1), TypeLabel("A", 2), TypeLabel("A", 2)),
         (4, 36, 2, 1, 288)),
    ):
        G = enumerate_group(_multiset_graph(labels))
        factors = []
        for comp in components(G.graph):
            factors.append(G.parabolic(comp))
        dec = DirectDecomposition.of(G, factors)
        budget = aut_decomposition(dec, brute=True)
        got = (budget.h1, budget.h2, budget.h3, budget.h4, budget.aut_order)
        ctx.expect(got == h_expect, f"{labels}: budget {got}, want {h_expect}")
        ctx.expect(budget.identity_holds(), f"{labels}: budget identity fails")
        ctx.expect(budget.brute_order == budget.aut_order,
                   f"{labels}: brute {budget.brute_order} != {budget.aut_order}")
    # W(A1) alone: |Aut| = 1.
    G = ctx.group(TypeLabel("A", 1))
    ctx.expect(automorphism_count(G) == 1, "Aut(W(A1)) != 1")
    return "symmetric-product formula and budget identities match brute force"


# -- criterion 9: hommonoid laws ------------------------------------------------------


EXHAUSTIVE_PAIR_LIMIT = 600      # |Hom|^2 swept fully below this
EXHAUSTIVE_TRIPLE_LIMIT = 128    # |Hom|^3 swept fully below this
_DENSE_PAIR_SAMPLE = 256         # g per f of the value sweep above EXHAUSTIVE_PAIR_LIMIT


# The closed form works on matrices A over F2 (``hommonoid``); these
# are the definitions on value rows, read from the group's Cayley table
# and inverse table, which the F2 closed form never reads.

def _dense_star(G: EnumeratedGroup, F: np.ndarray, H: np.ndarray) -> np.ndarray:
    """(f*g)(w) = f(w) g(w) f(g(w))^-1 on value rows broadcast against
    each other."""
    F, H = np.broadcast_arrays(F, H)
    table = G.mult_table()
    return table[table[F, H], G.inverse_table()[np.take_along_axis(F, H, axis=-1)]]


def _dense_flat(G: EnumeratedGroup, F: np.ndarray) -> np.ndarray:
    """f_flat(w) = w f(w)^-1 on value rows."""
    return G.mult_table()[np.arange(len(G)), G.inverse_table()[F]]


@_suite("hommonoid")
def suite_hommonoid(ctx: _Context) -> str:
    group_count = 0
    for labels in _universe(24):
        name = str(list(labels))  # formatted once: most checks run per hom or per pair
        G = enumerate_group(_multiset_graph(labels))
        space = hom_space(G)
        mats = hom_matrices(G)
        rows = _values(G, mats)
        n_homs = len(rows)
        group_count += 1
        for A in mats[:, :600].T.tolist():
            ctx.expect(CentralHom(G, tuple(A)).check_homomorphism(),
                       f"{name}: generated map not a hom")
        one, zero = np.zeros(len(G), dtype=np.intp), np.zeros((space.c, 1), dtype=mats.dtype)
        ctx.expect_all(((_dense_star(G, one, rows) == rows) & (_dense_star(G, rows, one) == rows)
                        ).all(axis=1)
                       & ((_star(G, zero, mats) == mats) & (_star(G, mats, zero) == mats)).all(axis=0),
                       f"{name}: trivial map is not a unit")
        flat_rows = _dense_flat(G, rows)
        # Rows as fixed-width byte strings: a 1-D sort, several times
        # faster than np.unique(axis=0).
        keys = np.ascontiguousarray(flat_rows).view(
            np.dtype((np.void, flat_rows.itemsize * flat_rows.shape[1])))
        ctx.expect(len(np.unique(keys)) == n_homs, f"{name}: flat embedding is not injective")
        # Pairwise: flat is a monoid homomorphism (star -> composition);
        # with injectivity this also implies associativity of *.  Per f,
        # on the matrices for every g: flat(f_A) . flat(f_B) is
        # w -> w g(w) f(w g(w)), pi(w g(w)) = (I + PB) pi(w), so its
        # matrix is B + A (I + PB); on values for every g up to
        # EXHAUSTIVE_PAIR_LIMIT maps and _DENSE_PAIR_SAMPLE seeded g above.
        if n_homs <= EXHAUSTIVE_PAIR_LIMIT:
            f_indices, dense = range(n_homs), np.arange(n_homs)
        else:
            f_indices = sorted(ctx.rng.sample(range(n_homs), 1024))
            dense = np.array(sorted(ctx.rng.sample(range(n_homs), _DENSE_PAIR_SAMPLE)))
        columns = space.pi[space.ids[mats]] ^ (1 << np.arange(space.c))[:, None]
        planes = [(columns >> k & 1).astype(mats.dtype) for k in range(space.c)]
        for i in f_indices:
            products, composed = _star(G, mats[:, i, None], mats), mats.copy()
            for plane, a in zip(planes, mats[:, i]):   # A applied to each column of I + PB
                composed ^= plane * a
            ctx.expect(np.array_equal(products, composed) and np.array_equal(
                _dense_flat(G, _values(G, products[:, dense])), flat_rows[i][flat_rows[dense]]),
                f"{name}: flat(f*g) != flat(f) . flat(g)")
        # Associativity confirmed directly on triples: exhaustively for
        # manageable monoids, on a seeded sample otherwise (where the
        # pairwise flat law plus injectivity already implies it).
        if n_homs <= EXHAUSTIVE_TRIPLE_LIMIT:
            star_of = _star(G, mats[:, :, None], mats[:, None, :])      # [:, i, j]: f_i * f_j
            for i in range(n_homs):
                lhs = _star(G, star_of[:, i, :, None], mats[:, None, :])  # [:, j, k]: (f_i*f_j)*f_k
                rhs = _star(G, mats[:, i, None, None], star_of)            # [:, j, k]: f_i*(f_j*f_k)
                ctx.expect_all((lhs == rhs).all(axis=(0, 2)), f"{name}: * is not associative")
        else:
            f, g, h = (mats[:, idx] for idx in np.array(
                [[ctx.rng.randrange(n_homs) for _ in range(3)] for _ in range(4_000)]).T)
            ctx.expect_all((_star(G, _star(G, f, g), h) == _star(G, f, _star(G, g, h))).all(axis=0),
                           f"{name}: * is not associative")
        # Invertibility: the three equivalent conditions.
        invertible = _invertible(G, mats)
        inv_rows = rows[invertible]
        inverses = _values(G, _invert(G, mats[:, invertible]))
        ctx.expect_all(((_dense_star(G, inverses, inv_rows) == 0)
                        & (_dense_star(G, inv_rows, inverses) == 0)).all(axis=1),
                       f"{name}: constructed inverse fails")
        ctx.expect_all(_is_bijective(flat_rows[invertible]),
                       f"{name}: invertible f with non-bijective flat")
        ctx.expect_all(~_is_endo_aut(G, flat_rows[~invertible]),
                       f"{name}: non-invertible f with flat in Aut")
        if n_homs <= EXHAUSTIVE_TRIPLE_LIMIT:
            unit = (star_of == 0).all(axis=0)                  # [g, f]: g*f = 1
            ctx.expect_all((unit & unit.T).any(axis=0) == invertible,
                           f"{name}: scan disagrees with invertibility test")
        # Double flat on abelian groups: flat is an involution of End.
        if all(t == TypeLabel("A", 1) for t in labels) and len(G) <= 16:
            endos = _all_endomorphisms(G)
            ctx.expect(len(endos) == n_homs,
                       f"{name}: Hom(G, Z(G)) != End(G) for abelian G")
            ctx.expect_all((_dense_flat(G, _dense_flat(G, endos)) == endos).all(axis=1),
                           f"{name}: double flat is not the identity")
            aut_tables = {tuple(m) for m in find_isomorphism(G, G, all_maps=True)}
            image = set(map(tuple, flat_rows[invertible].tolist()))
            ctx.expect(image == aut_tables,
                       f"{name}: flat(Hom^x) != Aut(G)")
    # Equivariance of flat under Aut and the semidirect-product law on
    # W(A1) x W(A2).
    labels = (TypeLabel("A", 1), TypeLabel("A", 2))
    G = enumerate_group(_multiset_graph(labels))
    mats = hom_matrices(G)
    rows = _values(G, mats)
    flat_rows = _dense_flat(G, rows)
    for h in np.array(find_isomorphism(G, G, all_maps=True)):
        hinv = np.argsort(h)
        ctx.expect_all((_dense_flat(G, h[rows[:, hinv]]) == h[flat_rows[:, hinv]]).all(axis=1),
                       "flat is not Aut-equivariant on W(A1) x W(A2)")
    comps = components(G.graph)
    a1_part, a2_part = G.parabolic(comps[0]), G.parabolic(comps[1])
    if len(a1_part) != 2:
        a1_part, a2_part = a2_part, a1_part
    invertible = np.flatnonzero(_invertible(G, mats))
    inv_rows = rows[invertible]
    h1 = inv_rows[(inv_rows[:, a1_part.sorted_ids()] == 0).all(axis=1)]
    h2_ids = invertible[(inv_rows[:, a2_part.sorted_ids()] == 0).all(axis=1)]
    h2 = rows[h2_ids]
    ctx.expect(len(inv_rows) == len(h1) * len(h2),
               "Hom^x != H1 x| H2 on W(A1) x W(A2)")
    h1_keys = set(map(tuple, h1.tolist()))
    products = set(map(tuple, _dense_star(G, h1[:, None, :], h2).reshape(-1, len(G)).tolist()))
    ctx.expect(len(products) == len(inv_rows) and
               products == set(map(tuple, inv_rows.tolist())),
               "H1 * H2 does not exhaust Hom^x")
    M = G.mult_table()
    ctx.expect_all((_dense_star(G, h1[:, None, :], h1) == M[h1[:, None, :], h1]).all(axis=2),
                   "H1 multiplication is not pointwise")
    # Conjugation rule: f * g * f' = flat(f) . g . flat(f)^-1 for
    # f in H2 and g in H1, so H1 is normal in the product.
    for f, A in zip(h2, mats[:, h2_ids].T):
        fb = _dense_flat(G, f)
        lhs = _dense_star(G, _dense_star(G, f, h1), _values(G, _invert(G, A)))
        for conj, twisted in zip(lhs.tolist(), fb[h1[:, np.argsort(fb)]].tolist()):
            ctx.expect(conj == twisted, "H2-conjugation of H1 is not flat-twisting")
            ctx.expect(tuple(conj) in h1_keys, "H1 is not normalized by H2")
    # (II) <=> (III) of the vanishing-center lemma at prime center: a
    # hom into a product of sign characters moves Z(W) iff some single
    # character does.  Exhaustive over tuples of characters (targets
    # C2^j, j <= 3) for groups on both sides of the dichotomy.
    for label in (TypeLabel("B", 2), TypeLabel("B", 3), TypeLabel("I2", 6),
                  TypeLabel("I2", 8), TypeLabel("H", 3), TypeLabel("D", 4)):
        Gc = ctx.group(label)
        z = [x for x in Gc.center() if x != 0][0]
        space = hom_space(Gc)
        # u.pi(z) for every mask u: 1 where the character moves z.
        moves = [f2_apply(u, int(space.pi[z]))
                 for u in itertools.product((0, 1), repeat=space.c)]
        cond2 = not any(moves)
        for j in (1, 2, 3):
            cond3_j = all(not any(combo) for combo in itertools.product(moves, repeat=j))
            ctx.expect(cond3_j == cond2,
                       f"{label}: (II)<=>(III) fails at target C2^{j}")
    return f"laws verified on {group_count} product groups of order <= 24"


def _is_bijective(tables: np.ndarray) -> np.ndarray:
    """Per row of value tables, whether it is a permutation of the ids."""
    return (np.sort(tables, axis=1) == np.arange(tables.shape[1])).all(axis=1)


def _is_endo_aut(G: EnumeratedGroup, tables: np.ndarray) -> np.ndarray:
    """Per row of value tables, whether it is an automorphism of G,
    checked against the Cayley table on every pair (bijections only)."""
    M = G.mult_table()
    out = _is_bijective(tables)
    for row in np.flatnonzero(out):
        t = tables[row]
        out[row] = np.array_equal(t[M], M[np.ix_(t, t)])
    return out


def _all_endomorphisms(G: EnumeratedGroup) -> np.ndarray:
    """All endomorphism tables of a small abelian 2-group, one row per
    assignment of images to the generators (in ``itertools.product``
    order) that extends to a genuine homomorphism."""
    gens = list(G.generators)
    M = G.mult_table()
    images = np.array(list(itertools.product(G.element_ids(), repeat=len(gens))),
                      dtype=np.intp).reshape(-1, len(gens))
    tables = np.zeros((len(images), len(G)), dtype=np.intp)
    for a, (parent, k) in enumerate(G._preds.tolist()[1:], start=1):
        tables[:, a] = M[tables[:, parent], images[:, k]]
    ok = np.ones(len(images), dtype=bool)
    for k, g in enumerate(gens):
        ok &= (tables[:, M[:, g]] == M[tables, images[:, k:k + 1]]).all(axis=1)
    return tables[ok]


# -- criterion 10: Richardson forms ---------------------------------------------------


@_suite("richardson")
def suite_richardson(ctx: _Context) -> str:
    cases: list[CoxeterGraph] = [build_named(t) for t in _irreducible_types(400)]
    cases.append(_multiset_graph((TypeLabel("A", 1), TypeLabel("A", 2))))
    cases.append(_multiset_graph((TypeLabel("A", 1), TypeLabel("A", 3))))
    cases.append(_multiset_graph((TypeLabel("A", 2), TypeLabel("B", 2))))
    count = 0
    for g in cases:
        G = enumerate_group(g, cap=20_000)
        for w in G.involutions():
            u, subset = richardson_form(G, w)
            w0, sigma = longest_element(G, subset)
            ctx.expect(G.conj(u, w) == w0, "u w u^-1 != w0(I)")
            ctx.expect(sigma_is_identity(sigma), "w0(I) is not central in W_I")
            count += 1
            ctx.checks += 1
    return f"{count} involutions across {len(cases)} groups have verified forms"


ALL_SUITES = {
    fn.suite_name: fn
    for fn in (
        suite_orders,
        suite_deodhar,
        suite_core_oracle,
        suite_centralizer_oracle,
        suite_center_factor,
        suite_lemma_battery,
        suite_isomorphism,
        suite_aut,
        suite_hommonoid,
        suite_richardson,
    )
}


def run_suites(names: Iterable[str] = ("all",), seed: int = 0) -> list[SuiteResult]:
    names = list(names)
    if "all" in names:
        names = list(ALL_SUITES)
    out = []
    for name in names:
        if name not in ALL_SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(ALL_SUITES)}")
        out.append(ALL_SUITES[name](seed=seed))
    return out
