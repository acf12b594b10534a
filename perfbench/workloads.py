"""The three workloads: op generation from a seed, shared set-up, and
one function per op kind that calls coxtools and checks the answer.

Every call into coxtools goes through ``t.call("<module>.<function>",
...)`` so the traced run can attribute time to the module entered.
Answers are small JSON-able values (orders, verdicts, lengths, case
names); they feed the answer digest that must repeat exactly.

Op lists are stratified: each pass visits a fixed set of (kind, type)
slots and the seed draws the parameters inside each slot (subsets,
involution words, products of a given order, I2(m) within an octave).
Which slot kinds cost seconds is then the same for every seed, so the
end-to-end figures of two seeds are comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path
from time import perf_counter

import catalog as cat
from harness import Op, WrongAnswer

WORKLOADS = ("cold-query", "warm-oracle", "iso-aut")

# I2(m) on a log-spaced grid up to 1000, one m per octave.  The group
# kinds of cold-query use the grid itself; deodhar on I2(500) and
# I2(1000) fails today with RootLookupError (float drift past eps).
I2_GRID = [8, 16, 31, 63, 125, 250, 500, 1000]
# Octaves [lo, hi] that cheap kinds draw m from log-uniformly.
I2_OCTAVES = [(5, 7), (8, 15), (16, 31), (32, 62), (63, 124), (125, 249),
              (250, 499), (500, 1000)]
GROUP_CAP = 20_000


def _i2(m: int) -> str:
    return f"I2({m})"


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))


def _word(rng: random.Random, gens: list[str], length: int) -> list[str]:
    return [rng.choice(gens) for _ in range(length)]


def _conjugate(rng: random.Random, gens: list[str], core: list[str]) -> list[str]:
    """u core u^-1 for a random word u; generators are involutions, so
    u^-1 is u reversed."""
    u = _word(rng, gens, rng.randint(0, 2 * len(gens)))
    return u + core + u[::-1]


def _reflection(rng: random.Random, name: str) -> list[str]:
    """A random conjugate of the last simple reflection.  Its conjugacy
    class, and so the normal closure a centralizer op computes, is the
    same for every seed."""
    gens = cat.vertices(name)
    return _conjugate(rng, gens, [gens[-1]])


def _involution(rng: random.Random, name: str, product: bool) -> list[str]:
    """With ``product``, a random conjugate of a product of two commuting
    generators when the type has such a pair; otherwise a reflection."""
    gens = cat.vertices(name)
    pairs = cat.commuting_pairs(name)
    if product and pairs:
        return _conjugate(rng, gens, list(rng.choice(pairs)))
    return _conjugate(rng, gens, [rng.choice(gens)])


def _subset(rng: random.Random, name: str, size: int) -> list[str]:
    """A random subset of ``size`` vertices (the cost of the oracle
    grows with it, so the size is part of the slot, not of the draw)."""
    gens = cat.vertices(name)
    return sorted(rng.sample(gens, size), key=gens.index)


# -- generation -------------------------------------------------------------------


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of one pass; the same seed gives the same list.

    The slots are interleaved in one fixed order for every seed, so the
    seed moves neither the allocation history behind peak_rss_mb nor
    which ops run next to each other."""
    rng = random.Random(f"{workload}/{seed}")
    ops = {"cold-query": _gen_cold, "warm-oracle": _gen_warm,
           "iso-aut": _gen_iso}[workload](rng)
    random.Random(workload).shuffle(ops)
    return ops


# The groups both cold-query and warm-oracle work on: the named catalog
# types up to H4 and the I2(m) grid, all of order <= 15000.
NAMED = [t for t in cat.CATALOG if not t.startswith("I2")]
GROUP_TYPES = NAMED + [_i2(m) for m in I2_GRID]
# Centralizer ops stop at I2(500): on I2(1000) one op (the closed form
# plus the oracle, each closing 500 reflections) takes about 12 s on a
# 2-vCPU x86_64 VM, too close to the deadline to succeed reliably.
CENTRALIZER_TYPES = [t for t in GROUP_TYPES if t != "I2(1000)"]
# In cold-query they also leave out the three closures that take seconds
# (H4, I2(250), I2(500)): there the op would time the closure, which
# warm-oracle measures, instead of the construction every CLI call pays.
COLD_CENTRALIZER_TYPES = [t for t in CENTRALIZER_TYPES
                          if t not in ("H4", "I2(250)", "I2(500)")]


def _gen_cold(rng: random.Random) -> list[Op]:
    drawn_i2 = [_i2(_log_uniform(rng, lo, hi)) for lo, hi in I2_OCTAVES]
    ops = []
    for t in GROUP_TYPES:
        n = cat.rank(t)
        if n > 1:
            ops.append(Op("core", {"type": t, "subset": _subset(rng, t, n // 2)}))
        if t in COLD_CENTRALIZER_TYPES:
            ops.append(Op("centralizer", {"type": t, "involutions": [_reflection(rng, t)]}))
        ops.append(Op("richardson", {"type": t, "word": _involution(rng, t, product=False)}))
        ops.append(Op("longest", {"type": t, "subset": _subset(rng, t, (n + 1) // 2)}))
        ops.append(Op("deodhar", {"type": t}))
    for t in NAMED + cat.ROOT_ONLY + drawn_i2:
        ops.append(Op("roots", {"type": t}))
    for t in cat.ROOT_ONLY + [_i2(m) for m in I2_GRID]:
        ops.append(Op("deodhar_table", {"type": t}))
    connected = NAMED + cat.ROOT_ONLY + drawn_i2
    some_products = cat.products(cat.CATALOG, 10**6, 3)
    for command in ("classify", "order"):
        for _ in range(8):
            names = rng.choice(some_products) if rng.random() < 0.5 else (rng.choice(connected),)
            ops.append(Op("cli", {"command": command, "types": list(names)},
                          expect=_cli_expect(command, names)))
    for command in ("center-factor", "indecomposable"):
        for _ in range(8):
            t = rng.choice(connected)
            ops.append(Op("cli", {"command": command, "types": [t]},
                          expect=_cli_expect(command, (t,))))
    return ops


def _cli_expect(command: str, names) -> list:
    """[exit code, the JSON fields the benchmark checks]."""
    if command == "classify":
        return [0, {"components": list(names), "order": cat.product_order(names)}]
    if command == "order":
        return [0, {"order": cat.product_order(names)}]
    (t,) = names
    if command == "indecomposable":
        ok = cat.indecomposable(t)
        return [0 if ok else 1, {"indecomposable": ok}]
    proper = not cat.indecomposable(t)
    return [0 if proper else 1,
            {"center_trivial": cat.center_trivial(t), "proper_factor": proper}]


def _gen_warm(rng: random.Random) -> list[Op]:
    ops = []
    # Per group: one centralizer (the closure dominates the pass), the
    # core for a parabolic of every proper size, Richardson forms of a
    # reflection and of a product of two commuting ones, a decomposition,
    # and element ops on words of n, 2n, ..., 8n letters, enough that the
    # median op is an element op.
    for t in GROUP_TYPES:
        gens = cat.vertices(t)
        if t in CENTRALIZER_TYPES:
            ops.append(Op("centralizer",
                          {"type": t, "involutions": [_reflection(rng, t)]}))
        for size in range(1, len(gens)):
            ops.append(Op("core", {"type": t, "subset": _subset(rng, t, size)}))
        for product in (False, True):
            ops.append(Op("richardson",
                          {"type": t, "word": _involution(rng, t, product)}))
        ops.append(Op("deodhar", {"type": t}))
        for k in range(1, 9):
            words = [_word(rng, gens, k * len(gens)) for _ in range(2)]
            ops.append(Op("element", {"type": t, "words": words}))
    return ops


def _gen_iso(rng: random.Random) -> list[Op]:
    small = cat.products(cat.CATALOG, 120, 2)
    auts = [("D4",), ("H3",)] + [p for p in small if cat.product_order(p) in AUT_ORDERS]
    ops = [Op("aut", {"types": list(p)}) for p in auts]
    maps = [("D4",), ("B4",)] + [p for p in small if cat.product_order(p) in ALLMAPS_ORDERS]
    ops += [Op("allmaps", {"types": list(p)}) for p in maps]
    by_order: dict[int, list] = {}
    for p in cat.products(cat.CATALOG, 1152, 3):
        by_order.setdefault(cat.product_order(p), []).append(p)
    # Every product of order <= 256 against itself, SELF_PAIRS times with
    # its factors in a seeded order; for each such order with several
    # products, two of them drawn by the seed, so that the verdict is the
    # decider's; one seeded product of each larger order in
    # ISO_LARGE_ORDERS.
    for o in sorted(by_order):
        if o <= 256:
            for a in by_order[o]:
                for _ in range(SELF_PAIRS):
                    ops.append(Op("iso", {"a": list(a), "b": rng.sample(a, len(a))}))
            if len(by_order[o]) > 1:
                a, b = rng.sample(by_order[o], 2)
                ops.append(Op("iso", {"a": list(a), "b": list(b)}))
        elif o in ISO_LARGE_ORDERS:
            a = rng.choice(by_order[o])
            ops.append(Op("iso", {"a": list(a), "b": rng.sample(a, len(a))}))
    ops.append(Op("iso", {"a": ["F4"], "b": ["F4"]}))
    for p in cat.products(cat.CATALOG, 24, 3):
        ops.append(Op("hommonoid", {"types": list(p), "pick": [rng.random(), rng.random()]}))
    return ops


# iso-aut strata.  Every pass runs the W(D4) `aut --verify` op (a
# deadline failure today) and aut_decomposition on H3 and every product
# of at most two factors of the orders below; brute Aut on W(D4),
# W(B4) and every such product of the orders below; the pairs above; and
# W(F4) against itself: above order 1024 find_isomorphism loses its
# Cayley-table verifier (ROADMAP item 2).  A4 stays out of the aut
# stratum: its aut_decomposition takes about 8 s on a 2-vCPU x86_64 VM,
# more than any op that stays, and would leave less than three times its
# time under the deadline.
AUT_ORDERS = (12, 24, 48)
ALLMAPS_ORDERS = (96, 120)
ISO_LARGE_ORDERS = (288, 384, 512, 768)
# The cheap self-pairs set the median op.  With one each they filled
# about a tenth of a pass, the rest being the fixed deadline of the W(D4)
# op and a few ops of seconds, and the median moved by up to a third
# between runs.
SELF_PAIRS = 3


# -- set-up --------------------------------------------------------------------------


class FreshState:
    """cold-query and iso-aut: every op builds its own groups from text,
    as one `coxtools <cmd> --verify` call does; nothing is shared but the
    `.cox` files the CLI ops read."""

    def __init__(self, ops: list[Op], workdir: Path):
        self.cox_dir = workdir / "cox"
        self.cox_dir.mkdir(parents=True, exist_ok=True)
        for op in ops:
            if op.kind == "cli":
                path = self.cox_file(op.params["types"])
                if not path.exists():
                    path.write_text(cat.cox_text(op.params["types"]), encoding="utf-8")

    def cox_file(self, names) -> Path:
        return self.cox_dir / ("_".join(names).replace("(", "").replace(")", "") + ".cox")

    def group(self, cx, t, names):
        """parse_graph -> classify_components -> enumerate_roots ->
        EnumeratedGroup(table=...), with the sizes counted."""
        g = t.call("graph.parse_graph", cx.parse_graph, cat.cox_text(names))
        t.call("classify.classify_components", cx.classify_components, g)
        table = t.call("rootspace.enumerate_roots", cx.enumerate_roots, g)
        t.add("rootspace.roots", len(table))
        G = t.call("engine.EnumeratedGroup", cx.EnumeratedGroup, g, cap=GROUP_CAP,
                   table=table)
        t.add("engine.elements", len(G))
        return g, G


class WarmState:
    """warm-oracle: every group of GROUP_TYPES, built once as the
    acceptance suites' context does.  Set-up fills the lazy tables that
    a first call fills whole (classes, centre, inverses); the memo of
    element orders, which fills one element at a time, is emptied before
    every pass, so that every pass computes the same orders."""

    def __init__(self, cx):
        self.cx = cx
        self.groups: dict[str, tuple] = {}
        # Per group: [parse and construct, fill the lazy tables] seconds.
        self.build_seconds: dict[str, list[float]] = {}
        for name in GROUP_TYPES:
            self.build(name)

    def build(self, name: str):
        start = perf_counter()
        g = self.cx.parse_graph(cat.cox_text(name))
        G = self.cx.EnumeratedGroup(g, cap=GROUP_CAP)
        built = perf_counter()
        G.conjugacy_classes()
        G.center()
        G.inverse_table()
        self.groups[name] = (g, G)
        self.build_seconds[name] = [built - start, perf_counter() - built]

    def group(self, cx, t, name):
        return self.groups[name]

    def begin_pass(self):
        for _, G in self.groups.values():
            G._orders = None

    def rebuild(self, op: Op):
        """After a deadline: replace the group the stopped op used, so no
        half-filled cache survives into later ops."""
        self.build(op.params["type"])


def setup(workload: str, ops: list[Op], cx, workdir: Path):
    if workload == "warm-oracle":
        return WarmState(cx)
    return FreshState(ops, workdir)


# -- op kinds ------------------------------------------------------------------------


def _check(cond: bool, message: str):
    if not cond:
        raise WrongAnswer(message)


def _elements(cx, t, G, words):
    return [t.call("engine.element", G.from_word, w) for w in words]


def _core(cx, t, g, G, subset):
    desc = t.call("structure.core_of_normalizer", cx.core_of_normalizer, g, subset,
                  verify=False, G=G)
    closed = t.call("structure.resolve", desc.resolve, G)
    P = t.call("engine.parabolic", G.parabolic, subset)
    N = t.call("engine.normalizer", cx.normalizer, G, P)
    brute = t.call("engine.core", cx.core, G, N)
    _check(closed == brute, f"core: closed form {desc.kind} has order {len(closed)}, "
                            f"brute force {len(brute)}")
    return [desc.kind, len(brute)]


def _centralizer(cx, t, g, G, words):
    xs = _elements(cx, t, G, words)
    desc = t.call("structure.centralizer_of_normal_closure",
                  cx.centralizer_of_normal_closure, g, xs, verify=False, G=G)
    closed = t.call("structure.resolve", desc.resolve, G)
    H = t.call("engine.subgroup_closure", cx.subgroup_closure, G, xs, normal=True)
    brute = t.call("engine.centralizer", cx.centralizer, G, H.ids)
    _check(closed == brute, f"centralizer: closed form {desc.kind} has order "
                            f"{len(closed)}, brute force {len(brute)}")
    return [desc.kind, len(H), len(brute)]


def _richardson(cx, t, G, word):
    (w,) = _elements(cx, t, G, [word])
    u, subset = t.call("structure.richardson_form", cx.richardson_form, G, w)
    w0, sigma = t.call("deodhar.longest_element", cx.longest_element, G, subset)
    _check(t.call("engine.element", G.conj, u, w) == w0, "richardson: u w u^-1 != w0(I)")
    _check(all(a == b for a, b in sigma.items()), "richardson: w0(I) is not central in W_I")
    return [list(subset), G.length(w0)]


def op_core(op, cx, t, state):
    g, G = state.group(cx, t, op.params["type"])
    return _core(cx, t, g, G, op.params["subset"])


def op_centralizer(op, cx, t, state):
    g, G = state.group(cx, t, op.params["type"])
    return _centralizer(cx, t, g, G, op.params["involutions"])


def op_richardson(op, cx, t, state):
    _, G = state.group(cx, t, op.params["type"])
    return _richardson(cx, t, G, op.params["word"])


def op_longest(op, cx, t, state):
    g, G = state.group(cx, t, op.params["type"])
    subset = op.params["subset"]
    w0, sigma = t.call("deodhar.longest_element", cx.longest_element, G, subset)
    # Oracle: l(w0(I)) is the number of positive roots supported on I,
    # counted from the root table; w0(I) is an involution that every
    # generator of I shortens.
    outside = [i for i, v in enumerate(g.vertices) if v not in subset]
    pos = G.table.roots[:G.table.n_positive]
    want = int((abs(pos[:, outside]) < 1e-9).all(axis=1).sum()) if outside else len(pos)
    length = G.length(w0)
    _check(length == want, f"longest: l(w0) = {length}, {want} positive roots on I")
    _check(t.call("engine.element", G.mult, w0, w0) == 0, "longest: w0 is not an involution")
    for s in subset:
        ws = t.call("engine.element", G.mult, w0, G.generator(s))
        _check(G.length(ws) == length - 1, f"longest: {s} does not shorten w0")
    return [length, sorted(sigma.items())]


def op_deodhar(op, cx, t, state):
    g, G = state.group(cx, t, op.params["type"])
    dec = t.call("deodhar.deodhar_decompose", cx.deodhar_decompose, G, g.vertices)
    w0, _ = t.call("deodhar.longest_element", cx.longest_element, G, g.vertices)
    _check(t.call("engine.element", G.mult_many, dec.reflections) == w0,
           "deodhar: the reflections do not multiply to w0")
    for i, a in enumerate(dec.reflections):
        for b in dec.reflections[i + 1:]:
            _check(t.call("engine.element", G.mult, a, b)
                   == t.call("engine.element", G.mult, b, a),
                   "deodhar: two reflections do not commute")
    _check((dec.length - G.length(w0)) % 2 == 0, "deodhar: parity differs from l(w0)")
    return [dec.length, [list(k) for k in dec.generator_sequence]]


def op_roots(op, cx, t, state):
    name = op.params["type"]
    g = t.call("graph.parse_graph", cx.parse_graph, cat.cox_text(name))
    table = t.call("rootspace.enumerate_roots", cx.enumerate_roots, g)
    t.add("rootspace.roots", len(table))
    want = cat.positive_roots(name)
    _check(table.n_positive == want and len(table) == 2 * want,
           f"roots: {table.n_positive} positive roots, catalog says {want}")
    return table.n_positive


def op_deodhar_table(op, cx, t, state):
    name = op.params["type"]
    g = t.call("graph.parse_graph", cx.parse_graph, cat.cox_text(name))
    table = t.call("rootspace.enumerate_roots", cx.enumerate_roots, g)
    t.add("rootspace.roots", len(table))
    root_ids, _, subsets, _ = t.call("deodhar.decompose_on_table", cx.decompose_on_table,
                                     table, g.vertices)
    for i, a in enumerate(root_ids):
        for b in root_ids[i + 1:]:
            _check(abs(table.inner(a, b)) < 1e-9, "deodhar_table: roots not orthogonal")
    _check((len(root_ids) - cat.positive_roots(name)) % 2 == 0,
           "deodhar_table: parity differs from l(w0)")
    return [len(root_ids), [list(k) for k in subsets[1:]]]


def op_cli(op, cx, t, state):
    from coxtools import cli

    path = state.cox_file(op.params["types"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = t.call("cli.run", cli.run, [op.params["command"], str(path), "--json"])
    payload = json.loads(out.getvalue())
    want = op.expect[1]
    return [code, {k: payload.get(k) for k in want}]


def op_element(op, cx, t, state):
    _, G = state.group(cx, t, op.params["type"])
    el = lambda fn, *a: t.call("engine.element", fn, *a)  # noqa: E731
    a, b = _elements(cx, t, G, op.params["words"])
    c = el(G.conj, a, b)
    word = el(G.word, c)
    _check(el(G.from_word, word) == c, "element: word(c) does not spell c")
    _check(len(word) == G.length(c), "element: word(c) is not reduced")
    _check(el(G.mult, a, el(G.inv, a)) == G.identity, "element: a a^-1 != 1")
    order = el(G.element_order, c)
    _check(order == el(G.element_order, b), "element: conjugation changed the order")
    return [len(word), order]


def _find_isomorphism(cx, t, A, B, **kwargs):
    maps = t.call("engine.find_isomorphism", cx.find_isomorphism, A, B, **kwargs)
    t.add("engine.find_isomorphism.maps", len(maps))
    return maps


def op_aut(op, cx, t, state):
    """`coxtools aut --verify`: closed-form |Aut| against brute force."""
    _, G = state.group(cx, t, op.params["types"])
    factors = t.call("isomorph.admissible_factor_handles", cx.admissible_factor_handles, G)
    dec = t.call("isomorph.DirectDecomposition", cx.DirectDecomposition.of, G, factors)
    budget = t.call("isomorph.aut_decomposition", cx.aut_decomposition, dec, brute=True)
    _check(budget.brute_order == budget.aut_order and budget.identity_holds(),
           f"aut: budget {budget.aut_order}, brute force {budget.brute_order}")
    return [budget.h1, budget.h2, budget.h3, budget.h4, budget.aut_order]


def op_allmaps(op, cx, t, state):
    """Brute |Aut| on the whole group; a map list with repeats or a
    missing identity is a wrong answer."""
    _, G = state.group(cx, t, op.params["types"])
    maps = _find_isomorphism(cx, t, G, G, all_maps=True)
    distinct = {tuple(m) for m in maps}
    _check(len(distinct) == len(maps), "allmaps: repeated automorphism")
    _check(tuple(range(len(G))) in distinct, "allmaps: identity map missing")
    return len(maps)


def op_iso(op, cx, t, state):
    """`coxtools isomorphic --verify`: the decider against brute force."""
    ga, Ga = state.group(cx, t, op.params["a"])
    gb, Gb = state.group(cx, t, op.params["b"])
    verdict = t.call("isomorph.coxeter_isomorphic", cx.coxeter_isomorphic, ga, gb)
    found = bool(_find_isomorphism(cx, t, Ga, Gb))
    _check(found == (verdict == "YES"),
           f"iso: decider {verdict}, brute force {'found' if found else 'found no'} map")
    return verdict


def op_hommonoid(op, cx, t, state):
    _, G = state.group(cx, t, op.params["types"])
    homs = t.call("hommonoid.central_homs", cx.central_homs, G)
    f, g = (homs[int(x * len(homs))] for x in op.params["pick"])
    h = t.call("hommonoid.star", cx.star, f, g)
    _check(h.check_homomorphism(), "hommonoid: f*g is not a central hom")
    flats = [t.call("hommonoid.flat", cx.flat, x) for x in (f, g, h)]
    # flat turns * into composition: flat(f*g) = flat(f) . flat(g).
    _check(flats[2] == tuple(flats[0][x] for x in flats[1]),
           "hommonoid: flat(f*g) != flat(f) . flat(g)")
    inv = [t.call("hommonoid.is_invertible", cx.is_invertible, x) for x in homs]
    for x, ok in zip(homs, inv):
        if ok:
            _check(len(set(cx.flat(x))) == len(G), "hommonoid: invertible f, flat not bijective")
    return [len(homs), sum(inv)]


KINDS = {
    "core": op_core, "centralizer": op_centralizer, "richardson": op_richardson,
    "longest": op_longest, "deodhar": op_deodhar, "roots": op_roots,
    "deodhar_table": op_deodhar_table, "cli": op_cli, "element": op_element,
    "aut": op_aut, "allmaps": op_allmaps, "iso": op_iso, "hommonoid": op_hommonoid,
}


def executor(cx):
    """The function the harness calls for each op."""
    def execute(op: Op, state, t):
        return KINDS[op.kind](op, cx, t, state)
    return execute
