"""Command-line front end.

Exit codes: 0 for a successful (or positive) answer, 1 for a negative
answer (NO / decomposable / not verified), 2 for errors, including an
oracle mismatch under --verify (a mismatch is a bug, never a result).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from typing import Optional, Sequence

import numpy as np

from . import classify as _classify
from .classify import INFINITE, classify_components
from .deodhar import decompose_on_table, longest_word
from .engine import DEFAULT_GROUP_CAP, enumerate_group, find_isomorphism
from .errors import CoxeterError, VerificationError
from .graph import CoxeterGraph, parse_graph
from .isomorph import (
    DirectDecomposition,
    admissible_factor_handles,
    aut_decomposition,
    aut_order_symproduct,
    coxeter_isomorphic,
)
from .rootspace import enumerate_roots, format_table
from .structure import (
    CASES,
    center_direct_factor,
    centralizer_of_normal_closure,
    core_of_normalizer,
    is_directly_indecomposable,
    richardson_form,
)
from .suites import ALL_SUITES, run_suites


def _load(path: str) -> CoxeterGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _subset(arg: Optional[str]) -> list[str]:
    return [s for s in (arg or "").split(",") if s]


def _emit(args, text: str, payload: dict, code: int = 0) -> int:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return code


def _order_str(o) -> str:
    return "infinite" if o == INFINITE else str(o)


def cmd_classify(args) -> int:
    g = _load(args.file)
    labels = classify_components(g)
    order = _classify.graph_order(g)
    names = [str(t) for t in labels]
    text = " x ".join(names) if names else "(empty)"
    return _emit(args, f"{text} (order {_order_str(order)})",
                 {"components": names, "order": None if order == INFINITE else order})


def cmd_order(args) -> int:
    g = _load(args.file)
    order = _classify.graph_order(g)
    return _emit(args, _order_str(order),
                 {"order": None if order == INFINITE else order})


def cmd_roots(args) -> int:
    g = _load(args.file)
    table = enumerate_roots(g, cap=args.cap)
    payload = {
        "n_positive": table.n_positive,
        "roots": [[float(c) for c in row] for row in table.roots],
    }
    return _emit(args, format_table(table).rstrip("\n"), payload)


def cmd_longest(args) -> int:
    """w0 of W_I from W_I's own root table (``longest_word``); as for
    ``core``, an empty --subset is I = {}, and only no --subset is all of S."""
    g = _load(args.file)
    sub = g.subgraph(g.vertices if args.subset is None else _subset(args.subset))
    word, _, sigma = longest_word(enumerate_roots(sub, cap=args.cap), sub.vertices)
    text = f"w0 = {' '.join(word) or '(identity)'}\nlength {len(word)}\nsigma: " + \
        " ".join(f"{s}->{t}" for s, t in sigma.items())
    return _emit(args, text, {"word": word, "length": len(word), "sigma": sigma})


def cmd_deodhar(args) -> int:
    """The decomposition on W_I's own root table, each root padded with
    zeros to the whole graph's coordinates."""
    g = _load(args.file)
    sub = g.subgraph(g.vertices if args.subset is None else _subset(args.subset))
    table = enumerate_roots(sub, cap=args.cap)
    root_ids, _, subsets, _ = decompose_on_table(table, sub.vertices)
    padded = np.zeros((len(root_ids), len(g)))
    padded[:, [g.index(v) for v in sub.vertices]] = table.roots[root_ids]
    roots = padded.tolist()
    lines = ["roots:"] + ["  " + " ".join(f"{c:.12g}" for c in row) for row in roots]
    seq = " ".join("{" + ",".join(k) + "}" for k in subsets[1:])
    lines.append(f"generator sequence: {seq}")
    return _emit(args, "\n".join(lines), {
        "roots": roots, "generator_sequence": [list(k) for k in subsets[1:]],
    })


def cmd_center_factor(args) -> int:
    g = _load(args.file)
    labels = classify_components(g)
    if len(labels) != 1:
        raise CoxeterError("center-factor expects a connected graph")
    decision = center_direct_factor(labels[0])
    code = 0 if decision.proper_factor else 1
    return _emit(args, str(decision), {
        "type": str(labels[0]),
        "center_trivial": decision.center_trivial,
        "proper_factor": decision.proper_factor,
        "complement": None if decision.complement is None else str(decision.complement),
        "complement_is_even_subgroup": decision.complement_is_even_subgroup,
    }, code)


def cmd_indecomposable(args) -> int:
    g = _load(args.file)
    labels = classify_components(g)
    if len(labels) != 1:
        raise CoxeterError("indecomposable expects a connected graph")
    answer = is_directly_indecomposable(labels[0])
    text = "directly indecomposable" if answer else "directly decomposable"
    note = None
    if labels[0].family == "Unknown":
        note = ("any irreducible Coxeter group of infinite order is directly "
                "indecomposable as an abstract group (Nuida, Comm. Algebra 34 (2006))")
        text += f": {note}"
    return _emit(args, text,
                 {"type": str(labels[0]), "indecomposable": answer, "note": note},
                 0 if answer else 1)


def _emit_case(args, G, desc, unnumbered: tuple[str, ...] = ()) -> int:
    """Print a closed-form subgroup: its case from ``CASES``, with the
    paper's case numeral unless its kind is in ``unnumbered``, its order
    and, with --words, its elements as reduced words."""
    resolved = desc.resolve(G)
    name, numeral = CASES[desc.kind]
    case = name if numeral is None or desc.kind in unnumbered else f"case ({numeral}): {name}"
    text = f"{case}, order {len(resolved)}"
    payload = {"case": desc.kind, "subgroup_order": len(resolved),
               "element_ids": resolved.sorted_ids()}
    if args.words:
        payload["words"] = ["-".join(G.word(a)) or "e" for a in resolved.sorted_ids()]
        text += "\n" + " ".join(payload["words"])
    return _emit(args, text, payload)


def cmd_core(args) -> int:
    g = _load(args.file)
    G = enumerate_group(g, cap=args.cap)
    desc = core_of_normalizer(g, _subset(args.subset), verify=args.verify, G=G)
    return _emit_case(args, G, desc)


def cmd_centralizer(args) -> int:
    g = _load(args.file)
    G = enumerate_group(g, cap=args.cap)
    xs = [G.from_word(w.split("-")) for w in args.involution]
    desc = centralizer_of_normal_closure(g, xs, verify=args.verify, G=G)
    # The centralizer names its last case Z(W), without a numeral.
    return _emit_case(args, G, desc, unnumbered=("center",))


def cmd_richardson(args) -> int:
    g = _load(args.file)
    G = enumerate_group(g, cap=args.cap)
    w = G.from_word(args.word.split("-"))
    u, subset = richardson_form(G, w)
    text = f"u = {' '.join(G.word(u)) or '(identity)'}\nI = {{{','.join(subset)}}}"
    return _emit(args, text, {
        "u_word": list(G.word(u)), "subset": list(subset),
    })


def cmd_isomorphic(args) -> int:
    g1, g2 = _load(args.file_a), _load(args.file_b)
    verdict = coxeter_isomorphic(g1, g2)
    payload = {"verdict": verdict}
    witness = None
    if args.verify:
        # An infinite group, the only source of UNKNOWN, or one above
        # the cap raises here, naming it.
        maps = find_isomorphism(enumerate_group(g1, cap=args.cap),
                                enumerate_group(g2, cap=args.cap),
                                cap=args.cap)
        witness = bool(maps)
        if witness != (verdict == "YES"):
            raise VerificationError(
                f"decider said {verdict} but brute force "
                f"{'found an isomorphism' if witness else 'found none'}"
            )
        payload["witness_found"] = witness
    text = verdict if witness is None else f"{verdict} (oracle agrees)"
    return _emit(args, text, payload, 0 if verdict != "NO" else 1)


def cmd_aut(args) -> int:
    g = _load(args.file)
    G = enumerate_group(g, cap=args.cap)
    dec = DirectDecomposition.of(G, admissible_factor_handles(G))
    budget = aut_decomposition(dec, brute=args.verify, cap=args.cap)
    text = (f"|Aut| = {budget.aut_order} "
            f"(|H1|={budget.h1}, |H2|={budget.h2}, |H3|={budget.h3}, |H4|={budget.h4})")
    if args.verify:
        text += f"; brute force agrees ({budget.brute_order})"
    return _emit(args, text, {
        "aut_order": budget.aut_order, "h1": budget.h1, "h2": budget.h2,
        "h3": budget.h3, "h4": budget.h4, "brute_order": budget.brute_order,
    })


def cmd_aut_order(args) -> int:
    items = args.sym.split(",") if args.sym else []  # '' is the empty product
    if "" in items:
        raise ValueError(f"--sym item {items.index('') + 1} is empty")
    value = aut_order_symproduct([int(x) for x in items])
    return _emit(args, str(value), {"aut_order": value})


def cmd_verify(args) -> int:
    names = args.suite or ["all"]
    results = run_suites(names, seed=args.seed)
    rows = []
    ok = True
    for r in results:
        rows.append(r.line())
        ok &= r.passed
    text = "\n".join(rows)
    payload = {"results": [{
        "suite": r.name, "passed": r.passed, "detail": r.detail,
        "seconds": round(r.seconds, 2), "checks": r.checks,
    } for r in results]}
    return _emit(args, text, payload, 0 if ok else 2)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="coxtools",
        description="Computational toolkit for finite Coxeter groups.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=None,
                        help="enumeration cap (default: env COXTOOLS_CAP, "
                             f"else {DEFAULT_GROUP_CAP})")
    checked = argparse.ArgumentParser(add_help=False)
    checked.add_argument("--verify", action="store_true",
                         help="cross-check against the brute-force oracle")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, *flags, **kwargs):
        p = sub.add_parser(name, parents=[common, *flags], **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("classify", cmd_classify, help="recognize the type of a .cox graph")
    p.add_argument("file")
    p = add("order", cmd_order, help="group order of a .cox graph")
    p.add_argument("file")
    p = add("roots", cmd_roots, capped, help="print the root table")
    p.add_argument("file")
    p = add("longest", cmd_longest, capped, help="longest element of a parabolic")
    p.add_argument("file")
    p.add_argument("--subset", help="comma-separated vertex names (default: all)")
    p = add("deodhar", cmd_deodhar, capped, help="reflection decomposition of w0(I)")
    p.add_argument("file")
    p.add_argument("--subset", help="comma-separated vertex names (default: all)")
    p = add("center-factor", cmd_center_factor,
            help="is the center a proper direct factor?")
    p.add_argument("file")
    p = add("indecomposable", cmd_indecomposable,
            help="is the group directly indecomposable?")
    p.add_argument("file")
    p = add("core", cmd_core, capped, checked, help="core of the normalizer of a parabolic")
    p.add_argument("file")
    p.add_argument("--subset", required=True, help="comma-separated vertex names")
    p.add_argument("--words", action="store_true", help="print elements as reduced words")
    p = add("centralizer", cmd_centralizer, capped, checked,
            help="centralizer of the normal closure of involutions")
    p.add_argument("file")
    p.add_argument("--involution", nargs="+", required=True,
                   help="involutions as dash-joined generator words, e.g. s2-s1-s2")
    p.add_argument("--words", action="store_true", help="print elements as reduced words")
    p = add("richardson", cmd_richardson, capped, help="Richardson form of an involution")
    p.add_argument("file")
    p.add_argument("--word", required=True,
                   help="involution as a dash-joined generator word")
    p = add("isomorphic", cmd_isomorphic, capped, checked, help="decide abstract isomorphism")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p = add("aut", cmd_aut, capped, checked, help="automorphism-group accounting")
    p.add_argument("file")
    p = add("aut-order", cmd_aut_order,
            help="|Aut| of a product of symmetric groups")
    p.add_argument("--sym", required=True,
                   help="multiplicities m1,m2,... of Sym_1, Sym_2, ...; '' is the empty product")
    p = add("verify", cmd_verify, help="run acceptance suites")
    p.add_argument("--suite", nargs="+", metavar="NAME",
                   help=f"suites to run: {', '.join(sorted(ALL_SUITES))} or 'all'")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    return top


def _check_limits(args) -> None:
    """Resolve --cap, where a command takes it, from the environment and
    range-check it; raises CoxeterError naming the limit."""
    if not hasattr(args, "cap"):
        return
    if args.cap is None:
        raw = os.environ.get("COXTOOLS_CAP", str(DEFAULT_GROUP_CAP))
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise CoxeterError(f"COXTOOLS_CAP must be a positive integer, got {raw!r}")
        args.cap = int(raw)
    if args.cap < 1:
        raise CoxeterError(f"--cap must be a positive integer, got {args.cap}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs as much
    as dozens of parses, and parsing leaves it unchanged."""
    return build_parser()


def run(argv: Sequence[str]) -> int:
    args = _parser().parse_args(list(argv))
    try:
        _check_limits(args)
        return args.fn(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except (CoxeterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # A closed stdout ends the process silently, as it ends head-fed
    # tools; ``run`` leaves the signal alone for in-process callers.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
