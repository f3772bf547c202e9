"""Command line front end.

Every command emits a JSON report with a versioned schema: the inputs
echoed under "config", the mathematical results under "report", and
timing metadata under "meta".  Reports for the same config and seed are
byte-identical apart from "meta", which is the only field carrying
timestamps.

A command `cmd_*(args)` returns `(config, report, summary, ok)` and
prints no report.  `main` alone times it, prints its summary line
unless `--quiet`, writes the report through `_emit` and exits 0 when
every verdict passed, 2 when a mathematical verdict failed (a
counterexample where none should exist, a mismatch between independent
computations), and 1 for usage and IO problems, raised as package, OS
or JSON errors.  A stdout closed by its reader changes no exit code.
Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from random import Random

import numpy as np

from .catalog import FAMILY_BUILDERS, named_family
from .closure import (
    check_closure_bound,
    closure_of,
    compare_with_structural,
    family_generators,
    minimal_window,
)
from .constrained import EMPTY_IDEAL, FIN_IDEAL, ideal_escape_witness, pivot_extension
from .descriptors import SetDescriptor
from .errors import (BudgetExceededError, InvsemiError, NotGeneratedError, ParseError,
                     WindowMismatchError)
from .families import (
    BlockFamily,
    chain_capacity_by_enumeration,
    chain_capacity_matrix,
    chain_certificates,
    factorize,
    is_generated,
    stratum_options,
    verify_chain,
    verify_factorization,
)
from .symbolic import classify, fin_map, format_sym, parse_sym
from .topology import (
    isolated_inverse_check,
    random_basic_open,
    shared_identity_interior_probe,
    verify_rank_one_certificate,
)


def _at_least(name: str, least: int):
    """An argparse type for a count `name` that must be at least `least`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be at least {least}, got {value}")
        return value

    parse.__name__ = name  # argparse names the type in "invalid ... value"
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_family(spec: str) -> BlockFamily:
    """A catalog name (the part before any ':') names a catalog family,
    whatever files the working directory holds; any other existing path
    is read as a JSON family file, and a missing one is an unknown name."""
    if spec.partition(":")[0] in FAMILY_BUILDERS or not os.path.exists(spec):
        return named_family(spec)
    with open(spec, "r", encoding="utf-8") as fh:
        return BlockFamily.from_config(json.load(fh))


def _emit(args, config: dict, report: dict, started: float) -> None:
    doc = {
        "schema": 1,
        "command": args.report_command,
        "config": config,
        "report": report,
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "elapsed_s": round(time.monotonic() - started, 3),
        },
    }
    text = _report_text(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if not args.quiet:
            print(f"report written to {args.out}")
    else:
        print(text)


def _report_text(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)`, byte for byte, except
    that a key that is not a `str` raises `TypeError` instead of being
    converted.  With `indent`, `json.dumps` takes its pure-Python encoder,
    whose nested closures form a reference cycle per call; this writer
    appends to one list through a module-level function and leaves none."""
    out: list[str] = []
    _write_json(doc, out, "\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii  # the escaper json.dumps uses


def _write_json(o, out: list[str], newline: str) -> None:
    # the type tests run in the order of json.encoder's
    if isinstance(o, str):
        out.append(_escape(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        sep = inner
        for item in o:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        out.append("{")
        sep = inner
        for key, value in sorted(o.items()):
            out.append(f"{sep}{_escape(key)}: ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


def _trace(args, message: str) -> None:
    if args.trace:
        print(message, file=sys.stderr)


def _write_csv(path: str, matrix, header: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([""] + header) + "\n")
        for name, row in zip(header, matrix):
            cells = ["" if v is None else str(v) for v in row]
            fh.write(",".join([name] + cells) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_family_check(args) -> tuple[dict, dict, str, bool]:
    fam = _load_family(args.family)
    b = len(fam.blocks)
    matrix = fam.intersection_matrix()
    off = [matrix[i][j] for i in range(b) for j in range(b) if i != j]
    uniform = off[0] if len(set(off)) == 1 else None
    report = {
        "name": fam.name,
        "blocks": [blk.to_text() for blk in fam.blocks],
        "pairwise_overlaps": matrix,
        "almost_disjoint": True,  # construction rejects infinite overlaps
        "uniform_overlap": uniform,
        "max_overlap": max(off),
    }
    if args.csv:
        _write_csv(args.csv, matrix, [f"B{i}" for i in range(b)])
    shape = f"uniform overlap {uniform}" if uniform is not None else "non-uniform overlaps"
    summary = f"{fam.name or 'family'}: {b} blocks, max overlap {max(off)}, {shape}"
    return {"family": args.family}, report, summary, True


def cmd_closure_run(args) -> tuple[dict, dict, str, bool]:
    fam = _load_family(args.family)
    window = args.window or minimal_window(fam, chain_capacity_matrix(fam))
    _trace(args, f"window {window}")
    gens = family_generators(fam, window, sparse=args.sparse)
    result = closure_of(gens, max_elements=args.max)
    strata = _stratum_counts(result, fam)
    report = {
        "window": window,
        "generators": len(gens),
        "elements": result.size(),
        "closed": result.closed,
        "rounds": len(result.frontier_sizes),
        "frontier_sizes": list(result.frontier_sizes),
        "stratum_counts": strata,
    }
    ok = True
    if args.compare:
        diff = compare_with_structural(result, fam)
        report["diff"] = {
            "matches": diff.matches,
            "closure_size": diff.closure_size,
            "structural_size": diff.structural_size,
            "missing": [m.format_literal() for m in diff.missing[:10]],
            "extra": [m.format_literal() for m in diff.extra[:10]],
        }
        if not diff.matches:
            if not result.closed:
                # the maps the prediction lacks may lie past the budget
                raise BudgetExceededError(
                    f"the closure stopped at --max {args.max} before it closed, "
                    "so its structural mismatch is no counterexample")
            least = minimal_window(fam, chain_capacity_matrix(fam))
            if window < least:
                # the prediction routes through waypoints the window lacks
                raise WindowMismatchError(
                    f"window {window} is below the minimal window {least} of this "
                    "family, so its structural mismatch is no counterexample")
            ok = False
    config = _family_config(args, window=window, sparse=args.sparse, max=args.max,
                            compare=args.compare)
    summary = (f"closure: {result.size()} elements in {len(result.frontier_sizes)} "
                f"rounds (closed: {result.closed})")
    return config, report, summary, ok


def _stratum_counts(result, fam: BlockFamily) -> dict[str, int]:
    """The closure's elements per stratum, counted from their rows:
    `empty`, `group[i]` for a permutation of block i's points below the
    window, `rank{k}[i,j]` for a rank-k map from block i into block j,
    else `other`.  i and j are the first blocks holding the whole domain,
    the whole image or both."""
    rows = result.rows
    inside = np.zeros((result.window, len(fam.blocks)), dtype=bool)  # point x in block i
    for i, blk in enumerate(fam.blocks):
        inside[blk.below(result.window), i] = True
    defined = rows >= 0
    images = np.zeros_like(defined)
    images[np.nonzero(defined)[0], rows[defined]] = True
    # a block holds a point set when no point of the set lies outside it
    dom_in, img_in = ~(defined @ ~inside), ~(images @ ~inside)
    rank = defined.sum(axis=1)
    group = dom_in & img_in & (rank[:, None] == inside.sum(axis=0))
    first = [np.where(m.any(axis=1), m.argmax(axis=1), -1) for m in (group, dom_in, img_in)]
    kinds, tally = np.unique(np.stack([rank, *first], axis=1), axis=0, return_counts=True)
    counts: dict[str, int] = {}
    for (k, g, i, j), n in zip(kinds.tolist(), tally.tolist()):
        key = "empty" if k == 0 else f"group[{g}]" if g >= 0 else (
            f"rank{k}[{i},{j}]" if i >= 0 and j >= 0 else "other")
        counts[key] = counts.get(key, 0) + n
    return dict(sorted(counts.items()))


def cmd_chains(args) -> tuple[dict, dict, str, bool]:
    fam = _load_family(args.family)
    rows = chain_certificates(fam)
    dp = [[cert.m for cert in row] for row in rows]
    report = {"capacity": dp}
    ok = True
    if args.check:
        oracle = chain_capacity_by_enumeration(fam)
        report["oracle"] = oracle
        report["oracle_agrees"] = ok = oracle == dp
    report["certificates"] = certs = [
        {"i": c.i, "j": c.j, "m": c.m, "interior": list(c.interior),
         "verified": verify_chain(fam, c)}
        for row in rows for c in row
    ]
    ok = ok and all(c["verified"] for c in certs)
    if args.csv:
        _write_csv(args.csv, dp, [f"B{i}" for i in range(len(dp))])
    return _family_config(args, check=args.check), report, f"capacity matrix: {dp}", ok


def cmd_stratify(args) -> tuple[dict, dict, str, bool]:
    fam = _load_family(args.family)
    f = parse_sym(args.element, fam.blocks)
    tag = classify(f, fam.blocks)
    options = stratum_options(f, fam) if tag.kind == "finite" else []
    generated = is_generated(f, fam)
    report = {
        "element": format_sym(f, fam.blocks),
        "kind": tag.kind,
        "stratum": {"i": tag.i, "j": tag.j, "rank": tag.k},
        "stratum_options": [list(o) for o in options],
        "generated": generated,
    }
    summary = (f"{format_sym(f, fam.blocks)}: {tag.kind} "
                f"(i={tag.i}, j={tag.j}, rank={tag.k}), generated: {generated}")
    return _family_config(args, element=args.element), report, summary, True


def cmd_factorize(args) -> tuple[dict, dict, str, bool]:
    fam = _load_family(args.family)
    f = parse_sym(args.element, fam.blocks)
    config = _family_config(args, element=args.element)
    try:
        factors = factorize(f, fam)
    except NotGeneratedError as e:
        return config, {"generated": False, "reason": str(e)}, f"not generated: {e}", False
    ok = verify_factorization(f, factors, fam)
    report = {
        "generated": True,
        "factors": [format_sym(g, fam.blocks) for g in factors],
        "recomposes": bool(ok),
    }
    return config, report, f"{len(factors)} factors, recomposes: {ok}", ok


def cmd_verify_closure_bound(args) -> tuple[dict, dict, str, bool]:
    fam = _load_family(args.family)
    rep = check_closure_bound(fam, args.bound, args.window)
    verdict_ok = (rep.satisfied and rep.closed) or (
        not rep.satisfied and rep.witness is not None
        and rep.witness["rank"] > args.bound)
    report = {
        "bound": rep.n,
        "max_overlap": rep.max_overlap,
        "within_bound": rep.satisfied,
        "union_closed": rep.closed,
        "window": rep.window,
        "products_checked": rep.products_checked,
        "bad_pair": list(rep.bad_pair) if rep.bad_pair else None,
        "witness": rep.witness,
        "verdict_ok": verdict_ok,
    }
    if rep.satisfied:
        summary = (f"overlaps within {args.bound}: union closed = {rep.closed} "
                    f"({rep.products_checked} products)")
    else:
        summary = (f"overlap {rep.max_overlap} exceeds {args.bound}: escape "
                    f"witness {rep.witness['composite'] if rep.witness else None}")
    return _family_config(args, bound=args.bound, window=args.window), report, summary, verdict_ok


def cmd_verify_ideal_witness(args) -> tuple[dict, dict, str, bool]:
    ideal = FIN_IDEAL if args.ideal == "fin" else EMPTY_IDEAL
    pivot = SetDescriptor.from_text(args.pivot)
    try:
        _, extended = pivot_extension(ideal, pivot)
    except ValueError as e:
        raise ParseError(f"--pivot {args.pivot!r}: {e}") from None
    rng = Random(args.seed)
    trials = []
    all_ok = True
    for t in range(args.trials):
        v = random_basic_open(rng)
        w = ideal_escape_witness(v, ideal, pivot)
        trials.append({
            "open": w.open_text,
            "element": w.element_text,
            "clauses": dict(w.verdicts),
            "holds": w.holds,
        })
        all_ok = all_ok and w.holds
        _trace(args, f"trial {t}: {w.holds}")
    report = {
        "ideal": args.ideal,
        "pivot": pivot.to_text(),
        "extended_ideal": extended.describe(),
        "trials": trials,
        "all_hold": all_ok,
    }
    config = {"ideal": args.ideal, "pivot": args.pivot, "trials": args.trials,
              "seed": args.seed}
    summary = f"{args.trials} opens, witness clauses all hold: {all_ok}"
    return config, report, summary, all_ok


def cmd_verify_pettis_witness(args) -> tuple[dict, dict, str, bool]:
    try:
        windows = tuple(int(w) for w in args.windows.split(","))
    except ValueError:
        raise ParseError(f"--windows {args.windows!r}: expected comma-separated "
                         "integers") from None
    canonical = [(1, 0), (0, 1), (1, 2)]
    top = max(max(pair) for pair in canonical)
    if min(windows) <= top:
        raise ParseError(f"--windows must each exceed {top}, the largest "
                         f"point of the certified pairs {canonical}")

    probe = shared_identity_interior_probe(args.trials, args.seed)
    certs = []
    certs_ok = True
    for pair in canonical:
        chk = verify_rank_one_certificate(fin_map([pair]), windows)
        certs.append({
            "pair": list(pair),
            "certificate": chk.certificate.describe(),
            "logic_singleton": chk.logic_singleton,
            "windowed": {str(w): ok for w, ok in chk.windowed_ok},
            "ok": chk.ok,
        })
        certs_ok = certs_ok and chk.ok

    contrast = isolated_inverse_check([fin_map([(0, 1)])])[0]
    contrast_ok = (contrast.element_isolated and contrast.inverse_isolated
                   and not contrast.product_isolated)

    all_ok = probe.product_is_sole and probe.all_escaped and certs_ok and contrast_ok
    report = {
        "product_set": [format_sym(probe.product_member)],
        "product_is_shared_identity": probe.product_is_sole,
        "interior_probe": {
            "trials": probe.trials,
            "all_escaped": probe.all_escaped,
            "samples": [
                {"open": d, "escape": e} for d, e in probe.escapes[:5]
            ],
        },
        "isolation_certificates": certs,
        "inverse_contrast": {
            "element_isolated": contrast.element_isolated,
            "inverse_isolated": contrast.inverse_isolated,
            "product": format_sym(contrast.product),
            "product_isolated": contrast.product_isolated,
            "product_schema": contrast.product_schema,
        },
        "all_ok": all_ok,
    }
    summary = (f"product collapses: {probe.product_is_sole}; "
                f"{probe.trials} opens escaped: {probe.all_escaped}; "
                f"certificates ok: {certs_ok}")
    # the witness lives in the common-point rule's semigroup (topology.py)
    config = {"family": "common-point", "trials": args.trials, "seed": args.seed,
              "windows": args.windows}
    return config, report, summary, all_ok


def _family_config(args, **extra) -> dict:
    cfg = {"family": args.family}
    cfg.update({k: v for k, v in extra.items() if v is not None})
    return cfg


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.  Sharing it is
    safe: every `parse_args` call returns a fresh namespace, and argparse
    looks up `sys.stdout` and `sys.stderr` when it prints, not when the
    parser is built."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to this path")
    common.add_argument("--quiet", action="store_true",
                        help="suppress summary lines")
    common.add_argument("--trace", action="store_true",
                        help="progress notes on stderr")

    p = _Parser(prog="invsemi",
                description="exact workbench for partial bijections of the "
                            "naturals: block families, closures, chain "
                            "capacities, factorization, convergence witnesses")
    sub = p.add_subparsers(dest="command", required=True)

    fc = sub.add_parser("family-check", parents=[common],
                        help="overlap matrix and family sanity")
    fc.add_argument("--family", required=True, help="catalog name or JSON path")
    fc.add_argument("--csv", help="write the overlap matrix as CSV")
    fc.set_defaults(func=cmd_family_check, report_command="family-check")

    cl = sub.add_parser("closure", help="closure engine")
    clsub = cl.add_subparsers(dest="closure_cmd", required=True)
    run = clsub.add_parser("run", parents=[common],
                           help="close the block groups under "
                                "composition and inverse")
    run.add_argument("--family", required=True)
    run.add_argument("--window", type=_at_least("window", 1), default=None)
    run.add_argument("--max", type=_at_least("max", 0), default=200000,
                     help="element budget before giving up")
    run.add_argument("--sparse", action="store_true",
                     help="generate each group from a transposition and a cycle")
    run.add_argument("--compare", action="store_true",
                     help="diff the closure against the structural union")
    run.set_defaults(func=cmd_closure_run, report_command="closure run")

    ch = sub.add_parser("chains", parents=[common], help="chain capacity matrix and certificates")
    ch.add_argument("--family", required=True)
    ch.add_argument("--check", action="store_true",
                    help="cross-check the chain search against literal "
                         "walk enumeration")
    ch.add_argument("--csv", help="write the capacity matrix as CSV")
    ch.set_defaults(func=cmd_chains, report_command="chains")

    st = sub.add_parser("stratify", parents=[common], help="classify an element against a family")
    st.add_argument("--family", required=True)
    st.add_argument("--element", required=True,
                    help="element literal, e.g. \"fin(1->7)\" or \"id(B0)\"")
    st.set_defaults(func=cmd_stratify, report_command="stratify")

    fz = sub.add_parser("factorize", parents=[common],
                        help="write an element as a product of block "
                             "permutations and block identities")
    fz.add_argument("--family", required=True)
    fz.add_argument("--element", required=True)
    fz.set_defaults(func=cmd_factorize, report_command="factorize")

    ve = sub.add_parser("verify", help="theorem-shaped checks")
    vesub = ve.add_subparsers(dest="verify_cmd", required=True)

    cb = vesub.add_parser("closure-bound", parents=[common],
                          help="the rank-bounded union is a subsemigroup "
                               "exactly when every overlap fits the bound")
    cb.add_argument("--family", required=True)
    cb.add_argument("--bound", type=_at_least("bound", 0), required=True)
    cb.add_argument("--window", type=_at_least("window", 1), default=None)
    cb.set_defaults(func=cmd_verify_closure_bound, report_command="verify closure-bound")

    iw = vesub.add_parser("ideal-witness", parents=[common],
                          help="escape a prescribed ideal inside random "
                               "basic opens")
    iw.add_argument("--ideal", choices=["fin", "empty"], default="fin")
    iw.add_argument("--pivot", default="tail mod 2 residues [0]",
                    help="set descriptor text for the extending set")
    iw.add_argument("--trials", type=_at_least("trials", 0), default=50)
    iw.add_argument("--seed", type=int, required=True)
    iw.set_defaults(func=cmd_verify_ideal_witness, report_command="verify ideal-witness")

    pw = vesub.add_parser("pettis-witness", parents=[common],
                          help="the inverse-product set around the shared "
                               "identity has empty interior")
    pw.add_argument("--trials", type=_at_least("trials", 0), default=100)
    pw.add_argument("--seed", type=int, required=True)
    pw.add_argument("--windows", default="12,20,28")
    pw.set_defaults(func=cmd_verify_pettis_witness, report_command="verify pettis-witness")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    started = time.monotonic()
    try:
        config, report, summary, ok = args.func(args)
        try:
            if not args.quiet:
                print(summary)
            _emit(args, config, report, started)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout early, which is no usage error;
            # devnull takes the interpreter's last flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (InvsemiError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
