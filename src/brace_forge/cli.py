"""Command-line interface.

Exit codes: 0 success/verified, 1 property failure or counterexample,
2 input or usage error, 130 interrupted (Ctrl-C).  All structured output
goes to stdout in the document format or as line-oriented CASE reports;
timings and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import (
    BraceForgeError,
    DocumentSyntaxError,
    FiniteSkewBrace,
    PreconditionError,
    ValidationFailure,
    fmt_members,
    validate,
)
from .docio import BraceDocument, format_int_row, parse_documents, parse_int_grid, serialize_document
from .corpus import holomorph_enumerate, standard_corpus
from .ideals import (
    DEFAULT_IDEAL_CAP,
    _ideal_lists,
    as_ideal,
    ideal_masks,
    is_semiprime,
    quotient,
    semiprime_verdicts,
)
from .products import SigmaAction, semidirect, trivial_sigma, wreath
from .verify import (
    DEFAULT_CORPUS_MAX,
    DEFAULT_SIGMA_BUDGET,
    render_report,
    search_q34,
    verify_cor28_thm33,
    verify_lemma31,
    verify_lemma32,
)
from .ybe import check_braid, check_nondegenerate, solution_map

USAGE_ERROR = 2
PROPERTY_ERROR = 1
INTERRUPTED = 130   # 128 + SIGINT, as a shell reports a process killed by it


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_documents(path: str) -> list[BraceDocument]:
    docs = parse_documents(_read_text(path), check=False)
    if not docs:
        raise DocumentSyntaxError("no documents in input", line=1)
    return docs


def _load_braces(path: str) -> list[FiniteSkewBrace]:
    return [d.to_brace() for d in _load_documents(path)]  # validates each document once


def _cmd_validate(args) -> int:
    status = 0
    for doc in _load_documents(args.file):
        report = validate(doc.add, doc.circ, doc.name)
        if report.ok:
            print(f"OK order={report.order}")
        else:
            status = PROPERTY_ERROR
            print(f"INVALID order={report.order} violations={len(report.violations)}")
            for rule, (a, b, c) in report.violations:
                print(f"violation {rule} at ({a},{b},{c})")
    return status


def _cmd_ideals(args) -> int:
    """All documents' ideals are listed by one ``_ideal_lists`` call, as
    ``semiprime`` classifies them: the braces before the first one over
    the ideal cap are printed, then that one raises ``SizeCapExceeded``."""
    braces = _load_braces(args.file)
    stop = next((i for i, b in enumerate(braces) if b.order > DEFAULT_IDEAL_CAP), len(braces))
    for brace, masks in zip(braces, _ideal_lists(braces[:stop])):
        print(f"ideals {brace.name or '<unnamed>'} order={brace.order} count={len(masks)}")
        for mask in masks:
            print(fmt_members(np.flatnonzero(mask)))
    if stop < len(braces):
        ideal_masks(braces[stop])   # raises SizeCapExceeded
    return 0


def _cmd_semiprime(args) -> int:
    """All documents are classified in one ``semiprime_verdicts`` call.  An
    exhaustive check stops at the first brace over the ideal cap, after
    the verdicts of the braces before it are printed."""
    braces = _load_braces(args.file)
    stop = next((i for i, b in enumerate(braces)
                 if args.method == "exhaustive" and b.order > DEFAULT_IDEAL_CAP), len(braces))
    status = 0
    for verdict in semiprime_verdicts(braces[:stop], args.method):
        if verdict.semiprime:
            print("SEMIPRIME")
        else:
            status = PROPERTY_ERROR
            print(f"NOT SEMIPRIME witness {fmt_members(verdict.witness.members)}")
    if stop < len(braces):
        is_semiprime(braces[stop], method=args.method)   # raises SizeCapExceeded
    return status


def _cmd_quotient(args) -> int:
    braces = _load_braces(args.file)
    try:
        members = [int(tok) for tok in args.ideal.split(",") if tok.strip() != ""]
    except ValueError:
        raise PreconditionError(f"bad --ideal list {args.ideal!r}") from None
    for brace in braces:
        ideal = as_ideal(brace, members)
        q, coset_map = quotient(brace, ideal)
        print("# coset map " + format_int_row(coset_map))
        sys.stdout.write(serialize_document(q))
    return 0


def _cmd_product(args) -> int:
    braces = _load_braces(args.file)
    if len(braces) != 2:
        raise PreconditionError(f"product needs exactly 2 documents, got {len(braces)}")
    G, H = braces
    if args.kind == "semidirect":
        if args.sigma is not None:
            perms = parse_int_grid(_read_text(args.sigma), H.order, G.order, G.order)
            action = SigmaAction(G, H, perms)
        else:
            action = trivial_sigma(G, H)
        result = semidirect(G, H, action)
    else:
        result, _ = wreath(G, H)
    sys.stdout.write(serialize_document(result))
    return 0


def _cmd_ybe(args) -> int:
    status = 0
    for brace in _load_braces(args.file):
        sol = solution_map(brace)
        lines = [f"solution {brace.name}".rstrip(), f"order {sol.n}", "u"]
        lines.extend(map(format_int_row, sol.u))
        lines.append("v")
        lines.extend(map(format_int_row, sol.v))
        lines.append("end")
        print("\n".join(lines))
        if args.check:
            ok, witness = check_braid(sol)
            if ok:
                print("BRAID OK")
            else:
                status = PROPERTY_ERROR
                print(f"BRAID FAIL at {witness}")
            ok, witness = check_nondegenerate(sol)
            if ok:
                print("NONDEGENERATE OK")
            else:
                status = PROPERTY_ERROR
                print(f"NONDEGENERATE FAIL at {witness}")
    return status


def _cmd_corpus(args) -> int:
    limit = 8 if args.max_order is None else args.max_order
    if args.group is not None:
        braces = holomorph_enumerate(args.group, limit=limit)
    else:
        braces = standard_corpus(limit)
    for brace in braces:
        sys.stdout.write(serialize_document(brace))
    print(f"# {len(braces)} braces", file=sys.stderr)
    return 0


def _report_exit(reports) -> int:
    status = 0
    for report in reports:
        render_report(report, sys.stdout)
        print(f"# {report.statement} elapsed {report.elapsed:.2f}s", file=sys.stderr)
        if report.counterexamples:
            status = PROPERTY_ERROR
    return status


def _cmd_verify(args) -> int:
    if args.statement == "lemma31":
        report = verify_lemma31(base_cap=64 if args.max_order is None else args.max_order,
                                jobs=args.jobs, only=args.only)
        return _report_exit([report])
    if args.statement == "lemma32":
        report = verify_lemma32(base_max=args.max_order,
                                jobs=args.jobs, only=args.only)
        return _report_exit([report])
    reports = verify_cor28_thm33(  # cor28 or thm33
        corpus_max=8 if args.max_order is None else args.max_order,
        sigma_budget=args.sigma_budget,
        statements=(args.statement,),
        jobs=args.jobs, only=args.only)
    return _report_exit([reports[args.statement]])


def _cmd_search(args) -> int:
    max_g = 6 if args.max_order is None else args.max_order
    if max(max_g, args.max_h) > DEFAULT_CORPUS_MAX:
        print(f"# note: search q34 takes G and H from the corpus of order <= {DEFAULT_CORPUS_MAX}, "
              f"so it searches as --max-order {min(max_g, DEFAULT_CORPUS_MAX)} "
              f"--max-h {min(args.max_h, DEFAULT_CORPUS_MAX)}", file=sys.stderr)
    report = search_q34(max_g=max_g, max_h=args.max_h,
                        sigma_budget=args.sigma_budget,
                        jobs=args.jobs, only=args.only)
    return _report_exit([report])


def _positive_int(text: str) -> int:
    """argparse type for --jobs, --sigma-budget, --max-order and --max-h:
    an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brace-forge",
        description="Finite skew braces: validation, ideals, products, "
                    "Yang-Baxter solutions, and verification sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument("file", nargs="?", default="-",
                       help="input document file ('-' or omitted for stdin)")

    p = sub.add_parser("validate", help="check the skew brace axioms")
    add_file(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("ideals", help="enumerate all ideals")
    add_file(p)
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("semiprime", help="decide semiprimality")
    p.add_argument("--method", choices=("fast", "exhaustive"), default="fast")
    add_file(p)
    p.set_defaults(func=_cmd_semiprime)

    p = sub.add_parser("quotient", help="quotient by an ideal")
    p.add_argument("--ideal", required=True,
                   help="comma-separated member indices, e.g. 0,2")
    add_file(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("product", help="semidirect or wreath product of two documents")
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("semidirect", help="G x| H under an action of H on G")
    k.add_argument("--sigma", default=None,
                   help="file with |H| rows of |G| entries (defaults to the trivial action)")
    add_file(k)
    add_file(kinds.add_parser("wreath", help="G wr H"))
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("ybe", help="extract the Yang-Baxter solution map")
    p.add_argument("--check", action="store_true",
                   help="also verify the braid relation and nondegeneracy")
    add_file(p)
    p.set_defaults(func=_cmd_ybe)

    p = sub.add_parser("corpus", help="corpus construction")
    p.add_argument("action", choices=("enumerate",))
    p.add_argument("--group", default=None,
                   help="group spec like c4, s3, d4, c2xc2xc2 (omit for the "
                        "standard corpus)")
    p.add_argument("--max-order", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_corpus)

    def add_sweep_flags(p):
        p.add_argument("--max-order", type=_positive_int, default=None)
        p.add_argument("--jobs", type=_positive_int, default=1)
        p.add_argument("--sigma-budget", type=_positive_int, default=DEFAULT_SIGMA_BUDGET)
        p.add_argument("--only", default=None, help="run a single case by id")

    p = sub.add_parser("verify", help="run a statement verification sweep")
    p.add_argument("statement", choices=("lemma31", "lemma32", "cor28", "thm33"))
    add_sweep_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="counterexample search")
    p.add_argument("problem", choices=("q34",))
    p.add_argument("--max-h", type=_positive_int, default=4)
    add_sweep_flags(p)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except ValidationFailure as exc:
        report = exc.report
        print(f"invalid brace: {len(report.violations)} violations, first: "
              f"{report.violations[0]}", file=sys.stderr)
        return USAGE_ERROR
    except (BraceForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
