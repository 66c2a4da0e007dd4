"""Command-line surface.

Subcommands map one-to-one onto the library: check, classify, member,
generate, solve, diophantine, construct12, family5, search, verify.
Output goes to stdout (or --output) as plain text, JSON (one document per
invocation), or CSV (fixed header row); diagnostics go to stderr.

Exit codes are stable: 0 success or positive verdict, 1 negative verdict
(FAILS/UNDEFINED, non-member, inexact verification), 2 usage error,
3 domain or constraint error (also a result with more digits than str()
converts, in which case nothing is printed). Computational answers such as
NONE, ALL, or an empty solution set are successes, not negative verdicts.

Rationals are always serialized as "n/d" (including "/1") so every printed
value re-parses exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from . import catalog, number_theory, oracle
from .catalog import FamilyId, SolveOutcome
from .identity import (
    ALL_CASES,
    BinOp,
    CaseId,
    CheckResult,
    DomainError,
    Triple,
    Verdict,
    case_from_label,
    check,
)

__all__ = ["format_rational", "main", "parse_case", "parse_rational", "parse_triple", "run"]

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


class _UsageError(Exception):
    pass


def parse_rational(text: str) -> Fraction:
    """Parse "n/d" or "n" (optional leading minus, no whitespace)."""
    if not _RATIONAL_RE.match(text):
        raise _UsageError(f"malformed rational {text!r}; expected n or n/d")
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise _UsageError(f"rational of {len(text)} characters is too long") from None
    if d == 0:
        raise _UsageError(f"zero denominator in {text!r}")
    return Fraction(n, d)


def parse_triple(text: str) -> Triple:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"expected r1,r2,r3 but got {text!r}")
    return Triple(*(parse_rational(p) for p in parts))


def _parse_op(text: str) -> BinOp:
    try:
        return BinOp(text.strip().lower())
    except ValueError:
        raise _UsageError(
            f"unknown operation {text!r}; use add, sub, mul, or div"
        ) from None


def parse_case(text: str) -> CaseId:
    """Accept a case label ("12", "L1") or op-pair syntax ("sub/mul")."""
    try:
        return case_from_label(text)
    except KeyError:
        raise _UsageError(
            f"unknown case {text!r}; use 1..14, L1, L2, or outer/inner"
        ) from None


def format_rational(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # more digits than str() converts (sys.get_int_max_str_digits)
        raise DomainError(
            f"a result has more than {sys.get_int_max_str_digits()} digits"
            " and cannot be printed"
        ) from None


def _fmt_opt(q: Fraction | None) -> str | None:
    return None if q is None else format_rational(q)


def _triple_str(t: Triple) -> str:
    return ",".join(format_rational(q) for q in t)


def _triple_doc(t: Triple) -> dict:
    return {
        "r1": format_rational(t.r1),
        "r2": format_rational(t.r2),
        "r3": format_rational(t.r3),
    }


def _case_doc(case: CaseId) -> dict:
    return {
        "label": case.label,
        "number": case.case_number,
        "outer": case.outer.value,
        "inner": case.inner.value,
    }


def _case_plain(case: CaseId) -> str:
    return f"case {case.label} ({case.describe()})"


def _parse_sign(text: str) -> int:
    if text in ("+", "+1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise _UsageError(f"sign must be + or -, not {text!r}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise _UsageError(f"expected a boolean (0/1/true/false), got {text!r}")


def _parse_params(spec: catalog.FamilySpec, text: str | None) -> dict:
    raw: dict[str, str] = {}
    for item in (text.split(",") if text else []):
        if "=" not in item:
            raise _UsageError(f"bad parameter {item!r}; expected key=value")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    out: dict[str, object] = {}
    for key, value in raw.items():
        kind = spec.params.get(key)
        if kind is None:
            raise _UsageError(
                f"unknown parameter {key!r}; family takes {', '.join(spec.params)}"
            )
        if kind == "rational":
            out[key] = parse_rational(value)
        elif kind == "int":
            try:
                out[key] = int(value)
            except ValueError:
                raise _UsageError(f"parameter {key} must be an integer") from None
        elif kind == "sign":
            out[key] = _parse_sign(value)
        else:
            out[key] = _parse_bool(value)
    return out


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


# ---------------------------------------------------------------------------
# Output assembly


def _emit(args, doc: dict, header: list[str], rows: list[list], plain: list[str]) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(plain) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _verdict_cells(result: CheckResult) -> list:
    return [
        result.verdict.value,
        _fmt_opt(result.lhs) or "",
        _fmt_opt(result.rhs) or "",
        result.undefined_site or "",
    ]


_CHECK_HEADER = ["case", "outer", "inner", "r1", "r2", "r3",
                 "verdict", "lhs", "rhs", "undefined_site"]


def _check_row(case: CaseId, t: Triple, result: CheckResult) -> list:
    return [case.label, case.outer.value, case.inner.value,
            *(format_rational(q) for q in t), *_verdict_cells(result)]


def _result_doc(result: CheckResult) -> dict:
    return {
        "verdict": result.verdict.value,
        "lhs": _fmt_opt(result.lhs),
        "rhs": _fmt_opt(result.rhs),
        "undefined_site": result.undefined_site,
    }


def _verdict_plain(result: CheckResult) -> str:
    if result.verdict is Verdict.UNDEFINED:
        return f"UNDEFINED  site: {result.undefined_site}"
    return (
        f"{result.verdict.value}  lhs={_fmt_opt(result.lhs)}"
        f"  rhs={_fmt_opt(result.rhs)}"
    )


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> int:
    case = CaseId(_parse_op(args.outer), _parse_op(args.inner))
    t = parse_triple(args.triple)
    result = check(case, t)
    doc = {
        "command": "check",
        "case": _case_doc(case),
        "triple": _triple_doc(t),
        **_result_doc(result),
    }
    plain = [f"{_case_plain(case)}  triple {_triple_str(t)}", _verdict_plain(result)]
    _emit(args, doc, _CHECK_HEADER, [_check_row(case, t, result)], plain)
    return 0 if result.verdict is Verdict.HOLDS else 1


def _cmd_classify(args) -> int:
    t = parse_triple(args.triple)
    results = [(case, check(case, t)) for case in ALL_CASES]
    doc = {
        "command": "classify",
        "triple": _triple_doc(t),
        "results": [
            {"case": _case_doc(case), **_result_doc(result)}
            for case, result in results
        ],
    }
    rows = [_check_row(case, t, result) for case, result in results]
    plain = [f"triple {_triple_str(t)}"] + [
        f"{case.label:>3} {case.outer.value}/{case.inner.value}: {_verdict_plain(result)}"
        for case, result in results
    ]
    _emit(args, doc, _CHECK_HEADER, rows, plain)
    return 0


def _cmd_member(args) -> int:
    case = parse_case(args.case)
    t = parse_triple(args.triple)
    verdict = catalog.member(case, t)
    doc = {
        "command": "member",
        "case": _case_doc(case),
        "triple": _triple_doc(t),
        "member": verdict,
    }
    header = ["case", "outer", "inner", "r1", "r2", "r3", "member"]
    row = [case.label, case.outer.value, case.inner.value,
           *(format_rational(q) for q in t), str(verdict).lower()]
    plain = [f"{_case_plain(case)}  triple {_triple_str(t)}",
             f"member {str(verdict).lower()}"]
    _emit(args, doc, header, [row], plain)
    return 0 if verdict else 1


def _cmd_generate(args) -> int:
    case = parse_case(args.case)
    spec = catalog.family_spec(case, args.family)
    params = _parse_params(spec, args.params)
    t = catalog.generate(FamilyId(case, args.family), params)
    doc = {
        "command": "generate",
        "case": _case_doc(case),
        "family": args.family,
        "params": {k: (format_rational(v) if isinstance(v, Fraction) else v)
                   for k, v in params.items()},
        "triple": _triple_doc(t),
    }
    header = ["case", "family", "r1", "r2", "r3"]
    row = [case.label, args.family, *(format_rational(q) for q in t)]
    plain = [_triple_str(t)]
    _emit(args, doc, header, [row], plain)
    return 0


def _cmd_solve(args) -> int:
    case = parse_case(args.case)
    r1 = parse_rational(args.r1)
    r3 = parse_rational(args.r3)
    outcome = catalog.solve_r2(case, r1, r3)
    unique = not isinstance(outcome, SolveOutcome)
    doc = {
        "command": "solve",
        "case": _case_doc(case),
        "r1": format_rational(r1),
        "r3": format_rational(r3),
        "result": "unique" if unique else outcome.value,
        "r2": format_rational(outcome) if unique else None,
    }
    header = ["case", "r1", "r3", "result", "r2"]
    row = [case.label, format_rational(r1), format_rational(r3),
           doc["result"], doc["r2"] or ""]
    plain = [f"r2 = {format_rational(outcome)}" if unique else outcome.value]
    _emit(args, doc, header, [row], plain)
    return 0


def _cmd_diophantine(args) -> int:
    sols = number_theory.solve_linear_diophantine(args.p, args.q, args.t)
    doc = {
        "command": "diophantine",
        "p": args.p,
        "q": args.q,
        "t": args.t,
        "empty": sols.empty,
        "base": None if sols.empty else list(sols.base),
        "step": None if sols.empty else list(sols.step),
    }
    header = ["p", "q", "t", "empty", "x0", "y0", "dx", "dy"]
    if sols.empty:
        row = [args.p, args.q, args.t, "true", "", "", "", ""]
        plain = ["empty"]
    else:
        (x0, y0), (dx, dy) = sols.base, sols.step
        row = [args.p, args.q, args.t, "false", x0, y0, dx, dy]
        plain = [f"base=({x0}, {y0}) step=({dx}, {dy})"]
    _emit(args, doc, header, [row], plain)
    return 0


def _cmd_construct12(args) -> int:
    if (args.delta is None) == (args.list is None):
        raise _UsageError("provide exactly one of --delta and --list")
    header = ["n1", "n2", "delta", "r1", "r2", "r3"]
    if args.delta is not None:
        t = number_theory.case12_construct(
            args.n1, args.n2, args.delta, allow_degenerate=args.allow_degenerate
        )
        doc = {
            "command": "construct12",
            "n1": args.n1,
            "n2": args.n2,
            "delta": args.delta,
            "triple": None if t is None else _triple_doc(t),
        }
        if t is None:
            rows = [[args.n1, args.n2, args.delta, "", "", ""]]
            plain = ["NONE"]
        else:
            rows = [[args.n1, args.n2, args.delta, *(format_rational(q) for q in t)]]
            plain = [_triple_str(t)]
        _emit(args, doc, header, rows, plain)
        return 0
    results = list(
        number_theory.case12_enumerate(
            args.n1, args.n2, args.list, allow_degenerate=args.allow_degenerate
        )
    )
    doc = {
        "command": "construct12",
        "n1": args.n1,
        "n2": args.n2,
        "results": [
            {"delta": delta, "triple": _triple_doc(t)} for delta, t in results
        ],
    }
    rows = [[args.n1, args.n2, delta, *(format_rational(q) for q in t)]
            for delta, t in results]
    plain = [f"delta={delta} -> {_triple_str(t)}" for delta, t in results]
    _emit(args, doc, header, rows, plain)
    return 0


def _cmd_family5(args) -> int:
    sign = _parse_sign(args.sign)
    t = number_theory.case13_family5(args.a, args.f, args.k, sign)
    doc = {
        "command": "family5",
        "a": args.a,
        "f": args.f,
        "k": args.k,
        "sign": "+" if sign == 1 else "-",
        "triple": _triple_doc(t),
    }
    header = ["a", "f", "k", "sign", "r1", "r2", "r3"]
    row = [args.a, args.f, args.k, doc["sign"], *(format_rational(q) for q in t)]
    _emit(args, doc, header, [row], [_triple_str(t)])
    return 0


def _cmd_search(args) -> int:
    case = parse_case(args.case)
    bounds = oracle.SearchBounds(args.num_bound, args.den_bound)
    triples = oracle.search_solutions(case, bounds, jobs=args.jobs)
    # The jobs count is deliberately not echoed: output must be identical
    # for any worker count.
    doc = {
        "command": "search",
        "case": _case_doc(case),
        "bounds": {"num_bound": bounds.num_bound, "den_bound": bounds.den_bound},
        "count": len(triples),
        "triples": [[format_rational(q) for q in t] for t in triples],
    }
    header = ["r1", "r2", "r3"]
    rows = [[format_rational(q) for q in t] for t in triples]
    plain = (
        [f"{_case_plain(case)}  grid |num|<={bounds.num_bound} den<={bounds.den_bound}"]
        + [_triple_str(t) for t in triples]
        + [f"count {len(triples)}"]
    )
    _emit(args, doc, header, rows, plain)
    return 0


def _cmd_verify(args) -> int:
    case = parse_case(args.case)
    bounds = oracle.SearchBounds(args.num_bound, args.den_bound)
    report = oracle.verify_characterization(
        case, bounds, jobs=args.jobs, list_limit=args.limit
    )
    doc = {
        "command": "verify",
        "case": _case_doc(case),
        "bounds": {"num_bound": bounds.num_bound, "den_bound": bounds.den_bound},
        "total_triples": report.total_triples,
        "holds": report.holds,
        "missing_count": report.missing_count,
        "spurious_count": report.spurious_count,
        "coverage_gap_count": report.coverage_gap_count,
        "exact": report.exact,
        "list_limit": report.list_limit,
        "missing": [[format_rational(q) for q in t] for t in report.missing],
        "spurious": [[format_rational(q) for q in t] for t in report.spurious],
        "coverage_gap": [[format_rational(q) for q in t] for t in report.coverage_gap],
    }
    header = ["category", "r1", "r2", "r3"]
    rows = [
        [category, *(format_rational(q) for q in t)]
        for category, triples in (
            ("missing", report.missing),
            ("spurious", report.spurious),
            ("coverage_gap", report.coverage_gap),
        )
        for t in triples
    ]
    plain = [
        f"{_case_plain(case)}  grid |num|<={bounds.num_bound} den<={bounds.den_bound}",
        f"total {report.total_triples}  holds {report.holds}",
        f"missing {report.missing_count}  spurious {report.spurious_count}"
        f"  coverage_gap {report.coverage_gap_count}",
    ]
    for category, triples in (
        ("missing", report.missing),
        ("spurious", report.spurious),
        ("coverage_gap", report.coverage_gap),
    ):
        if triples:
            plain.append(f"{category}:")
            plain.extend(f"  {_triple_str(t)}" for t in triples)
    _emit(args, doc, header, rows, plain)
    return 0 if report.exact else 1


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distribq",
        description="Decide, construct, and exhaustively verify rational triples "
        "satisfying r1 op (r2 op' r3) = (r1 op r2) op' (r1 op r3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
        p.add_argument("--output", metavar="PATH",
                       help="write output to PATH instead of stdout")

    p = sub.add_parser("check", help="evaluate one case on one triple")
    p.add_argument("--outer", required=True, help="add|sub|mul|div")
    p.add_argument("--inner", required=True, help="add|sub|mul|div")
    p.add_argument("--triple", required=True, metavar="r1,r2,r3")
    common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("classify", help="evaluate all 16 cases on one triple")
    p.add_argument("--triple", required=True, metavar="r1,r2,r3")
    common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("member", help="test the case's exact characterization")
    p.add_argument("--case", required=True, help="1..14, L1, L2, or outer/inner")
    p.add_argument("--triple", required=True, metavar="r1,r2,r3")
    common(p)
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("generate", help="instantiate a parametric family")
    p.add_argument("--case", required=True)
    p.add_argument("--family", required=True, type=int, metavar="K")
    p.add_argument("--params", metavar="key=val[,key=val...]")
    common(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("solve", help="solve case 12/13/14 for r2 given r1 and r3")
    p.add_argument("--case", required=True, help="12, 13, or 14")
    p.add_argument("--r1", required=True)
    p.add_argument("--r3", required=True)
    common(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("diophantine", help="solve p*x + q*y = t over the integers")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--t", required=True, type=int)
    common(p)
    p.set_defaults(handler=_cmd_diophantine)

    p = sub.add_parser(
        "construct12",
        help="build a case-12 integer triple from (N1, N2, delta), or list the "
        "first N constructible deltas with --list",
    )
    p.add_argument("--n1", required=True, type=int)
    p.add_argument("--n2", required=True, type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--list", type=_positive_int, metavar="N")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="permit a zero third component")
    common(p)
    p.set_defaults(handler=_cmd_construct12)

    p = sub.add_parser("family5", help="build a case-13 family-5 triple")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--f", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--sign", required=True,
                   help="+ or - (use --sign=- for the minus root)")
    common(p)
    p.set_defaults(handler=_cmd_family5)

    p = sub.add_parser("search", help="list all solutions on a bounded grid")
    p.add_argument("--case", required=True)
    p.add_argument("--num-bound", required=True, type=_positive_int)
    p.add_argument("--den-bound", required=True, type=_positive_int)
    p.add_argument("--jobs", type=_positive_int, default=1)
    common(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser(
        "verify",
        help="compare checker, characterization, and families over a grid",
    )
    p.add_argument("--case", required=True)
    p.add_argument("--num-bound", required=True, type=_positive_int)
    p.add_argument("--den-bound", required=True, type=_positive_int)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--limit", type=_positive_int, default=oracle.DEFAULT_LIST_LIMIT,
                   help="cap on listed triples per category")
    common(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
