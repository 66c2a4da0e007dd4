"""Command-line surface.

Subcommands map one-to-one onto the library: check, classify, member,
generate, solve, diophantine, construct12, family5, search, verify.
Output goes to stdout (or --output) as plain text, JSON (one document per
invocation), or CSV (fixed header row); diagnostics go to stderr.

Each subcommand handler returns one `_Record` of raw values (`Fraction`,
`Triple`, `CaseId`, enums, `bool`, `int`, `None`): its exit code, the JSON
document, the CSV header and rows, and the plain lines. `_render` turns the
record into the text of the chosen format, through `_json` for documents and
`_text` for every CSV cell and plain line, so each value is formatted in
one place. The whole text is built before anything is written.

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
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

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


def _parse_sign(text: str) -> int:
    if text in ("+", "+1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise _UsageError(f"sign must be + or -, not {text!r}")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise _UsageError(f"expected a boolean (0/1/true/false), got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"expected an integer, got {text!r}") from None


_PARAM_PARSERS = {"rational": parse_rational, "int": _parse_int,
                  "sign": _parse_sign, "bool": _parse_bool}


def _parse_params(spec: catalog.FamilySpec, text: str | None) -> dict:
    out: dict[str, object] = {}
    for item in (text.split(",") if text else []):
        if "=" not in item:
            raise _UsageError(f"bad parameter {item!r}; expected key=value")
        key, _, value = (part.strip() for part in item.partition("="))
        kind = spec.params.get(key)
        if kind is None:
            raise _UsageError(
                f"unknown parameter {key!r}; family takes {', '.join(spec.params)}"
            )
        try:
            out[key] = _PARAM_PARSERS[kind](value)
        except _UsageError as exc:
            raise _UsageError(f"parameter {key}: {exc}") from None
    return out


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


# ---------------------------------------------------------------------------
# Rendering


class _Record(NamedTuple):
    """One subcommand's answer in raw values, ready for any format."""

    exit: int
    doc: dict  # the JSON document, without its leading "command" key
    header: list[str]  # CSV header row
    rows: list  # CSV rows; each a sequence of values, one per cell
    plain: list  # plain lines; a list line is the concatenation of its parts


def _text(value) -> str:
    """The one value-to-text conversion, and the one guard on digit count."""
    try:
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, int) and not isinstance(value, bool):
            return str(value)
    except ValueError:  # more digits than str() converts (sys.get_int_max_str_digits)
        raise DomainError(
            f"a result has more than {sys.get_int_max_str_digits()} digits"
            " and cannot be printed"
        ) from None
    if isinstance(value, Triple):
        return ",".join(map(_text, value))
    if isinstance(value, list):
        return "".join(map(_text, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return "" if value is None else value


def format_rational(q: Fraction) -> str:
    return _text(q)


def _json(value):
    """Map a raw value onto JSON types: rationals become "n/d" strings."""
    if isinstance(value, (Fraction, Enum)):
        return _text(value)
    if isinstance(value, list):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if isinstance(value, Triple):
        return {"r1": _text(value.r1), "r2": _text(value.r2), "r3": _text(value.r3)}
    if isinstance(value, CaseId):
        return {"label": value.label, "number": value.case_number,
                "outer": value.outer.value, "inner": value.inner.value}
    if isinstance(value, int) and not isinstance(value, bool):
        _text(value)  # json.dumps would raise the same unguarded ValueError
    return value


def _render(fmt: str, command: str, record: _Record) -> str:
    if fmt == "json":
        return json.dumps({"command": command, **_json(record.doc)}, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record.header)
        writer.writerows(map(_text, row) for row in record.rows)
        return buf.getvalue()
    return "\n".join(map(_text, record.plain)) + "\n"


def _case_plain(case: CaseId) -> str:
    return f"case {case.label} ({case.describe()})"


def _grid_plain(case: CaseId, bounds: oracle.SearchBounds) -> str:
    return f"{_case_plain(case)}  grid |num|<={bounds.num_bound} den<={bounds.den_bound}"


def _verdict_plain(result: CheckResult) -> list:
    if result.verdict is Verdict.UNDEFINED:
        return ["UNDEFINED  site: ", result.undefined_site]
    return [result.verdict, "  lhs=", result.lhs, "  rhs=", result.rhs]


_CHECK_HEADER = ["case", "outer", "inner", "r1", "r2", "r3",
                 "verdict", "lhs", "rhs", "undefined_site"]


def _check_row(case: CaseId, t: Triple, result: CheckResult) -> list:
    return [case.label, case.outer, case.inner, *t, *vars(result).values()]


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> _Record:
    case = CaseId(_parse_op(args.outer), _parse_op(args.inner))
    t = parse_triple(args.triple)
    result = check(case, t)
    return _Record(
        0 if result.verdict is Verdict.HOLDS else 1,
        {"case": case, "triple": t, **vars(result)},
        _CHECK_HEADER,
        [_check_row(case, t, result)],
        [[_case_plain(case), "  triple ", t], _verdict_plain(result)],
    )


def _cmd_classify(args) -> _Record:
    t = parse_triple(args.triple)
    results = [(case, check(case, t)) for case in ALL_CASES]
    return _Record(
        0,
        {"triple": t,
         "results": [{"case": case, **vars(result)} for case, result in results]},
        _CHECK_HEADER,
        [_check_row(case, t, result) for case, result in results],
        [["triple ", t]] + [
            [f"{case.label:>3} {case.outer.value}/{case.inner.value}: ",
             *_verdict_plain(result)]
            for case, result in results
        ],
    )


def _cmd_member(args) -> _Record:
    case = parse_case(args.case)
    t = parse_triple(args.triple)
    verdict = catalog.member(case, t)
    return _Record(
        0 if verdict else 1,
        {"case": case, "triple": t, "member": verdict},
        ["case", "outer", "inner", "r1", "r2", "r3", "member"],
        [[case.label, case.outer, case.inner, *t, verdict]],
        [[_case_plain(case), "  triple ", t], ["member ", verdict]],
    )


def _cmd_generate(args) -> _Record:
    case = parse_case(args.case)
    params = _parse_params(catalog.family_spec(case, args.family), args.params)
    t = catalog.generate(FamilyId(case, args.family), params)
    return _Record(
        0,
        {"case": case, "family": args.family, "params": params, "triple": t},
        ["case", "family", "r1", "r2", "r3"],
        [[case.label, args.family, *t]],
        [t],
    )


def _cmd_solve(args) -> _Record:
    case = parse_case(args.case)
    r1, r3 = parse_rational(args.r1), parse_rational(args.r3)
    outcome = catalog.solve_r2(case, r1, r3)
    if isinstance(outcome, SolveOutcome):
        result, r2, plain = outcome, None, outcome
    else:
        result, r2, plain = "unique", outcome, ["r2 = ", outcome]
    return _Record(
        0,
        {"case": case, "r1": r1, "r3": r3, "result": result, "r2": r2},
        ["case", "r1", "r3", "result", "r2"],
        [[case.label, r1, r3, result, r2]],
        [plain],
    )


def _cmd_diophantine(args) -> _Record:
    sols = number_theory.solve_linear_diophantine(args.p, args.q, args.t)
    if sols.empty:
        base = step = None
        cells, plain = [None] * 4, "empty"
    else:
        base, step = list(sols.base), list(sols.step)
        cells = base + step
        plain = ["base=(", base[0], ", ", base[1], ") step=(", step[0], ", ", step[1], ")"]
    return _Record(
        0,
        {"p": args.p, "q": args.q, "t": args.t, "empty": sols.empty,
         "base": base, "step": step},
        ["p", "q", "t", "empty", "x0", "y0", "dx", "dy"],
        [[args.p, args.q, args.t, sols.empty, *cells]],
        [plain],
    )


def _cmd_construct12(args) -> _Record:
    if (args.delta is None) == (args.list is None):
        raise _UsageError("provide exactly one of --delta and --list")
    header = ["n1", "n2", "delta", "r1", "r2", "r3"]
    if args.delta is not None:
        t = number_theory.case12_construct(
            args.n1, args.n2, args.delta, allow_degenerate=args.allow_degenerate
        )
        return _Record(
            0,
            {"n1": args.n1, "n2": args.n2, "delta": args.delta, "triple": t},
            header,
            [[args.n1, args.n2, args.delta, *(t or [None] * 3)]],
            ["NONE" if t is None else t],
        )
    results = list(number_theory.case12_enumerate(
        args.n1, args.n2, args.list, allow_degenerate=args.allow_degenerate))
    return _Record(
        0,
        {"n1": args.n1, "n2": args.n2,
         "results": [{"delta": delta, "triple": t} for delta, t in results]},
        header,
        [[args.n1, args.n2, delta, *t] for delta, t in results],
        [["delta=", delta, " -> ", t] for delta, t in results],
    )


def _cmd_family5(args) -> _Record:
    sign = _parse_sign(args.sign)
    t = number_theory.case13_family5(args.a, args.f, args.k, sign)
    sign_text = "+" if sign == 1 else "-"
    return _Record(
        0,
        {"a": args.a, "f": args.f, "k": args.k, "sign": sign_text, "triple": t},
        ["a", "f", "k", "sign", "r1", "r2", "r3"],
        [[args.a, args.f, args.k, sign_text, *t]],
        [t],
    )


def _cmd_search(args) -> _Record:
    case = parse_case(args.case)
    bounds = oracle.SearchBounds(args.num_bound, args.den_bound)
    triples = oracle.search_solutions(case, bounds, jobs=args.jobs)
    # The jobs count is deliberately not echoed: output must be identical
    # for any worker count.
    return _Record(
        0,
        {"case": case, "bounds": bounds._asdict(), "count": len(triples),
         "triples": [list(t) for t in triples]},
        ["r1", "r2", "r3"],
        triples,
        [_grid_plain(case, bounds), *triples, f"count {len(triples)}"],
    )


def _cmd_verify(args) -> _Record:
    case = parse_case(args.case)
    bounds = oracle.SearchBounds(args.num_bound, args.den_bound)
    report = oracle.verify_characterization(
        case, bounds, jobs=args.jobs, list_limit=args.limit
    )
    lists = {"missing": report.missing, "spurious": report.spurious,
             "coverage_gap": report.coverage_gap}
    plain = [
        _grid_plain(case, bounds),
        f"total {report.total_triples}  holds {report.holds}",
        f"missing {report.missing_count}  spurious {report.spurious_count}"
        f"  coverage_gap {report.coverage_gap_count}",
    ]
    for category, triples in lists.items():
        if triples:
            plain += [f"{category}:", *(["  ", t] for t in triples)]
    return _Record(
        0 if report.exact else 1,
        {"case": case, "bounds": bounds._asdict(),
         "total_triples": report.total_triples, "holds": report.holds,
         "missing_count": report.missing_count,
         "spurious_count": report.spurious_count,
         "coverage_gap_count": report.coverage_gap_count,
         "exact": report.exact, "list_limit": report.list_limit,
         **{category: [list(t) for t in triples] for category, triples in lists.items()}},
        ["category", "r1", "r2", "r3"],
        [[category, *t] for category, triples in lists.items() for t in triples],
        plain,
    )


# ---------------------------------------------------------------------------
# Parser


def _required(*names: str, **kwargs) -> tuple:
    return tuple((f"--{name}", dict(required=True, **kwargs)) for name in names)


_CASE = _required("case", help="1..14, L1, L2, or outer/inner")
_TRIPLE = _required("triple", metavar="r1,r2,r3")
_GRID = (*_CASE, *_required("num-bound", "den-bound", type=_positive_int),
         ("--jobs", dict(type=_positive_int, default=1)))

# name -> (help, handler, arguments); each argument is (flag, add_argument kwargs)
_COMMANDS = {
    "check": ("evaluate one case on one triple", _cmd_check,
              (*_required("outer", "inner", help="add|sub|mul|div"), *_TRIPLE)),
    "classify": ("evaluate all 16 cases on one triple", _cmd_classify, _TRIPLE),
    "member": ("test the case's exact characterization", _cmd_member, _CASE + _TRIPLE),
    "generate": ("instantiate a parametric family", _cmd_generate, (
        *_CASE, *_required("family", type=int, metavar="K"),
        ("--params", dict(metavar="key=val[,key=val...]")),
    )),
    "solve": ("solve case 12/13/14 for r2 given r1 and r3", _cmd_solve,
              _CASE + _required("r1", "r3")),
    "diophantine": ("solve p*x + q*y = t over the integers", _cmd_diophantine,
                    _required("p", "q", "t", type=int)),
    "construct12": (
        "build a case-12 integer triple from (N1, N2, delta), or list the "
        "first N constructible deltas with --list", _cmd_construct12, (
            *_required("n1", "n2", type=int),
            ("--delta", dict(type=int)),
            ("--list", dict(type=_positive_int, metavar="N")),
            ("--allow-degenerate", dict(action="store_true",
                                        help="permit a zero third component")),
        )),
    "family5": ("build a case-13 family-5 triple", _cmd_family5,
                _required("a", "f", "k", type=int) + _required("sign", help="+ or -")),
    "search": ("list all solutions on a bounded grid", _cmd_search, _GRID),
    "verify": ("compare checker, characterization, and families over a grid", _cmd_verify, (
        *_GRID, ("--limit", dict(type=_positive_int, default=oracle.DEFAULT_LIST_LIMIT,
                                 help="cap on listed triples per category")),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distribq",
        description="Decide, construct, and exhaustively verify rational triples "
        "satisfying r1 op (r2 op' r3) = (r1 op r2) op' (r1 op r3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # No option starts with -<digit>, so "-5/2" after an option is its value.
        p._negative_number_matcher = re.compile(r"^-\d")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
        p.add_argument("--output", metavar="PATH",
                       help="write output to PATH instead of stdout")
        p.set_defaults(handler=handler)
    return parser


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        record = args.handler(args)
        text = _render(args.format, args.command, record)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise _UsageError(f"cannot write {args.output}: {exc.strerror}") from None
        else:
            sys.stdout.write(text)
        return record.exit
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
