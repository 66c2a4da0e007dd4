"""Command-line surface.

Subcommands map one-to-one onto the library: check, classify, member,
generate, solve, diophantine, construct12, family5, search, verify.
Each handler returns one `_Record` of raw values, and `_render` writes it
to stdout (or --output) as plain text, JSON (one document per invocation,
laid out as `json.dumps(indent=2)` lays it out: two-space indent, ASCII
only, keys in the record's order), or CSV (a fixed header row, and cells
joined by "," unquoted, as no cell holds a comma, a quote or a newline);
diagnostics go to stderr. Rationals are always serialized as "n/d"
(including "/1") so every printed value re-parses exactly. The sides of a
check result are written from the kernel's integers, reduced by their
gcd with a positive denominator, so no Fraction is built only to print it.

Exit codes are stable: 0 success or positive verdict, 1 negative verdict
(FAILS/UNDEFINED, non-member, inexact verification), 2 usage error,
3 domain or constraint error (also a result with more digits than str()
converts, and a command that runs out of memory, in which cases nothing is
printed and one "error:" line goes to stderr). Computational answers such as
NONE, ALL, or an empty solution set are successes, not negative verdicts.
A reader that closes stdout early ends the output quietly, and the exit
code stays the command's; any other failed write, to stdout or to
--output, is a usage error. A failed write to stderr is ignored.

Each option value is typed by its flag's argparse `type=` in `_COMMANDS`,
so handlers read final values. `_UsageError` is raised after parsing only
for `--params`, construct12's one of `--delta`/`--list`, `--output`, and a
failed write.

Each subcommand's options are added to a parser in one place,
`_add_arguments`. `run` first parses argv (`_parse`) from a table read
once per process from a parser made for that subcommand alone
(`_command`): each store and store-true action by flag, with its dest,
type, choices, required, default and const, and the parser's
`set_defaults`. `_parse` accepts only COMMAND followed by `--flag VALUE`,
`--flag=VALUE` or a store-true `--flag`, every flag spelled in full, and
gives the namespace `parse_args` would. Any other argv (help, an unknown
or abbreviated flag, a stray word, a missing required flag) and any value
that its type or choices refuse make it return None, and only then is the
whole parser built (`_build_parser`, once per process, its subparsers
filled by the same `_add_arguments`) and `parse_args` run, as the only
writer of help, usage and parser errors: a malformed value is typed once
by the table and again by argparse, which names the option in its error.
`parse_args` returns a fresh namespace on each call and writes, wrapped to
the terminal width, to the `sys.stdout`/`sys.stderr` current at that call,
so the handlers and the argument tables must hold no per-call state
either: no argument takes a mutable default or an `append` action.

A command loads only the modules it uses. `identity` is imported with this
module; handlers reach `catalog`, `number_theory` and `oracle` as
attributes of the package (`distribq.catalog.member`), which imports a
module the first time it is read and keeps it as a plain attribute. So
`check` and `classify` import none of the three, and build no whole parser.
Handlers look up `check` and each library function at call time, so a
replacement installed after the first `run` is still called.

A listing that is large or on the point-query path is a `_Rows`:
`search`'s triples, `classify`'s results and `construct12 --list`'s.
`_render` asks it for its rows in the requested format alone, each row one
`%` format on its integers or a concatenation of texts made once. Every
other value, `verify`'s at most `--limit` triples per category among them,
is written by the ordinary value writers. A parsed rational is built from
its reduced integers by setting its slots, not through `Fraction()`, and an
operation, a sign or a boolean is read from a table.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import re
import reprlib
import sys
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, NamedTuple, Sequence

# The C function alone: `json.encoder` would import the whole json package.
from _json import encode_basestring_ascii as _quote

import distribq

from .identity import (
    ALL_CASES,
    DEFAULT_LIST_LIMIT,
    BinOp,
    CaseId,
    DomainError,
    SolveOutcome,
    Triple,
    Verdict,
    _from_coprime_ints,
    case_from_label,
    check,
)

__all__ = ["format_rational", "main", "parse_case", "parse_rational", "parse_triple", "run"]


_INTEGER = r"-?[0-9]+"  # an optional leading minus and ASCII digits, nothing else
_INTEGER_RE = re.compile(_INTEGER)
_RATIONAL_RE = re.compile(_INTEGER + r"(?:/[0-9]+)?")


class _UsageError(argparse.ArgumentTypeError):
    """A usage error; argparse names the option whose type raises one."""


def parse_rational(text: str) -> Fraction:
    """Parse "n/d" or "n" (optional leading minus, ASCII digits, no whitespace)."""
    if not _RATIONAL_RE.fullmatch(text):
        raise _UsageError(f"malformed rational {reprlib.repr(text)}; expected n or n/d")
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise _UsageError(f"rational of {len(text)} characters is too long") from None
    if d == 0:
        raise _UsageError(f"zero denominator in {reprlib.repr(text)}")
    g = gcd(n, d)  # d > 0, as _RATIONAL_RE admits no sign in it
    return _from_coprime_ints(n // g, d // g)


def parse_triple(text: str) -> Triple:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"expected r1,r2,r3 but got {reprlib.repr(text)}")
    return Triple._make(map(parse_rational, parts))


def parse_case(text: str) -> CaseId:
    """Accept a case label ("12", "L1") or op-pair syntax ("sub/mul")."""
    try:
        return case_from_label(text)
    except KeyError:
        raise _UsageError(
            f"unknown case {reprlib.repr(text)}; use 1..14, L1, L2, or outer/inner"
        ) from None


def _table_type(table: dict, key: Callable[[str], str], message: str) -> Callable[[str], object]:
    """An argparse type that returns `table[key(text)]`, one dict read where
    Enum's lookup or a chain of tests would run in Python; any other text is
    a `_UsageError`, `message` on its repr."""
    def parse(text: str):
        try:
            return table[key(text)]
        except KeyError:
            raise _UsageError(message % reprlib.repr(text)) from None
    return parse


_parse_op = _table_type({op._value_: op for op in BinOp}, lambda text: text.strip().lower(),
                        "unknown operation %s; use add, sub, mul, or div")
_parse_sign = _table_type({"+": 1, "+1": 1, "-": -1, "-1": -1}, str, "sign must be + or -, not %s")
_parse_bool = _table_type({"1": True, "true": True, "yes": True, "0": False, "false": False,
                           "no": False}, str.lower, "expected a boolean (0/1/true/false), got %s")


def _int(text: str, message: str) -> int:
    """`text` through int() if it is in `_INTEGER`, else `_UsageError`: also
    for more digits than int() converts (sys.get_int_max_str_digits)."""
    try:
        if _INTEGER_RE.fullmatch(text):
            return int(text)
    except ValueError:
        pass
    raise _UsageError(message + reprlib.repr(text))


def _integer(text: str) -> int:
    """argparse's `type=int` and its wording, on `_INTEGER` alone."""
    return _int(text, "invalid int value: ")


def _positive_int(text: str) -> int:
    value = _int(text, "expected a positive integer, got ")
    if value < 1:
        raise _UsageError("must be >= 1")
    return value


# The most deltas `construct12 --list` writes: a JSON row is about 0.5 KB
# while it is rendered, so 10**5 rows peak near 70 MB of RSS.
_LIST_CAP = 10**5


def _list_count(text: str) -> int:
    """A positive integer up to `_LIST_CAP`."""
    value = _positive_int(text)
    if value > _LIST_CAP:
        raise _UsageError(f"must be <= {_LIST_CAP}, the cap on listed deltas")
    return value


_PARAM_PARSERS = {"rational": parse_rational, "int": _integer,
                  "sign": _parse_sign, "bool": _parse_bool}


def _parse_params(spec: distribq.catalog.FamilySpec, text: str | None) -> dict:
    out: dict[str, object] = {}
    for item in (text.split(",") if text else []):
        if "=" not in item:
            raise _UsageError(f"bad parameter {reprlib.repr(item)}; expected key=value")
        key, _, value = item.partition("=")
        kind = spec.params.get(key)
        if kind is None:
            raise _UsageError(
                f"unknown parameter {reprlib.repr(key)}; family takes {', '.join(spec.params)}"
            )
        if key in out:
            raise _UsageError(f"parameter {key}: given more than once")
        try:
            out[key] = _PARAM_PARSERS[kind](value)
        except _UsageError as exc:
            raise _UsageError(f"parameter {key}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Rendering


class _Record(NamedTuple):
    """One subcommand's answer in raw values, ready for any format."""

    exit: int
    doc: dict  # the JSON document, without its leading "command" key
    csv: list  # CSV lines, the header first: a value, a list of cells, or a `_Rows`
    plain: list  # plain lines: a value, a list (the concatenation of its parts), or a `_Rows`


_RATIONAL_FORMAT = "%d/%d"  # a rational from its numerator and denominator slots
_JSON_RATIONAL = f'"{_RATIONAL_FORMAT}"'
_TRIPLE_FORMAT = ",".join([_RATIONAL_FORMAT] * 3)
# A search's row in each format, as three pieces: each a format on one
# component's numerator and denominator, and the row their concatenation. A
# plain or CSV row is a line; in a document, whose listings are top-level
# values, it is an array.
_TEXT_ROW = (_RATIONAL_FORMAT, "," + _RATIONAL_FORMAT, "," + _RATIONAL_FORMAT + "\n")
_ROW_PIECES = {"csv": _TEXT_ROW, "plain": _TEXT_ROW, "json": (
    "\n    [\n      " + _JSON_RATIONAL, ",\n      " + _JSON_RATIONAL,
    ",\n      " + _JSON_RATIONAL + "\n    ]")}
_CHUNK = 1024  # listed rows per piece of output


class _Rows(functools.partial):
    """A listing, called with a format: it yields its rows in that format
    alone, in lists of at most `_CHUNK`. A JSON row is an item of a top-level
    array, led by its own newline and indent; a plain or CSV row is a line,
    and a `_Rows` takes the place of its lines, none if it is empty."""


def _digits(fmt: str, *ints: int) -> str:
    try:
        return fmt % ints
    except ValueError:  # more digits than str() converts
        raise DomainError(f"a result has more than {sys.get_int_max_str_digits()} digits"
                          " and cannot be printed") from None


def _triple_text(fmt: str, t: Triple) -> str:
    """`fmt` on the triple's six slot integers."""
    r1, r2, r3 = t
    return _digits(fmt, r1._numerator, r1._denominator, r2._numerator, r2._denominator,
                   r3._numerator, r3._denominator)


def _grid_chunks(values: Sequence[Fraction], partitions: Sequence[Sequence[int]],
                 fmt: str) -> Iterator[list[str]]:
    """The rows of a search: the i-th partition's position j*V + k stands for
    (values[i], values[j], values[k]). Each piece is written once per grid
    value; a row is one of its r1's V head-and-middle texts and an end text."""
    head, mid, end = ([_digits(piece, q._numerator, q._denominator) for q in values]
                      for piece in _ROW_PIECES[fmt])
    size = len(values)
    for first, positions in zip(head, partitions):
        if positions:
            prefix = [first + text for text in mid]
            for start in range(0, len(positions), _CHUNK):
                yield [prefix[p // size] + end[p % size]
                       for p in positions[start:start + _CHUNK]]


def _json_block(items: list[str], ends: str, pad: str) -> str:
    """A JSON object or array (`ends` "{}" or "[]") of item texts indented `pad + "  "`."""
    inner = ",\n" + pad + "  "
    return ends[0] + inner[1:] + inner.join(items) + "\n" + pad + ends[1] if items else ends


def _json_dict(value: dict, pad: str) -> str:
    """A dict's JSON text: each value's writer is called as `_json` calls it,
    at the inner indent, which is made once."""
    inner = pad + "  "
    return _json_block([_quote(k) + ": " + (_WRITERS.get(type(x)) or _writers(x))[1](x, inner)
                        for k, x in value.items()], "{}", pad)


@functools.cache
def _triple_json(pad: str) -> str:  # a format on the triple's six slot integers
    return "{" + ",".join(f'\n{pad}  "{name}": {_JSON_RATIONAL}'
                          for name in Triple._fields) + "\n" + pad + "}"


# type -> (its text, its JSON text at the indent `pad`), where a dict or list
# has no text and a case's text is its CSV cells label,outer,inner; a
# subclass takes the writers of its first base in this order.
_WRITERS = {
    type(None): (lambda v: "", lambda v, pad: "null"),
    str: (str.__str__, lambda v, pad: _quote(v)),
    bool: (lambda v: "true" if v else "false", lambda v, pad: "true" if v else "false"),
    **dict.fromkeys((Verdict, BinOp, SolveOutcome),
                    (lambda v: v._value_, lambda v, pad: _quote(v._value_))),
    int: (lambda v: _digits("%d", v), lambda v, pad: _digits("%d", v)),
    Fraction: (lambda q: _digits(_RATIONAL_FORMAT, q._numerator, q._denominator),
               lambda q, pad: _digits(_JSON_RATIONAL, q._numerator, q._denominator)),
    Triple: (lambda t: _triple_text(_TRIPLE_FORMAT, t),
             lambda t, pad: _triple_text(_triple_json(pad), t)),
    CaseId: (functools.cache(
                 lambda case: f"{case.label},{case.outer._value_},{case.inner._value_}"),
             functools.cache(lambda case, pad: _json(
        {"label": case.label, "number": case.case_number, "outer": case.outer,
         "inner": case.inner}, pad))),
    dict: (None, _json_dict),
    list: (None, lambda v, pad: _json_block([_json(x, pad + "  ") for x in v], "[]", pad)),
}


def _writers(value) -> tuple:
    """The `_WRITERS` entry of a subclass of one of its types."""
    for kind, writers in _WRITERS.items():
        if isinstance(value, kind):
            return writers
    raise TypeError(f"cannot print a {type(value).__name__}")


def _text(value) -> str:
    """The one value-to-text conversion outside the listed rows, for every format."""
    return (_WRITERS.get(type(value)) or _writers(value))[0](value)


format_rational = _text


def _json(value, pad: str) -> str:
    """A raw value's JSON text, that of `json.dumps(indent=2)` once rationals are "n/d"
    strings and a `Triple` or `CaseId` an object, at the indent `pad` of its first line."""
    return (_WRITERS.get(type(value)) or _writers(value))[1](value, pad)


def _render(fmt: str, command: str, record: _Record) -> list[str]:
    """The record's output in `fmt` as text pieces, to be written in order.
    Text accumulates into one piece, and a listing adds its rows in `fmt` as
    pieces of at most `_CHUNK` rows each, the rows joined by `sep`."""
    pieces: list[str] = []
    text: list[str] = []  # the text since the last listing

    def add_rows(listing: _Rows, sep: str) -> bool:
        """Whether the listing has a row."""
        pieces.append("".join(text))
        text.clear()
        start = len(pieces)
        for rows in listing(fmt):
            pieces.append((sep if len(pieces) > start else "") + sep.join(rows))
        return len(pieces) > start

    if fmt == "json":  # a listing is only ever a value of the top level
        text.append('{\n  "command": ' + _quote(command))
        for key, value in record.doc.items():
            text.append(",\n  " + _quote(key) + ": ")
            if isinstance(value, _Rows):
                text.append("[")
                text.append("\n  ]" if add_rows(value, ",") else "]")
            else:
                text.append(_json(value, "  "))
        text.append("\n}\n")
    else:
        lines, sep = (record.csv, ",") if fmt == "csv" else (record.plain, "")
        for line in lines:
            if isinstance(line, _Rows):
                add_rows(line, "")
            else:
                text.append((sep.join(map(_text, line)) if isinstance(line, list)
                             else _text(line)) + "\n")
    pieces.append("".join(text))
    return pieces


def _case_plain(case: CaseId) -> str:
    return f"case {case.label} ({case.describe()})"


def _grid_plain(case: CaseId, bounds: distribq.oracle.SearchBounds) -> str:
    return f"{_case_plain(case)}  grid |num|<={bounds.num_bound} den<={bounds.den_bound}"


_CASE_TRIPLE_HEADER = "case,outer,inner,r1,r2,r3"
_CHECK_HEADER = _CASE_TRIPLE_HEADER + ",verdict,lhs,rhs,undefined_site"


def _side(n: int | None, d: int | None, piece: str = _RATIONAL_FORMAT) -> str | None:
    """A side's `piece` text from the kernel's numerator and denominator, in
    lowest terms with d > 0, as `format_rational` writes its Fraction."""
    if d is None:
        return None
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    return _digits(piece, n // g, d // g)


@functools.cache
def _case_head(case: CaseId, fmt: str) -> str:
    """The start of a case's `classify` row in `fmt`: its JSON object up to
    the verdict's value, its CSV cells, or its plain prefix."""
    if fmt == "json":
        return '\n    {\n      "case": ' + _json(case, "      ") + ',\n      "verdict": '
    if fmt == "csv":
        return _text(case) + ","
    return f"{case.label:>3} {case.outer._value_}/{case.inner._value_}: "


def _classify_chunks(t: Triple, results: list, fmt: str) -> Iterator[list[str]]:
    """A `classify`'s rows, one per (case, check result): one format on the
    case's head, the verdict and the sides' four integers, each side reduced
    by its gcd to a positive denominator in the loop. A HOLDS row's sides
    are equal, so they reduce to one pair, and the rhs is written from the
    lhs's. Only an UNDEFINED row may miss a side: it writes each side it has
    through `_side`, in every format, also where plain leaves them out (as
    `%.0s`), so a side too long to print fails alike."""
    # A row is a format on (head, verdict, lhs, rhs, site), with each side's
    # piece put in as {0} and the site's as {1}.
    side, missing, site = ((_JSON_RATIONAL, "null", '"%s"') if fmt == "json"
                           else (_RATIONAL_FORMAT, "", "%s"))
    row = ('%s"%s",\n      "lhs": {0},\n      "rhs": {0},\n      "undefined_site": {1}\n    }}'
           if fmt == "json" else "%s" + _triple_text(_TRIPLE_FORMAT, t) + ",%s,{0},{0},{1}\n"
           if fmt == "csv" else "%s%s  lhs={0}  rhs={0}\n")
    defined = row.format(side, missing)
    # An UNDEFINED plain row gives its site in place of the sides.
    undefined = "%s%s%.0s%.0s  site: %s\n" if fmt == "plain" else row.format("%s", site)
    holds, rows = Verdict.HOLDS, []
    for case, (verdict, lhs_n, lhs_d, rhs_n, rhs_d, undefined_site) in results:
        if undefined_site is not None:
            rows.append(undefined % (_case_head(case, fmt), verdict._value_,
                                     _side(lhs_n, lhs_d, side) or missing,
                                     _side(rhs_n, rhs_d, side) or missing, undefined_site))
            continue
        g = gcd(lhs_n, lhs_d) if lhs_d > 0 else -gcd(lhs_n, lhs_d)
        lhs_n, lhs_d = lhs_n // g, lhs_d // g
        if verdict is holds:
            rhs_n, rhs_d = lhs_n, lhs_d
        else:
            g = gcd(rhs_n, rhs_d) if rhs_d > 0 else -gcd(rhs_n, rhs_d)
            rhs_n, rhs_d = rhs_n // g, rhs_d // g
        rows.append(_digits(defined, _case_head(case, fmt), verdict._value_,
                            lhs_n, lhs_d, rhs_n, rhs_d))
    yield rows


def _construct12_chunks(n1: int, n2: int, results: list, fmt: str) -> Iterator[list[str]]:
    """The rows of a `construct12 --list`: one format on each delta and its
    triple's six slot integers."""
    if fmt == "json":
        row = '\n    {\n      "delta": %d,\n      "triple": ' + _triple_json("      ") + "\n    }"
    elif fmt == "csv":
        row = _digits("%d,%d,", n1, n2) + "%d," + _TRIPLE_FORMAT + "\n"
    else:
        row = "delta=%d -> " + _TRIPLE_FORMAT + "\n"
    for start in range(0, len(results), _CHUNK):
        yield [_digits(row, delta, r1._numerator, r1._denominator, r2._numerator,
                       r2._denominator, r3._numerator, r3._denominator)
               for delta, (r1, r2, r3) in results[start:start + _CHUNK]]


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> _Record:
    case, t = CaseId(args.outer, args.inner), args.triple
    verdict, lhs_n, lhs_d, rhs_n, rhs_d, site = check(case, t)
    lhs, rhs = _side(lhs_n, lhs_d), _side(rhs_n, rhs_d)
    return _Record(
        0 if verdict is Verdict.HOLDS else 1,
        {"case": case, "triple": t, "verdict": verdict, "lhs": lhs, "rhs": rhs,
         "undefined_site": site},
        [_CHECK_HEADER, [case, t, verdict, lhs, rhs, site]],
        [[_case_plain(case), "  triple ", t], [verdict, "  lhs=", lhs, "  rhs=", rhs]
         if site is None else ["UNDEFINED  site: ", site]],
    )


def _cmd_classify(args) -> _Record:
    t = args.triple
    listing = _Rows(_classify_chunks, t, [(case, check(case, t)) for case in ALL_CASES])
    return _Record(0, {"triple": t, "results": listing}, [_CHECK_HEADER, listing],
                   [["triple ", t], listing])


def _cmd_member(args) -> _Record:
    case, t = args.case, args.triple
    verdict = distribq.catalog.member(case, t)
    return _Record(
        0 if verdict else 1,
        {"case": case, "triple": t, "member": verdict},
        [_CASE_TRIPLE_HEADER + ",member", [case, t, verdict]],
        [[_case_plain(case), "  triple ", t], ["member ", verdict]],
    )


def _cmd_generate(args) -> _Record:
    params = _parse_params(distribq.catalog.family_spec(args.case, args.family), args.params)
    t = distribq.catalog.generate(distribq.catalog.FamilyId(args.case, args.family), params)
    return _Record(
        0,
        {"case": args.case, "family": args.family, "params": params, "triple": t},
        ["case,family,r1,r2,r3", [args.case.label, args.family, *t]],
        [t],
    )


def _cmd_solve(args) -> _Record:
    case, r1, r3 = args.case, args.r1, args.r3
    outcome = distribq.catalog.solve_r2(case, r1, r3)
    if isinstance(outcome, SolveOutcome):
        result, r2, plain = outcome, None, outcome
    else:
        result, r2, plain = "unique", outcome, ["r2 = ", outcome]
    return _Record(
        0,
        {"case": case, "r1": r1, "r3": r3, "result": result, "r2": r2},
        ["case,r1,r3,result,r2", [case.label, r1, r3, result, r2]],
        [plain],
    )


def _cmd_diophantine(args) -> _Record:
    sols = distribq.number_theory.solve_linear_diophantine(args.p, args.q, args.t)
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
        ["p,q,t,empty,x0,y0,dx,dy", [args.p, args.q, args.t, sols.empty, *cells]],
        [plain],
    )


def _cmd_construct12(args) -> _Record:
    if (args.delta is None) == (args.list is None):
        raise _UsageError("provide exactly one of --delta and --list")
    header = "n1,n2,delta,r1,r2,r3"
    if args.delta is not None:
        t = distribq.number_theory.case12_construct(args.n1, args.n2, args.delta,
                                                    allow_degenerate=args.allow_degenerate)
        return _Record(
            0,
            {"n1": args.n1, "n2": args.n2, "delta": args.delta, "triple": t},
            [header, [args.n1, args.n2, args.delta, *(t or [None] * 3)]],
            ["NONE" if t is None else t],
        )
    results = distribq.number_theory.case12_enumerate(
        args.n1, args.n2, args.list, allow_degenerate=args.allow_degenerate)
    listing = _Rows(_construct12_chunks, args.n1, args.n2, list(results))
    return _Record(0, {"n1": args.n1, "n2": args.n2, "results": listing},
                   [header, listing], [listing])


def _cmd_family5(args) -> _Record:
    t = distribq.number_theory.case13_family5(args.a, args.f, args.k, args.sign)
    sign_text = "+" if args.sign == 1 else "-"
    return _Record(
        0,
        {"a": args.a, "f": args.f, "k": args.k, "sign": sign_text, "triple": t},
        ["a,f,k,sign,r1,r2,r3", [args.a, args.f, args.k, sign_text, *t]],
        [t],
    )


def _cmd_search(args) -> _Record:
    bounds = distribq.oracle.SearchBounds(args.num_bound, args.den_bound)
    values, partitions = distribq.oracle.search_positions(args.case, bounds, jobs=args.jobs)
    partitions = list(partitions)
    count = sum(map(len, partitions))
    listed = _Rows(_grid_chunks, values, partitions)
    # The jobs count is deliberately not echoed: output must be identical
    # for any worker count.
    return _Record(
        0,
        {"case": args.case, "bounds": bounds._asdict(), "count": count, "triples": listed},
        ["r1,r2,r3", listed],
        [_grid_plain(args.case, bounds), listed, f"count {count}"],
    )


def _cmd_verify(args) -> _Record:
    bounds = distribq.oracle.SearchBounds(args.num_bound, args.den_bound)
    report = distribq.oracle.verify_characterization(
        args.case, bounds, jobs=args.jobs, list_limit=args.limit
    )
    lists = {"missing": report.missing, "spurious": report.spurious,
             "coverage_gap": report.coverage_gap}
    plain = [
        _grid_plain(args.case, bounds),
        f"total {report.total_triples}  holds {report.holds}",
        f"missing {report.missing_count}  spurious {report.spurious_count}"
        f"  coverage_gap {report.coverage_gap_count}",
    ]
    for category, triples in lists.items():
        if triples:
            plain += [f"{category}:", *(["  ", t] for t in triples)]
    return _Record(
        0 if report.exact else 1,
        {"case": args.case, "bounds": bounds._asdict(),
         "total_triples": report.total_triples, "holds": report.holds,
         "missing_count": report.missing_count,
         "spurious_count": report.spurious_count,
         "coverage_gap_count": report.coverage_gap_count,
         "exact": report.exact, "list_limit": report.list_limit,
         **{category: list(map(list, triples)) for category, triples in lists.items()}},
        ["category,r1,r2,r3",
         *([category, t] for category, triples in lists.items() for t in triples)],
        plain,
    )


# ---------------------------------------------------------------------------
# Parser


def _required(*names: str, **kwargs) -> tuple:
    return tuple((f"--{name}", dict(required=True, **kwargs)) for name in names)


_CASE = _required("case", type=parse_case, help="1..14, L1, L2, or outer/inner")
_TRIPLE = _required("triple", type=parse_triple, metavar="r1,r2,r3")
_GRID = (*_CASE, *_required("num-bound", "den-bound", type=_positive_int),
         ("--jobs", dict(type=_positive_int, default=1)))

# name -> (help, handler, arguments); each argument is (flag, add_argument kwargs)
_COMMANDS = {
    "check": ("evaluate one case on one triple", _cmd_check,
              (*_required("outer", "inner", type=_parse_op, help="add|sub|mul|div"), *_TRIPLE)),
    "classify": ("evaluate all 16 cases on one triple", _cmd_classify, _TRIPLE),
    "member": ("test the case's exact characterization", _cmd_member, _CASE + _TRIPLE),
    "generate": ("instantiate a parametric family", _cmd_generate, (
        *_CASE, *_required("family", type=_integer, metavar="K"),
        ("--params", dict(metavar="key=val[,key=val...]")),
    )),
    "solve": ("solve case 12/13/14 for r2 given r1 and r3", _cmd_solve,
              _CASE + _required("r1", "r3", type=parse_rational)),
    "diophantine": ("solve p*x + q*y = t over the integers", _cmd_diophantine,
                    _required("p", "q", "t", type=_integer)),
    "construct12": (
        "build a case-12 integer triple from (N1, N2, delta), or list the "
        "first N constructible deltas with --list", _cmd_construct12, (
            *_required("n1", "n2", type=_integer),
            ("--delta", dict(type=_integer)),
            ("--list", dict(type=_list_count, metavar="N")),
            ("--allow-degenerate", dict(action="store_true",
                                        help="permit a zero third component")),
        )),
    "family5": ("build a case-13 family-5 triple", _cmd_family5,
                (*_required("a", "f", "k", type=_integer),
                 *_required("sign", type=_parse_sign, help="+ or -"))),
    "search": ("list all solutions on a bounded grid", _cmd_search, _GRID),
    "verify": ("compare checker, characterization, and families over a grid", _cmd_verify, (
        *_GRID, ("--limit", dict(type=_positive_int, default=DEFAULT_LIST_LIMIT,
                                 help="cap on listed triples per category")),
    )),
}


def _shorten(match: re.Match) -> str:
    """A word of an argparse message, through reprlib if that shortens it;
    a quoted word is the %r of a value, from argparse or from a type (whose
    message may follow it with ";"), and is matched first."""
    word = match[0]
    value = word[1:-1] if word[0] == word[-1] and word[0] in "'\"" else word
    short = reprlib.repr(value)
    return word if short == repr(value) else short


class _Parser(argparse.ArgumentParser):
    """argparse echoes a rejected choice or a stray word in full; this
    shortens each over-long one, as the types' messages do. Subparsers
    are built from the same class, so they inherit it.

    Before Python 3.13, argparse drops "--" from an option's arguments, so
    `--flag=--` stored [] and called no type. Here the value "--" goes to
    the option's type and choices, as on 3.13; an option with neither
    refuses it, as it refuses `--flag --`."""

    def error(self, message: str):
        super().error(re.sub(r"'[^']*'|\"[^\"]*\"|\S+", _shorten, message))

    def _get_values(self, action: argparse.Action, arg_strings: list[str]):
        if arg_strings != ["--"] or not action.option_strings:
            return super()._get_values(action, arg_strings)
        if action.type is None and action.choices is None:
            raise argparse.ArgumentError(action, "expected one argument")
        value = self._get_value(action, "--")
        self._check_value(action, value)
        return value


# No option starts with -<digit>, so "-5/2" after an option is its value, in
# argparse (as each parser's `_negative_number_matcher`) and in `_parse` alike.
_NEGATIVE_NUMBER = re.compile(r"^-\d")


def _add_arguments(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give `p` the options and defaults of the subcommand `name`: the one
    place they are added, to `_build_parser`'s subparser and to the parser
    that `_command` reads alike."""
    _, handler, arguments = _COMMANDS[name]
    p._negative_number_matcher = _NEGATIVE_NUMBER
    for flag, kwargs in arguments:
        p.add_argument(flag, **kwargs)
    p.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    p.add_argument("--output", metavar="PATH",
                   help="write output to PATH instead of stdout")
    p.set_defaults(handler=handler)
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser, built only when argparse must write help, usage or an error."""
    parser = _Parser(
        prog="distribq",
        description="Decide, construct, and exhaustively verify rational triples "
        "satisfying r1 op (r2 op' r3) = (r1 op r2) op' (r1 op r3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


class _Command(NamedTuple):
    """What the fast path reads of one subcommand's parser, from argparse's
    own actions and defaults."""

    options: dict  # each store or store-true action, by each of its flags
    defaults: dict  # the namespace of an argv that gives no option
    required: frozenset  # the dests of the options that must be given


@functools.cache
def _command(name: str) -> _Command:
    """The subcommand's `_Command`, read once from a parser made for it alone."""
    p = _add_arguments(_Parser(prog=f"distribq {name}"), name)
    actions = [a for a in p._actions if a.dest is not argparse.SUPPRESS]
    return _Command(
        {flag: a for a in actions
         if isinstance(a, (argparse._StoreAction, argparse._StoreConstAction))
         and a.nargs in (None, 0) for flag in a.option_strings},
        {**p._defaults, **{a.dest: a.default for a in actions
                           if a.default is not argparse.SUPPRESS}, "command": name},
        frozenset(a.dest for a in actions if a.required))


def _parse(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace `parse_args(argv)` returns, for an argv of the form
    COMMAND (--flag VALUE | --flag=VALUE | --store-true-flag)*, with every flag
    spelled in full, a separate VALUE that starts with "-" only if it reads as
    a negative number, no VALUE "--", and every required flag given; each
    copy of a repeated flag is typed, and the last one wins. For any other
    argv, and when a type rejects a value or a value is not among its choices,
    it returns None, so that `parse_args` runs and writes every message."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = _command(argv[0])
    options, values, seen = command.options, dict(command.defaults), set()
    i, end = 1, len(argv)
    while i < end:
        action = options.get(argv[i])
        if action is None:  # --flag=VALUE
            flag, eq, text = argv[i].partition("=")
            action = options.get(flag)
            if not eq or action is None or action.nargs == 0 or text == "--":
                return None
            i += 1
        elif action.nargs == 0:  # --store-true-flag
            values[action.dest] = action.const
            seen.add(action.dest)
            i += 1
            continue
        elif i + 1 < end and (argv[i + 1][:1] != "-" or _NEGATIVE_NUMBER.match(argv[i + 1])):
            text = argv[i + 1]  # --flag VALUE
            i += 2
        else:
            return None
        if action.type is not None:
            try:
                text = action.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and text not in action.choices:
            return None
        values[action.dest] = text
        seen.add(action.dest)
    if not command.required <= seen:
        return None
    namespace = argparse.Namespace()
    vars(namespace).update(values)  # Namespace(**values) calls setattr once per key
    return namespace


def _refuse_unwritable(path: str) -> None:
    """Reject an --output path that cannot be written before the command
    runs, so a long scan does not end in a usage error. Nothing is created
    here: the file is opened only once the command has succeeded."""
    parent = os.path.dirname(path) or "."
    if not path or not os.path.isdir(parent):
        error = errno.ENOENT
    elif os.path.isdir(path):
        error = errno.EISDIR
    elif not (os.access(path, os.W_OK) if os.path.exists(path)
              else os.access(parent, os.W_OK | os.X_OK)):
        error = errno.EACCES
    else:
        return
    raise _UsageError(f"cannot write {path}: {os.strerror(error)}")


def _write(pieces: list[str], path: str | None) -> None:
    """Write the pieces in order to the file at `path`, or to stdout if
    `path` is None. A reader that closes stdout early ends the output
    quietly; any other failure is a `_UsageError`."""
    try:
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        elif sys.stdout is None:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except OSError:
                _flush(sys.stdout)
                raise
    except OSError as exc:
        if path is None and exc.errno == errno.EPIPE:
            return
        raise _UsageError(f"cannot write {path or 'stdout'}: {exc.strerror}") from None


def _flush(stream) -> None:
    """Flush `stream`, None when the process started without it. If that
    fails, the stream's descriptor is pointed at the null device: the text
    left in its buffer would otherwise fail again in the flush at exit, and
    make the exit code 120. A stream without a descriptor is left as it is."""
    try:
        stream.flush()
    except (OSError, AttributeError):
        with contextlib.suppress(OSError, AttributeError):  # no stream, or no descriptor
            fd = stream.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, fd)
            finally:
                os.close(devnull)


def _report(message: str) -> None:
    """Write `message` as a line to stderr. A failed write is ignored, as
    argparse ignores one, so it never changes the exit code."""
    with contextlib.suppress(OSError, AttributeError):  # a failure, or no stderr
        sys.stderr.write(message + "\n")
    _flush(sys.stderr)


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # help, usage or a parser error has been written
            _flush(sys.stdout)
            _flush(sys.stderr)
            return int(exc.code or 0)
    try:
        if args.output is not None:
            _refuse_unwritable(args.output)
        record = args.handler(args)
        _write(_render(args.format, args.command, record), args.output)
        return record.exit
    except _UsageError as exc:
        _report(f"usage error: {exc}")
        return 2
    except DomainError as exc:
        _report(f"error: {exc}")
        return 3
    except MemoryError:  # reported below, once the values its traceback holds are freed
        pass
    _report("error: the command ran out of memory")
    return 3


def main(argv: Sequence[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
