"""Command-line contracts: parsing, formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
import random
import re
import reprlib
import subprocess
import sys
import tracemalloc
from array import array
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distribq
from distribq import cli, number_theory, oracle
from distribq.catalog import SolveOutcome
from distribq.cli import (
    _json,
    _Record,
    _render,
    format_rational,
    main,
    parse_case,
    parse_rational,
    parse_triple,
)
from distribq.identity import (
    ALL_CASES,
    BinOp,
    CaseId,
    DomainError,
    Triple,
    Verdict,
    case_from_label,
    check,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_rational_examples():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("7") == 7
    assert parse_rational("0/9") == 0


@pytest.mark.parametrize("text", ["1/0", "1.5", "a", "1 /2", "+3", "3/-2", "", "3\n", " 3",
                                  "\u0663", "1/\u0663", "1_000"])
def test_parse_rational_rejects_malformed_text(text):
    from distribq.cli import _UsageError

    with pytest.raises(_UsageError):
        parse_rational(text)


def test_parse_triple_and_case():
    assert parse_triple("6,4,-3") == Triple.of(6, 4, -3)
    assert parse_case("12") == CaseId(BinOp.SUB, BinOp.MUL)
    assert parse_case("sub/mul") == CaseId(BinOp.SUB, BinOp.MUL)
    assert parse_case("L2") == CaseId(BinOp.MUL, BinOp.SUB)


def test_check_exit_codes_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--outer", "sub", "--inner", "mul",
        "--triple", "6,4,-3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "HOLDS"
    assert doc["lhs"] == doc["rhs"] == "18/1"
    assert doc["case"] == {"label": "12", "number": 12, "outer": "sub", "inner": "mul"}

    code, _, _ = run_cli(capsys, "check", "--outer", "add", "--inner", "add",
                         "--triple", "1,5,7")
    assert code == 1

    code, out, _ = run_cli(capsys, "check", "--outer", "add", "--inner", "div",
                           "--triple", "1,1,-1", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "UNDEFINED"
    assert doc["undefined_site"] == "inner of rhs"


def test_check_csv_has_fixed_header(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--outer", "sub", "--inner", "mul",
        "--triple", "6,4,-3", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["case", "outer", "inner", "r1", "r2", "r3",
                       "verdict", "lhs", "rhs", "undefined_site"]
    assert rows[1][:7] == ["12", "sub", "mul", "6/1", "4/1", "-3/1", "HOLDS"]


def test_classify_lists_all_sixteen_cases(capsys):
    code, out, _ = run_cli(capsys, "classify", "--triple", "0,2,3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 16
    verdicts = {r["case"]["label"]: r["verdict"] for r in doc["results"]}
    assert verdicts["1"] == "HOLDS"
    assert verdicts["7"] == "UNDEFINED"
    assert verdicts["L1"] == "HOLDS"


def test_member_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "member", "--case", "12", "--triple", "2,5,1")
    assert code == 0 and "true" in out
    code, out, _ = run_cli(capsys, "member", "--case", "12", "--triple", "2,5,2")
    assert code == 1 and "false" in out
    code, _, _ = run_cli(capsys, "member", "--case", "sub/mul", "--triple", "2,5,1")
    assert code == 0


def test_generate_success_and_constraint_error(capsys):
    code, out, _ = run_cli(capsys, "generate", "--case", "12", "--family", "4",
                           "--params", "delta=2")
    assert code == 0
    assert out.strip() == "6/1,4/1,-3/1"

    code, _, err = run_cli(capsys, "generate", "--case", "12", "--family", "4",
                           "--params", "delta=1")
    assert code == 3
    assert "delta" in err

    code, _, err = run_cli(capsys, "generate", "--case", "12", "--family", "4",
                           "--params", "bogus=1")
    assert code == 2


def test_generate_printed_form_variant(capsys):
    code, out, _ = run_cli(capsys, "generate", "--case", "14", "--family", "3",
                           "--params", "e=1,f=3,printed_form=1")
    assert code == 0
    assert out.strip() == "1/1,1/3,1/3"


def test_solve_outputs(capsys):
    code, out, _ = run_cli(capsys, "solve", "--case", "13", "--r1", "3", "--r3", "-1")
    assert code == 0 and out.strip() == "r2 = 1/1"
    code, out, _ = run_cli(capsys, "solve", "--case", "12", "--r1", "2", "--r3", "1")
    assert code == 0 and out.strip() == "ALL"
    code, out, _ = run_cli(capsys, "solve", "--case", "12", "--r1", "4", "--r3", "2")
    assert code == 0 and out.strip() == "NONE"
    code, _, err = run_cli(capsys, "solve", "--case", "11", "--r1", "1", "--r3", "1")
    assert code == 3
    code, _, err = run_cli(capsys, "solve", "--case", "13", "--r1", "1", "--r3", "0")
    assert code == 3


def test_diophantine_output(capsys):
    code, out, _ = run_cli(capsys, "diophantine", "--p", "1", "--q", "1", "--t", "1")
    assert code == 0
    assert out.strip() == "base=(1, 0) step=(1, -1)"
    code, out, _ = run_cli(capsys, "diophantine", "--p", "2", "--q", "4", "--t", "3")
    assert code == 0 and out.strip() == "empty"


def test_construct12_modes(capsys):
    code, out, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2",
                           "--delta", "2")
    assert code == 0 and out.strip() == "6/1,4/1,-3/1"

    code, out, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2",
                           "--delta", "1")
    assert code == 0 and out.strip() == "NONE"

    code, out, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2",
                           "--delta", "1", "--allow-degenerate")
    assert code == 0 and out.strip() == "3/1,2/1,0/1"

    code, out, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2",
                           "--list", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [entry["delta"] for entry in doc["results"]] == [2, 3, 4]

    code, _, _ = run_cli(capsys, "construct12", "--n1", "3", "--n2", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "construct12", "--n1", "4", "--n2", "2",
                         "--delta", "2")
    assert code == 3


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_construct12_list_past_sys_maxsize_is_a_usage_error(capsys, fmt):
    # islice takes at most sys.maxsize items; a larger count used to end in
    # its ValueError's traceback. The cap on --list now refuses it first.
    code, out, err = run_cli(capsys, "construct12", "--n1", "5", "--n2", "3",
                             "--list", str(sys.maxsize + 1), "--format", fmt)
    assert code == 2 and out == ""
    assert "argument --list:" in err.splitlines()[-1] and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_construct12_list_past_its_cap_is_a_usage_error_naming_the_cap(capsys, fmt):
    # Every row is rendered before the first write, so the count is capped
    # before any is built.
    assert cli._list_count(str(cli._LIST_CAP)) == cli._LIST_CAP
    code, out, err = run_cli(capsys, "construct12", "--n1", "5", "--n2", "3",
                             "--list", str(cli._LIST_CAP + 1), "--format", fmt)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(
        f"argument --list: must be <= {cli._LIST_CAP}, the cap on listed deltas")


def test_family5_cli(capsys):
    code, out, _ = run_cli(capsys, "family5", "--a", "3", "--f", "1", "--k", "0",
                           "--sign", "+")
    assert code == 0 and out.strip() == "3/1,1/1,-1/1"
    code, _, err = run_cli(capsys, "family5", "--a", "2", "--f", "1", "--k", "1",
                           "--sign=+")
    assert code == 3 and "c must be nonzero" in err


def test_search_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "search", "--case", "L1", "--num-bound", "1",
                           "--den-bound", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 27
    assert doc["triples"][0] == ["-1/1", "-1/1", "-1/1"]

    code, out, _ = run_cli(capsys, "search", "--case", "9", "--num-bound", "2",
                           "--den-bound", "1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r1", "r2", "r3"]
    assert all(row[0] == "0/1" for row in rows[1:])


def test_verify_exit_code_and_gap_listing(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "1", "--num-bound", "3",
                           "--den-bound", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["missing_count"] == 0 and doc["spurious_count"] == 0
    assert doc["exact"] is True

    code, out, _ = run_cli(capsys, "verify", "--case", "12", "--num-bound", "6",
                           "--den-bound", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert ["2/1", "5/1", "1/1"] in doc["coverage_gap"]


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "check", "--outer", "mul", "--inner", "add",
                           "--triple", "1,2,3", "--format", "json",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "HOLDS"


def test_overlong_triple_component_is_a_usage_error(capsys):
    # int() refuses strings longer than sys.get_int_max_str_digits() (4300).
    code, out, err = run_cli(capsys, "check", "--outer", "add", "--inner", "add",
                             "--triple", "1,2," + "7" * 4301)
    assert code == 2
    assert out == ""
    last = err.splitlines()[-1]
    assert "argument --triple:" in last and "too long" in last


_LONG = "9" * 5000


@pytest.mark.parametrize("argv", [
    ["diophantine", "--p", _LONG, "--q", "1", "--t", "1"],
    ["diophantine", "--p", "1", "--q", _LONG, "--t", "1"],
    ["diophantine", "--p", "1", "--q", "1", "--t", _LONG],
    ["construct12", "--n1", _LONG, "--n2", "1", "--delta", "1"],
    ["construct12", "--n1", "1", "--n2", _LONG, "--delta", "1"],
    ["construct12", "--n1", "1", "--n2", "1", "--delta", _LONG],
    ["construct12", "--n1", "1", "--n2", "1", "--list", _LONG],
    ["family5", "--a", _LONG, "--f", "1", "--k", "1", "--sign", "+"],
    ["family5", "--a", "1", "--f", _LONG, "--k", "1", "--sign", "+"],
    ["family5", "--a", "1", "--f", "1", "--k", _LONG, "--sign", "+"],
    ["generate", "--case", "12", "--family", _LONG],
    ["generate", "--case", "12", "--family", "4", "--params", "delta=" + _LONG],
    ["search", "--case", "1", "--num-bound", _LONG, "--den-bound", "1"],
    ["search", "--case", "1", "--num-bound", "1", "--den-bound", _LONG],
    ["search", "--case", "1", "--num-bound", "1", "--den-bound", "1", "--jobs", _LONG],
    ["verify", "--case", "1", "--num-bound", "1", "--den-bound", "1", "--limit", _LONG],
    ["check", "--outer", "add", "--inner", "add", "--triple", "1,2," + _LONG + "x"],
    ["check", "--outer", " " + _LONG, "--inner", "add", "--triple", "1,2,3"],
    ["member", "--case", "it's" + _LONG, "--triple", "1,2,3"],
], ids=lambda argv: next(argv[i - 1] for i, a in enumerate(argv) if _LONG in a))
def test_an_overlong_integer_is_echoed_in_short(capsys, monkeypatch, argv):
    # int() refuses 5,000 digits; the message names the value through
    # reprlib, so stderr does not grow with the value, and the parser does
    # not shorten that quoted word again. argparse's usage lines come
    # first, wrapped to COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv)
    value = re.split("[,=]", next(a for a in argv if _LONG in a))[-1]
    assert code == 2 and out == ""
    assert reprlib.repr(value) in err.splitlines()[-1]
    assert len(err.splitlines()[-1].encode()) < 150
    assert len(err.encode()) < 400


_GRID_ARGV = ["search", "--case", "1", "--num-bound", "1", "--den-bound", "1"]


@pytest.mark.parametrize("argv", [
    [*_GRID_ARGV, "--format", _LONG],
    [*_GRID_ARGV, _LONG],
    [_LONG],
], ids=["invalid-choice", "unrecognized-argument", "invalid-command"])
def test_argparse_echoes_an_overlong_value_in_short(capsys, monkeypatch, argv):
    # Unshortened, each writes more than 5,000 bytes. The bound is 400, not
    # 300: at 80 columns the command's usage lines and the list of choices
    # around the 30-character short form already take up to 320 bytes.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert reprlib.repr(_LONG) in err and _LONG not in err
    assert len(err.encode()) < 400


@pytest.mark.parametrize("argv", [
    [*_GRID_ARGV, "--format", "xml"],
    [*_GRID_ARGV, "--format", "x" * 28],
    [*_GRID_ARGV, "xml", "--jobs=2"],
    ["nonsense"],
    ["check", "--triple", "1,2,3"],
])
def test_argparse_keeps_its_message_for_a_short_value(capsys, monkeypatch, argv):
    shortened = run_cli(capsys, *argv)
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    assert shortened == run_cli(capsys, *argv)
    assert shortened[0] == 2


def test_a_bad_integer_option_keeps_argparse_wording(capsys):
    code, out, err = run_cli(capsys, "diophantine", "--p", "x", "--q", "1", "--t", "1")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "distribq diophantine: error: argument --p: invalid int value: 'x'"


@pytest.mark.parametrize("argv, option", [
    (["member", "--case", "bogus", "--triple", "1,2,3"], "--case"),
    (["check", "--outer", "add", "--inner", "add", "--triple", "1,2"], "--triple"),
    (["check", "--outer", "pow", "--inner", "add", "--triple", "1,2,3"], "--outer"),
    (["check", "--outer", "add", "--inner", "pow", "--triple", "1,2,3"], "--inner"),
    (["solve", "--case", "13", "--r1", "x", "--r3", "1"], "--r1"),
    (["solve", "--case", "13", "--r1", "1", "--r3", "1/0"], "--r3"),
    (["family5", "--a", "4", "--f", "1", "--k", "1", "--sign", "0"], "--sign"),
    # A malformed earlier copy of a repeated option is refused, as for
    # an integer option, though the later copy is well formed.
    (["member", "--case", "bogus", "--case", "12", "--triple", "1,2,3"], "--case"),
    (["check", "--outer", "pow", "--outer", "sub", "--inner", "mul",
      "--triple", "x", "--triple", "6,4,-3"], "--outer"),
    (["solve", "--case", "13", "--r1", "1/0", "--r1", "2", "--r3", "1"], "--r1"),
    (["family5", "--a", "4", "--f", "1", "--k", "1", "--sign", "?", "--sign", "-"], "--sign"),
    (["diophantine", "--p", "x", "--p", "1", "--q", "1", "--t", "1"], "--p"),
])
def test_a_malformed_value_is_a_parser_error_naming_its_option(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(f"distribq {argv[0]}: error: argument {option}: ")


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_unprintable_result_is_a_domain_error(capsys, fmt):
    # The components print, but lhs = rhs = A*A has 6,000 digits, more than
    # str() converts (sys.get_int_max_str_digits() is 4300).
    a = "7" * 3000
    code, out, err = run_cli(capsys, "check", "--outer", "mul", "--inner", "mul",
                             "--triple", f"1,{a},{a}", "--format", fmt)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "digits" in err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_unprintable_integer_result_is_a_domain_error(capsys, fmt):
    # p and t have 4,300 digits, the most int() parses, but y0 = t - p*x0
    # has 4,301, more than str() converts.
    n = "9" * 4300
    code, out, err = run_cli(capsys, "diophantine", "--p", n, "--q", "1",
                             f"--t=-{n}", "--format", fmt)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "digits" in err


def _reference(value):
    """Map a raw value onto JSON types, as the CLI did before it wrote JSON
    text itself: rationals become "n/d" strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, list):
        return [_reference(v) for v in value]
    if isinstance(value, dict):
        return {k: _reference(v) for k, v in value.items()}
    if isinstance(value, Triple):
        return {"r1": _reference(value.r1), "r2": _reference(value.r2),
                "r3": _reference(value.r3)}
    if isinstance(value, CaseId):
        return {"label": value.label, "number": value.case_number,
                "outer": value.outer.value, "inner": value.inner.value}
    return value


_STRINGS = st.text() | st.sampled_from(
    ['', '"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "caf\u00e9 \u2203 \U0001f600"])
_BIG = 10**40
_FRACTIONS = st.fractions(min_value=-_BIG, max_value=_BIG, max_denominator=_BIG)
_TRIPLES = st.builds(Triple, _FRACTIONS, _FRACTIONS, _FRACTIONS)


# Plain subclasses, which the writers' table does not list: each must be
# written as its base is.
class _Int(int):
    pass


class _Str(str):
    pass


class _Fraction(Fraction):
    pass


class _Dict(dict):
    pass


class _Triple(Triple):
    pass


def _nest(value, depth: int):
    """`value` inside `depth` alternate one-item lists and dicts."""
    for level in range(depth):
        value = [value] if level % 2 else {"k": value}
    return value


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-_BIG, _BIG), _STRINGS, _FRACTIONS, _TRIPLES,
    st.sampled_from(ALL_CASES), st.sampled_from([*Verdict, *BinOp, *SolveOutcome]),
    st.builds(_Int, st.integers(-_BIG, _BIG)), st.builds(_Str, _STRINGS),
    st.builds(_Fraction, _FRACTIONS),
    st.builds(_Dict, st.dictionaries(_STRINGS, _FRACTIONS | st.integers(), max_size=3)),
    st.builds(_Triple, _FRACTIONS, st.builds(_Fraction, _FRACTIONS), _FRACTIONS),
    # A case or triple at several indents: their JSON text is cached per indent.
    st.builds(_nest, st.sampled_from(ALL_CASES) | _TRIPLES, st.integers(0, 4)),
)
_VALUES = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_json_writer_matches_the_standard_library(value):
    assert _json(value, "") == json.dumps(_reference(value), indent=2)


def test_json_writer_covers_every_kind_of_value():
    doc = {"empty": [[], {}], "text": ['"', "\\", "\x01", "\u00e9\U0001f600"],
           "plain": [None, True, False, -7, -(10**39) - 1, Fraction(-3, 7), Fraction(2)],
           "triple": Triple.of(1, "-1/2", 0), "cases": list(ALL_CASES),
           "enums": [*Verdict, *BinOp, *SolveOutcome]}
    text = _json(doc, "")
    assert text == json.dumps(_reference(doc), indent=2)
    assert text.isascii() and '"\\u00e9\\ud83d\\ude00"' in text


_HUGE = Fraction(10**5000 + 1, 3)  # more digits than str() converts


@pytest.mark.parametrize("fmt", ["json", "plain", "csv"])
@pytest.mark.parametrize("value", [_HUGE, Triple(Fraction(1), _HUGE, Fraction(-2, 3))],
                         ids=["rational", "triple"])
def test_unprintable_nested_rational_is_a_domain_error(capsys, monkeypatch, fmt, value):
    # In JSON nested in a document (a triple as an object), in plain as a
    # line (a triple alone), in CSV as cells (a triple as three).
    cells = list(value) if isinstance(value, Triple) else [value]
    record = _Record(0, {"outer": [1, {"inner": [value]}]}, ["a", [1, *cells]],
                     [value if isinstance(value, Triple) else ["r2 = ", value]])
    with pytest.raises(DomainError, match="digits"):
        _render(fmt, "check", record)
    # Through run, the command exits 3 and prints nothing.
    monkeypatch.setattr(cli, "_render", lambda *args: _render(fmt, "check", record))
    code, out, err = run_cli(capsys, "check", "--outer", "add", "--inner", "add",
                             "--triple", "1,1,1", "--format", fmt)
    assert (code, out) == (3, "") and err.startswith("error:") and "digits" in err


def _n_d(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_CASES), _TRIPLES)
def test_case_and_triple_cells_read_back_as_given(case, t):
    # check, member and classify write a case as its three cells and the
    # triple as three "n/d" cells after them, in every row.
    triple = ",".join(map(_n_d, t))
    for argv, cases in [
        (["check", "--outer", case.outer.value, "--inner", case.inner.value,
          "--triple", triple], [case]),
        (["member", "--case", case.label, "--triple", triple], [case]),
        (["classify", "--triple", triple], ALL_CASES),
    ]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run([*argv, "--format", "csv"]) in (0, 1)
        header, *rows = csv.reader(io.StringIO(out.getvalue()))
        assert header[:6] == ["case", "outer", "inner", "r1", "r2", "r3"], argv
        assert [row[:3] for row in rows] == [
            [c.label, c.outer.value, c.inner.value] for c in cases], argv
        for row in rows:
            assert all(re.fullmatch(r"-?[0-9]+/[0-9]+", cell) for cell in row[3:6]), row
            assert [parse_rational(cell) for cell in row[3:6]] == list(t), row


# Zeros make divisions undefined, small values make sides meet, and ~40-digit
# components give sides whose pairs are far from lowest terms.
_SIDE_COMPONENTS = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=3),
                             _FRACTIONS)


def _side_text(q: Fraction | None) -> str | None:
    return None if q is None else _n_d(q)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_CASES), st.builds(Triple, *[_SIDE_COMPONENTS] * 3))
def test_sides_print_as_the_results_fractions(case, t):
    # Each side is the "n/d" of CheckResult.lhs/.rhs, in every format; an
    # undefined result's missing side is an empty cell or null, and plain
    # prints its site in place of the sides.
    triple = ",".join(map(_n_d, t))
    for argv, cases in [
        (["check", "--outer", case.outer.value, "--inner", case.inner.value,
          "--triple", triple], [case]),
        (["classify", "--triple", triple], ALL_CASES),
    ]:
        results = [check(c, t) for c in cases]
        sides = [(_side_text(r.lhs), _side_text(r.rhs)) for r in results]
        out = {}
        for fmt in ("json", "csv", "plain"):
            out[fmt] = io.StringIO()
            with contextlib.redirect_stdout(out[fmt]):
                assert cli.run([*argv, "--format", fmt]) in (0, 1)
        doc = json.loads(out["json"].getvalue())
        entries = doc["results"] if argv[0] == "classify" else [doc]
        assert [(e["lhs"], e["rhs"]) for e in entries] == sides, argv
        _, *rows = csv.reader(io.StringIO(out["csv"].getvalue()))
        assert [(row[7], row[8]) for row in rows] == [
            (lhs or "", rhs or "") for lhs, rhs in sides], argv
        lines = out["plain"].getvalue().splitlines()[1:]
        assert len(lines) == len(results), argv
        for line, r, (lhs, rhs) in zip(lines, results, sides):
            assert line.endswith(f"UNDEFINED  site: {r.undefined_site}"
                                 if r.verdict is Verdict.UNDEFINED
                                 else f"{r.verdict.value}  lhs={lhs}  rhs={rhs}"), line


def _reference_text(fmt: str, doc: dict, header: list, rows: list, lines: list) -> str:
    """A document, CSV table or plain lines, rendered by the standard
    library alone; every value in them is already a JSON value or a string."""
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    return "".join(line + "\n" for line in lines)


def _grid_line(case: CaseId, bounds: oracle.SearchBounds) -> str:
    return (f"case {case.label} ({case.outer.value} over {case.inner.value})"
            f"  grid |num|<={bounds.num_bound} den<={bounds.den_bound}")


def _search_reference(fmt: str, case: CaseId, bounds: oracle.SearchBounds, triples) -> str:
    rows = [[_n_d(r) for r in t] for t in triples]
    doc = {"command": "search", "case": _reference(case), "bounds": bounds._asdict(),
           "count": len(rows), "triples": rows}
    lines = [_grid_line(case, bounds), *map(",".join, rows), f"count {len(rows)}"]
    return _reference_text(fmt, doc, ["r1", "r2", "r3"], rows, lines)


def _verify_reference(fmt: str, report: oracle.VerificationReport) -> str:
    lists = {"missing": report.missing, "spurious": report.spurious,
             "coverage_gap": report.coverage_gap}
    lists = {name: [[_n_d(r) for r in t] for t in triples] for name, triples in lists.items()}
    doc = {"command": "verify", "case": _reference(report.case),
           "bounds": report.bounds._asdict(), "total_triples": report.total_triples,
           "holds": report.holds, "missing_count": report.missing_count,
           "spurious_count": report.spurious_count,
           "coverage_gap_count": report.coverage_gap_count, "exact": report.exact,
           "list_limit": report.list_limit, **lists}
    rows = [[name, *row] for name, listed in lists.items() for row in listed]
    lines = [_grid_line(report.case, report.bounds),
             f"total {report.total_triples}  holds {report.holds}",
             f"missing {report.missing_count}  spurious {report.spurious_count}"
             f"  coverage_gap {report.coverage_gap_count}"]
    for name, listed in lists.items():
        if listed:
            lines += [f"{name}:", *("  " + ",".join(row) for row in listed)]
    return _reference_text(fmt, doc, ["category", "r1", "r2", "r3"], rows, lines)


_BOUNDS = oracle.SearchBounds(6, 3)
_GRID_OPTIONS = ["--num-bound", "6", "--den-bound", "3"]
_TRIPLES = st.builds(Triple, _FRACTIONS, _FRACTIONS, _FRACTIONS)
_LISTS = st.lists(_TRIPLES, max_size=6)


def _record(argv: list, patched: str, answer) -> _Record:
    """The record a subcommand builds when oracle's `patched` returns `answer`."""
    args = cli._build_parser().parse_args(argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, patched, lambda *args, **kwargs: answer)
        return args.handler(args)


_CHUNK = cli._CHUNK


def _listed(values: list, partitions: list) -> list:
    """The triples that a search's positions stand for, built here: the i-th
    partition's j*V + k is (values[i], values[j], values[k])."""
    size = len(values)
    return [(r1, values[p // size], values[p % size])
            for r1, positions in zip(values, partitions) for p in positions]


@st.composite
def _grids(draw) -> tuple:
    """Grid values, zeros among them, and for each value as r1 a random
    ascending subset of the positions, empty or short. On a grid of 33 or
    more values, one partition lists a number of rows on either side of a
    `_CHUNK` boundary."""
    size = draw(st.sampled_from([1, 2, 3, 6, 33, 40]))
    values = draw(st.lists(st.just(Fraction(0)) | _FRACTIONS, min_size=size, max_size=size))
    counts = [min(draw(st.sampled_from([0, 0, 1, 2, 7])), size**2) for _ in values]
    if size**2 > _CHUNK:
        counts[draw(st.integers(0, size - 1))] = _CHUNK + draw(st.integers(-1, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))  # draws no positions from hypothesis
    return values, [array("q", sorted(rng.sample(range(size**2), count))) for count in counts]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_CASES), _grids())
def test_search_rows_match_an_independent_renderer(case, grid):
    values, partitions = grid
    record = _record(["search", "--case", case.label, *_GRID_OPTIONS],
                     "search_positions", (values, iter(partitions)))
    triples = _listed(values, partitions)
    for fmt in ("json", "csv", "plain"):
        assert "".join(_render(fmt, "search", record)) == \
            _search_reference(fmt, case, _BOUNDS, triples)


def test_search_lists_its_rows_without_building_triples(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("search built a Triple")

    monkeypatch.setattr(oracle, "_triples", refuse)
    values = oracle.enumerate_rationals(_BOUNDS)
    triples = list(itertools.product(values, repeat=3))
    code, out, err = run_cli(capsys, "search", "--case", "L1", *_GRID_OPTIONS, "--format", "csv")
    assert (code, err) == (0, "")
    assert out == _search_reference("csv", case_from_label("L1"), _BOUNDS, triples)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ALL_CASES), _LISTS, _LISTS, _LISTS,
       st.lists(st.integers(0, 10**6), min_size=3, max_size=3), st.none() | st.integers(1, 6))
def test_verify_rows_match_an_independent_renderer(case, missing, spurious, gap, extra, limit):
    counts = [len(listed) + more for listed, more in zip((missing, spurious, gap), extra)]
    report = oracle.VerificationReport(
        case=case, bounds=_BOUNDS, total_triples=27**3, holds=counts[0] + counts[2],
        missing_count=counts[0], spurious_count=counts[1], coverage_gap_count=counts[2],
        missing=tuple(missing), spurious=tuple(spurious), coverage_gap=tuple(gap),
        list_limit=limit)
    record = _record(["verify", "--case", case.label, *_GRID_OPTIONS],
                     "verify_characterization", report)
    for fmt in ("json", "csv", "plain"):
        assert "".join(_render(fmt, "verify", record)) == _verify_reference(fmt, report)


def _run_formats(argv: list) -> dict:
    """Each format's (exit code, stdout) of `argv`, run in this process."""
    runs = {}
    for fmt in ("json", "csv", "plain"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runs[fmt] = (cli.run([*argv, "--format", fmt]), out.getvalue())
    return runs


def _classify_reference(fmt: str, t: Triple) -> str:
    results = [(case, check(case, t)) for case in ALL_CASES]
    doc = {"command": "classify", "triple": _reference(t), "results": [
        {"case": _reference(case), "verdict": r.verdict.value, "lhs": _side_text(r.lhs),
         "rhs": _side_text(r.rhs), "undefined_site": r.undefined_site} for case, r in results]}
    triple = [_n_d(q) for q in t]
    rows = [[case.label, case.outer.value, case.inner.value, *triple, r.verdict.value,
             _side_text(r.lhs) or "", _side_text(r.rhs) or "", r.undefined_site or ""]
            for case, r in results]
    lines = [f"triple {','.join(triple)}"] + [
        f"{case.label:>3} {case.outer.value}/{case.inner.value}: "
        + (f"UNDEFINED  site: {r.undefined_site}" if r.verdict is Verdict.UNDEFINED
           else f"{r.verdict.value}  lhs={_side_text(r.lhs)}  rhs={_side_text(r.rhs)}")
        for case, r in results]
    return _reference_text(fmt, doc, _CHECK_COLUMNS, rows, lines)


_CHECK_COLUMNS = ["case", "outer", "inner", "r1", "r2", "r3",
                  "verdict", "lhs", "rhs", "undefined_site"]
# Zeros reach every UNDEFINED site; the examples reach each one for certain.
_CLASSIFY_COMPONENTS = st.one_of(st.just(Fraction(0)),
                                 st.sampled_from([Fraction(1), Fraction(-1)]), _FRACTIONS)


_40_DIGITS = (Fraction(10**39 + 3, 10**39 + 7), Fraction(-(10**40 - 3), 10**38 + 1),
              Fraction(7**47, 3**83))


@settings(max_examples=150, deadline=None)
@given(st.builds(Triple, *[_CLASSIFY_COMPONENTS] * 3))
@example(Triple.of(0, 0, 0))
@example(Triple.of(0, 0, 1))
@example(Triple.of(0, 1, 0))
# HOLDS rows whose two sides the kernel computes at different scales, with
# the lhs's pair not in lowest terms on some: a HOLDS row writes its rhs
# from the lhs's reduced pair. L1 and L2 on ~40-digit components; r1 = 0;
# mul over mul with r3 = 0.
@example(Triple(*_40_DIGITS))
@example(Triple(Fraction(0), _40_DIGITS[1], _40_DIGITS[2]))
@example(Triple(_40_DIGITS[2], Fraction(1), Fraction(0)))
def test_classify_rows_match_an_independent_renderer(t):
    argv = ["classify", "--triple", ",".join(map(_n_d, t))]
    for fmt, run in _run_formats(argv).items():
        assert run == (0, _classify_reference(fmt, t)), fmt


@st.composite
def _case12_inputs(draw) -> tuple:
    """An odd N1, an N2 coprime to it (either may be negative), a --list
    count and the degenerate flag."""
    n1 = 2 * draw(st.integers(-10**6, 10**6) | st.integers(-10**40, 10**40)) + 1
    n2 = draw(st.integers(-10**6, 10**6).filter(lambda n: n and math.gcd(n1, n) == 1))
    return n1, n2, draw(st.integers(1, 30)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_case12_inputs())
@example((3, 2, 1, True))  # delta 1 gives the degenerate (3, 2, 0)
@example((3, 2, 1, False))
def test_construct12_rows_match_an_independent_renderer(inputs):
    n1, n2, count, degenerate = inputs
    pairs = list(number_theory.case12_enumerate(n1, n2, count, allow_degenerate=degenerate))
    assert len(pairs) == count
    rows = [[str(n1), str(n2), str(delta), *map(_n_d, t)] for delta, t in pairs]
    doc = {"command": "construct12", "n1": n1, "n2": n2,
           "results": [{"delta": delta, "triple": _reference(t)} for delta, t in pairs]}
    lines = [f"delta={delta} -> {','.join(map(_n_d, t))}" for delta, t in pairs]
    argv = ["construct12", "--n1", str(n1), "--n2", str(n2), "--list", str(count)]
    for fmt, run in _run_formats(argv + ["--allow-degenerate"] * degenerate).items():
        assert run == (0, _reference_text(fmt, doc, ["n1", "n2", "delta", "r1", "r2", "r3"],
                                          rows, lines)), fmt


_WIDE = "7" * 3000  # components that print; a product of two has 6,000 digits


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("argv", [
    # mul over mul: both sides are A*A.
    ["classify", "--triple", f"1,{_WIDE},{_WIDE}"],
    # A 4,300-digit N1 prints, but delta*N1 for a delta above 1 does not.
    ["construct12", "--n1", "9" * 4299 + "7", "--n2", "2", "--list", "3"],
], ids=["classify", "construct12"])
def test_a_listed_value_past_the_digit_limit_exits_3_with_nothing_printed(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error:") and "digits" in err


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_every_grid_triple_listed_matches_an_independent_renderer(capsys, fmt):
    # Multiplication over addition holds everywhere: 27**3 rows in grid order.
    values = oracle.enumerate_rationals(_BOUNDS)
    triples = [Triple(*t) for t in itertools.product(values, repeat=3)]
    assert len(triples) == 19683
    code, out, err = run_cli(capsys, "search", "--case", "L1", *_GRID_OPTIONS, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _search_reference(fmt, case_from_label("L1"), _BOUNDS, triples)


@pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("command", ["search", "verify"])
def test_listings_on_each_side_of_a_chunk_boundary_match_an_independent_renderer(
        capsys, monkeypatch, tmp_path, command, count):
    listed = [Triple(Fraction(i), Fraction(-i, 7), Fraction(1, i + 2)) for i in range(count)]
    report = oracle.VerificationReport(
        case=case_from_label("13"), bounds=_BOUNDS, total_triples=27**3, holds=2 * count,
        missing_count=count, spurious_count=min(count, 1), coverage_gap_count=count,
        missing=tuple(listed), spurious=tuple(listed[:1]), coverage_gap=tuple(listed),
        list_limit=None)
    # Search lists `count` rows of r1 = values[1]: positions 0 to count - 1.
    values = [Fraction(i, 7) for i in range(-23, 23)]
    partitions = [array("q")] * len(values)
    partitions[1] = array("q", range(count))
    monkeypatch.setattr(oracle, "search_positions",
                        lambda *args, **kwargs: (values, iter(partitions)))
    monkeypatch.setattr(oracle, "verify_characterization", lambda *args, **kwargs: report)
    target = tmp_path / "out.txt"
    for fmt in ("json", "csv", "plain"):
        expected = (_search_reference(fmt, report.case, _BOUNDS, _listed(values, partitions))
                    if command == "search" else _verify_reference(fmt, report))
        code = 0 if command == "search" or report.exact else 1
        argv = [command, "--case", "13", *_GRID_OPTIONS, "--format", fmt]
        assert run_cli(capsys, *argv) == (code, expected, "")
        assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", "")
        assert target.read_text(encoding="utf-8") == expected


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_rendering_a_listing_takes_little_more_memory_than_its_text(monkeypatch, fmt):
    # The positions exist before tracing starts, as a scan's result would:
    # L1 lists the whole grid.
    values = oracle.enumerate_rationals(_BOUNDS)
    partitions = [array("q", range(len(values) ** 2)) for _ in values]
    monkeypatch.setattr(oracle, "search_positions",
                        lambda *args, **kwargs: (values, iter(partitions)))
    argv = ["search", "--case", "L1", *_GRID_OPTIONS, "--format", fmt]
    monkeypatch.setattr(sys, "stdout", _CountingSink())
    assert cli.run(argv) == 0  # builds the parser before tracing
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.written > 250_000
    assert peak <= 1.5 * sink.written + 256 * 1024, (peak, sink.written)


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_a_reader_that_closes_the_pipe_early_leaves_no_traceback(fmt):
    # The first reader goes after one line of about 0.26 to 1 MB of output,
    # far more than a pipe holds, so a write fails. The second goes before
    # the writer starts, so its 27 rows fail in the flush and are still in
    # stdout's buffer at exit.
    for grid, lines in [(_GRID_OPTIONS, 1), (["--num-bound", "1", "--den-bound", "1"], 0)]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "distribq", "search", "--case", "L1", *grid,
             "--format", fmt], env=_entry_point_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        try:
            read = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert b"" not in read
        assert (code, err) == (0, b""), grid


def _entry_point_env() -> dict:
    """The environment in which `python -m distribq` imports this checkout,
    with stdout buffered as by default, so that the flush at exit still has
    text to write after a failed write."""
    src = str(Path(distribq.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


_CHECK_ARGV = ["check", "--outer", "mul", "--inner", "add", "--triple", "1,2,3"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("argv", [_CHECK_ARGV, ["search", "--case", "L1", *_GRID_OPTIONS]])
def test_a_failed_write_to_stdout_is_a_usage_error(argv, fmt):
    # A short output fails in the flush, a long one in a write; either way
    # one line on stderr, and the flush at exit adds nothing.
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "distribq", *argv, "--format", fmt],
                              env=_entry_point_env(), stdout=full, stderr=subprocess.PIPE,
                              timeout=60)
    message = f"usage error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert (proc.returncode, proc.stderr.decode()) == (2, message)


@pytest.mark.skipif(sys.platform == "win32", reason="needs a POSIX shell")
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_stdout_closed_from_the_start_is_a_usage_error(fmt):
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m distribq "$@" >&-', sys.executable,
                           *_CHECK_ARGV, "--format", fmt],
                          env=_entry_point_env(), stderr=subprocess.PIPE, timeout=60)
    message = f"usage error: cannot write stdout: {os.strerror(errno.EBADF)}\n"
    assert (proc.returncode, proc.stderr.decode()) == (2, message)


# A domain error (exit 3) and a usage error found after parsing (exit 2).
_REPORTED_ERRORS = [(["solve", "--case", "14", "--r1", "0", "--r3", "0"], 3),
                    (["generate", "--case", "1", "--family", "1", "--params", "x"], 2)]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, code", _REPORTED_ERRORS)
def test_a_failed_write_to_stderr_keeps_the_exit_code(argv, code):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "distribq", *argv],
                              env=_entry_point_env(), stdout=subprocess.PIPE, stderr=full,
                              timeout=60)
    assert (proc.returncode, proc.stdout) == (code, b"")


@pytest.mark.skipif(sys.platform == "win32", reason="needs a POSIX shell")
@pytest.mark.parametrize("argv, code", _REPORTED_ERRORS)
def test_stderr_closed_from_the_start_keeps_the_exit_code(argv, code):
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m distribq "$@" 2>&-', sys.executable,
                           *argv], env=_entry_point_env(), stdout=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, b"")


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS to cap allocations")
def test_a_command_that_runs_out_of_memory_exits_3_with_one_line():
    """A grid of 2e23 + 1 values, whose value list outgrows a 400 MB address
    space: one error line, nothing on stdout, no traceback."""
    resource = pytest.importorskip("resource")

    def limit():  # runs in the child before it starts: this process keeps its limits
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 400 << 20 if hard == resource.RLIM_INFINITY else min(400 << 20, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    argv = ["search", "--case", "1", "--num-bound", "1" + "0" * 23, "--den-bound", "1"]
    proc = subprocess.run([sys.executable, "-m", "distribq", *argv], env=_entry_point_env(),
                          preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: the command ran out of memory\n")


class _FullStream(io.TextIOBase):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv, code", _REPORTED_ERRORS)
def test_run_ignores_a_failed_write_to_stderr(monkeypatch, argv, code):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", _FullStream())
    assert cli.run(argv) == code
    assert out.getvalue() == ""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_failed_write_to_a_stdout_without_a_descriptor_reports_its_own_error(monkeypatch):
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _FullStream())
    monkeypatch.setattr(sys, "stderr", err)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        assert cli.run(_CHECK_ARGV) == 2
    assert len(os.listdir("/proc/self/fd")) == before
    message = f"usage error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert err.getvalue() == 5 * message


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, full, code", [
    (["--help"], "stdout", 0),
    (["verify", "-h"], "stdout", 0),
    (["solve", "--case", "13", "--r1", "x", "--r3", "1"], "stderr", 2),
    (["nonsense"], "stderr", 2),
])
def test_help_and_parser_errors_to_a_full_stream_keep_the_exit_code(argv, full, code):
    # argparse ignores its failed write, but the text stays in the buffered
    # stream, and the flush at exit must not fail on it again.
    with open("/dev/full", "w") as sink:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, full: sink}
        proc = subprocess.run([sys.executable, "-m", "distribq", *argv],
                              env=_entry_point_env(), timeout=60, **streams)
    other = proc.stderr if full == "stdout" else proc.stdout
    assert (proc.returncode, other) == (code, b"")


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("command", ["search", "verify"])
def test_a_listed_component_past_the_digit_limit_fails_as_one_value_does(
        capsys, monkeypatch, command, fmt):
    # Listed rows are written from each component's text in every format;
    # a component too long to print gives the single value's error.
    big = Fraction(10**699, 7)  # a 700-digit numerator
    listed = [Triple.of(1, "-2/3", 0), Triple(Fraction(1), big, Fraction(0))]
    # Search's grid lists the same two rows, (1, -2/3, 0) and (1, big, 0).
    values = [Fraction(1), Fraction(-2, 3), Fraction(0), big]
    partitions = [array("q", [1 * 4 + 2, 3 * 4 + 2]), array("q"), array("q"), array("q")]
    report = oracle.VerificationReport(
        case=case_from_label("12"), bounds=_BOUNDS, total_triples=27**3, holds=2,
        missing_count=0, spurious_count=0, coverage_gap_count=2, missing=(), spurious=(),
        coverage_gap=tuple(listed), list_limit=100)
    monkeypatch.setattr(oracle, "search_positions",
                        lambda *args, **kwargs: (values, iter(partitions)))
    monkeypatch.setattr(oracle, "verify_characterization", lambda *args, **kwargs: report)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(DomainError) as single:
            cli._text(big)
        result = run_cli(capsys, command, "--case", "12", *_GRID_OPTIONS, "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert "640 digits" in str(single.value)
    assert result == (3, "", f"error: {single.value}\n")


@pytest.mark.parametrize("words, joined", [
    (["solve", "--case", "12", "--r1", "7/3", "--r3", "-5/2"],
     ["solve", "--case", "12", "--r1", "7/3", "--r3=-5/2"]),
    (["solve", "--case", "add/div", "--r1", "-3/4", "--r3", "2/5"],
     ["solve", "--case", "add/div", "--r1=-3/4", "--r3", "2/5"]),
    (["check", "--outer", "add", "--inner", "add", "--triple", "-1,2,3"],
     ["check", "--outer", "add", "--inner", "add", "--triple=-1,2,3"]),
    (["family5", "--a", "4", "--f", "1", "--k", "1", "--sign", "-"],
     ["family5", "--a", "4", "--f", "1", "--k", "1", "--sign=-"]),
])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_negative_value_may_follow_its_option_as_a_separate_word(capsys, words, joined, fmt):
    spaced = run_cli(capsys, *words, "--format", fmt)
    assert spaced == run_cli(capsys, *joined, "--format", fmt)
    assert spaced[0] in (0, 1) and spaced[2] == ""


def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no-such-directory" / "out.json"
    code, out, err = run_cli(capsys, "check", "--outer", "mul", "--inner", "add",
                             "--triple", "1,2,3", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write") and str(target) in err
    assert not target.exists()


def test_empty_output_path_is_a_usage_error(capsys):
    # An unset variable in `--output "$OUT"` must not fall back to stdout.
    code, out, err = run_cli(capsys, "check", "--outer", "mul", "--inner", "add",
                             "--triple", "1,2,3", "--output", "")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write")


@pytest.mark.parametrize("where", ["missing parent", "empty", "directory", "read-only parent",
                                   "read-only file"])
def test_unwritable_output_path_fails_before_the_command_runs(tmp_path, capsys, monkeypatch,
                                                              where):
    calls = []
    monkeypatch.setattr(oracle, "verify_characterization",
                        lambda *args, **kwargs: calls.append(args))
    # A directory and a file the process may not write to; a stand-in for
    # os.access, because chmod does not stop a superuser.
    locked = tmp_path / "locked"
    locked.mkdir()
    kept = tmp_path / "kept.txt"
    kept.write_bytes(b"old bytes\n")
    access = os.access
    monkeypatch.setattr(os, "access",
                        lambda path, mode: path not in (str(locked), str(kept))
                        and access(path, mode))
    target = {"missing parent": tmp_path / "no-such-directory" / "out.txt",
              "empty": "", "directory": tmp_path,
              "read-only parent": locked / "out.txt", "read-only file": kept}[where]
    code, out, err = run_cli(capsys, "verify", "--case", "12", "--num-bound", "10",
                             "--den-bound", "4", "--output", str(target))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"usage error: cannot write {target}:")
    assert err.endswith(f": {os.strerror(errno.EACCES)}\n") == where.startswith("read-only")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt", "locked"]
    assert list(locked.iterdir()) == []
    assert kept.read_bytes() == b"old bytes\n"


def test_an_existing_writable_file_in_a_read_only_directory_is_written(
        tmp_path, capsys, monkeypatch):
    # A stand-in for os.access, as above: the process may write the file
    # but not its directory, so the file can be opened but not created.
    locked = tmp_path / "locked"
    locked.mkdir()
    target = locked / "out.txt"
    target.write_bytes(b"old bytes\n")
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: path != str(locked) and access(path, mode))
    argv = ["solve", "--case", "13", "--r1", "3", "--r3", "-1"]
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and target.read_text(encoding="utf-8") == out


def test_every_printed_rational_reparses(capsys):
    _, out, _ = run_cli(capsys, "search", "--case", "12", "--num-bound", "3",
                        "--den-bound", "2", "--format", "json")
    doc = json.loads(out)
    for triple in doc["triples"]:
        for text in triple:
            q = parse_rational(text)
            assert format_rational(q) == text


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "check", "--outer", "pow", "--inner", "add",
                   "--triple", "1,2,3")[0] == 2
    assert run_cli(capsys, "check", "--outer", "add", "--inner", "add",
                   "--triple", "1,2")[0] == 2
    assert run_cli(capsys, "member", "--case", "99", "--triple", "1,2,3")[0] == 2
    assert run_cli(capsys, "member", "--case", "pow/add", "--triple", "1,2,3")[0] == 2
    assert run_cli(capsys, "check", "--outer", "add", "--inner", "add",
                   "--triple", "1,2,1/0")[0] == 2
    # int() takes both; a trailing newline also slips past a "$" anchor.
    for triple in ["6,4,-3\n", "\u0666,\u0664,-\u0663"]:
        code, out, err = run_cli(capsys, "check", "--outer", "sub", "--inner", "mul",
                                 "--triple", triple)
        assert code == 2 and out == "" and "argument --triple: malformed rational" in err
    code, _, err = run_cli(capsys, "search", "--case", "1", "--num-bound", "0",
                           "--den-bound", "1")
    assert code == 2 and "--num-bound: must be >= 1" in err
    for argv, option in [
        (["search", "--case", "1", "--num-bound", "x", "--den-bound", "1"], "--num-bound"),
        (["verify", "--case", "1", "--num-bound", "1", "--den-bound", "1",
          "--limit", "1.5"], "--limit"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"argument {option}: expected a positive integer" in err
        assert "_positive_int" not in err
    assert run_cli(capsys, "search", "--case", "1", "--num-bound", "-1",
                   "--den-bound", "1")[0] == 2
    # Integers follow the rationals' grammar: int() would take each of these.
    for argv in [
        ["diophantine", "--p", " \u0663\n", "--q", "1", "--t", "1"],
        ["diophantine", "--p", "1", "--q", "1_0", "--t", "1"],
        ["search", "--case", "1", "--num-bound", " 1_0", "--den-bound", "1"],
        ["search", "--case", "1", "--num-bound", "1", "--den-bound", "\u0661"],
        ["generate", "--case", "12", "--family", " +4 ", "--params", "delta=2"],
        ["generate", "--case", "12", "--family", "4", "--params", "delta=\u0663"],
        ["generate", "--case", "12", "--family", "4", "--params", "delta=+2"],
        ["generate", "--case", "11", "--family", "2", "--params", "r2 = 1/2,r3=1"],
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err != ""
    for case, family, params, names in [
        ("12", "4", "delta=x", "parameter delta:"),
        ("14", "3", "e=1,f=3,printed_form=maybe", "parameter printed_form:"),
        ("13", "5", "a=4,f=1,k=1,sign=0", "parameter sign:"),
        ("12", "4", "delta", "parameter 'delta'"),
        ("13", "3", "a=2,a=5", "parameter a: given more than once"),
    ]:
        code, out, err = run_cli(capsys, "generate", "--case", case, "--family", family,
                                 "--params", params)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and names in err


@pytest.mark.parametrize("text", ["-0", "007"])
def test_integer_options_take_what_parse_rational_takes(capsys, text):
    value = parse_rational(text)
    assert run_cli(capsys, "diophantine", "--p", text, "--q", "1", "--t", "1") == \
        run_cli(capsys, "diophantine", "--p", str(value), "--q", "1", "--t", "1")
    assert run_cli(capsys, "generate", "--case", "12", "--family", "4",
                   "--params", "delta=" + text) == \
        run_cli(capsys, "generate", "--case", "12", "--family", "4",
                "--params", f"delta={value}")


@given(st.text(alphabet="-+0123456789 _\n/\u0663", max_size=6))
def test_an_integer_is_a_rational_without_a_denominator(text):
    try:
        expected = parse_rational(text) if "/" not in text else None
    except cli._UsageError:
        expected = None
    try:
        got = cli._integer(text)
    except cli._UsageError:
        got = None
    assert got == expected


def test_search_output_is_identical_across_job_counts(capsys):
    runs = []
    for jobs in ("1", "8"):
        _, out, _ = run_cli(capsys, "search", "--case", "12", "--num-bound", "5",
                            "--den-bound", "2", "--jobs", jobs)
        runs.append(out)
    assert runs[0] == runs[1]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    run_cli(capsys, "solve", "--case", "13", "--r1", "3", "--r3", "-1")
    first = len(built)
    every_subcommand = [
        ["check", "--outer", "sub", "--inner", "mul", "--triple", "6,4,-3"],
        ["classify", "--triple", "0,2,3"],
        ["member", "--case", "12", "--triple", "2,5,1"],
        ["generate", "--case", "12", "--family", "4", "--params", "delta=2"],
        ["solve", "--case", "13", "--r1", "3", "--r3", "-1"],
        ["diophantine", "--p", "1", "--q", "1", "--t", "1"],
        ["construct12", "--n1", "3", "--n2", "2", "--list", "3"],
        ["family5", "--a", "4", "--f", "1", "--k", "1", "--sign", "-"],
        ["search", "--case", "12", "--num-bound", "1", "--den-bound", "1"],
        ["verify", "--case", "13", "--num-bound", "1", "--den-bound", "1"],
    ]
    for argv in every_subcommand:
        for fmt in ("plain", "json", "csv"):
            assert run_cli(capsys, *argv, "--format", fmt)[0] == 0
    assert len(built) == first


# Well-formed values of each option, by flag; a value of the fast path's
# grammar may follow its flag as a separate word.
_GOOD_VALUES = {
    "--outer": ["sub", "MUL"], "--inner": ["add", " Div "],
    "--triple": ["6,4,-3", "-1/2,0,7"], "--case": ["12", "L1", "sub/mul"],
    "--family": ["4", "-0"], "--params": ["delta=2", "", "a=4,f=1,k=1,sign=-"],
    "--r1": ["7/3", "-5/2"], "--r3": ["0", "-1"], "--p": ["3", "-6"], "--q": ["5"],
    "--t": ["-10"], "--n1": ["3"], "--n2": ["2", "-2"], "--delta": ["2", "-1"],
    "--list": ["10"], "--a": ["4"], "--f": ["1"], "--k": ["-1"],
    "--sign": ["+", "-1", "+1"], "--num-bound": ["1", "6"], "--den-bound": ["2"],
    "--jobs": ["1", "8"], "--limit": ["3"], "--format": ["json", "csv", "plain"],
    "--output": ["out.txt"],
}
# Values the parser or a type refuses, or that the fast path leaves to argparse.
_ODD_VALUES = ["-5/2", "-", "--", "-x", "", "7" * 5000, "-" + "7" * 5000, "xml", "x",
               "+3", " 1", "-h", "--format", "1/0", "-5/2 x"]
_WORDS = ["-h", "--help", "--", "-", "-x", "--bogus", "x", "-5", "--allow-degenerate=1"]


def _command_flags(command: str) -> tuple[list, list]:
    """The command's value options, and the required ones, read from `_COMMANDS`."""
    flags = [flag for flag, kwargs in cli._COMMANDS[command][2]
             if kwargs.get("action") != "store_true"] + ["--format", "--output"]
    return flags, [flag for flag, kwargs in cli._COMMANDS[command][2] if kwargs.get("required")]


@st.composite
def _argvs(draw):
    """A command's required options with well-formed values, then options,
    abbreviations, odd values and stray words, in any order, as either
    spelling."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags, required = _command_flags(command)
    items = [[flag, draw(st.sampled_from(_GOOD_VALUES[flag]))] for flag in required]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(flags))
        kind = draw(st.sampled_from(["good", "odd", "abbreviated", "word", "store-true"]))
        if kind == "word":
            items.append([draw(st.sampled_from(_WORDS))])
        elif kind == "store-true":
            items.append(["--allow-degenerate"])
        else:
            value = draw(st.sampled_from(_GOOD_VALUES[flag] if kind == "good" else _ODD_VALUES))
            if kind == "abbreviated":
                flag = flag[:draw(st.integers(2, len(flag) - 1))]
            items.append([flag, value])
    argv = [command]
    for item in draw(st.permutations(items)):
        argv += ["=".join(item)] if len(item) == 2 and draw(st.booleans()) else item
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_the_fast_path_reads_what_argparse_reads(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        fast = cli._parse(argv)
    assert (out.getvalue(), err.getvalue()) == ("", "")
    if fast is not None:
        assert vars(fast) == vars(cli._build_parser().parse_args(argv))


def _golden_argvs() -> list:
    with open(Path(__file__).with_name("golden_cli.json"), encoding="utf-8") as fh:
        return [entry["argv"] for entry in json.load(fh)]


def _items(argv: list) -> list:
    """The options after argv's command, each [flag, value] or a store-true [flag]."""
    items, i = [], 1
    while i < len(argv):
        if argv[i] == "--allow-degenerate":
            item, i = [argv[i]], i + 1
        elif "=" in argv[i]:
            item, i = argv[i].split("=", 1), i + 1
        else:
            item, i = argv[i:i + 2], i + 2
        items.append(item)
    return items


def _spelled(argv: list, joined: bool) -> list:
    """argv with each option and its value as one word --flag=VALUE, or
    else as two words wherever the value may stand alone."""
    out = [argv[0]]
    for item in _items(argv):
        alone = len(item) == 1 or not re.match(r"-(?!\d)", item[1])
        out += ["=".join(item)] if len(item) == 2 and (joined or not alone) else item
    return out


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_well_formed_argv_takes_the_fast_path(command):
    flags, required = _command_flags(command)
    argvs = [argv for argv in _golden_argvs() if argv[0] == command]
    # Every option with each of its well-formed values, after the required ones.
    base = [word for flag in required for word in (flag, _GOOD_VALUES[flag][0])]
    argvs += [[command, *base, flag, value] for flag in flags for value in _GOOD_VALUES[flag]]
    if command == "construct12":
        argvs += [[*argv, "--allow-degenerate"] for argv in argvs]
    parser = cli._build_parser()
    for argv in argvs:
        for spelled in (_spelled(argv, joined=False), _spelled(argv, joined=True)):
            fast = cli._parse(spelled)
            assert fast is not None, spelled
            assert vars(fast) == vars(parser.parse_args(spelled))


@pytest.mark.parametrize("command, flag", [(command, flag) for command in sorted(cli._COMMANDS)
                                           for flag in _command_flags(command)[0]])
def test_a_value_of_double_dash_is_the_parser_s_error(capsys, command, flag):
    # Before Python 3.13, argparse dropped the "--" of --flag=-- and stored
    # [] without calling the type.
    base = [word for required in _command_flags(command)[1]
            for word in (required, _GOOD_VALUES[required][0])]
    code, out, err = run_cli(capsys, command, *base, f"{flag}=--")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"distribq {command}: error: argument {flag}: ")


# Values put in place of a golden argv's own, or between its options.
_MUTANT_VALUES = ["-", "", "-x", "=", "1/0", "0/0", "7" * 5000, "\u0663"]
# A grid's size is not checked before it is enumerated, so search and
# verify run on a small one here.
_SMALL_GRID = {"--num-bound": "2", "--den-bound": "1", "--jobs": "1"}


@st.composite
def _mutated_argvs(draw):
    """A golden argv with values replaced or given a leading space, odd
    words put in and options dropped, each option then spelled as one
    word or two."""
    argv = draw(st.sampled_from(_golden_argvs()))
    items = [[item[0], _SMALL_GRID.get(item[0], item[1])] if len(item) == 2 else item
             for item in _items(argv)]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["value", "space", "word", "drop"]))
        if kind == "word":
            items.insert(draw(st.integers(0, len(items))), [draw(st.sampled_from(_MUTANT_VALUES))])
        elif items:
            i = draw(st.integers(0, len(items) - 1))
            if kind == "drop":
                del items[i]
            elif len(items[i]) == 2:
                flag, value = items[i]
                items[i] = [flag, draw(st.sampled_from(_MUTANT_VALUES)) if kind == "value"
                            else " " + value]
    out = [argv[0]]
    for item in items:
        out += ["=".join(item)] if len(item) == 2 and draw(st.booleans()) else item
    return out


@settings(max_examples=300, deadline=None)
@given(_mutated_argvs())
def test_mutated_golden_argvs_keep_the_exit_code_contract(argv):
    # No exception escapes run, and an error exit prints nothing to stdout.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2, 3), argv
    assert code < 2 or out.getvalue() == "", argv


def test_runs_in_one_process_match_fresh_module_runs(monkeypatch, capsys, tmp_path):
    """Each step of one interleaved in-process sequence gives the same stdout,
    stderr, exit code and --output file as `python -m distribq` run afresh."""
    target = str(tmp_path / "out.json")
    steps = [
        ["check", "--outer", "sub", "--inner", "mul"],  # no --triple: exit 2
        ["solve", "--case", "13", "--r1", "3", "--r3", "-1"],
        ["--help"],
        ["member", "--case", "12", "--triple", "2,5,1", "--format", "json"],
        ["verify", "-h"],
        ["generate", "--case", "12", "--family", "4", "--params", "delta=2",
         "--format", "csv"],
        ["classify", "--triple", "0,2,3", "--format", "xml"],
        ["classify", "--triple", "0,2,3"],
        ["generate", "--case", "12", "--family", "4", "--params", "bogus=1"],
        ["diophantine", "--p", "1", "--q", "1", "--t", "1", "--format", "json"],
        ["search", "--case", "1", "--num-bound", "x", "--den-bound", "1"],
        ["search", "--case", "12", "--num-bound", "2", "--den-bound", "1",
         "--format", "csv"],
        ["family5", "--a", "2", "--f", "1", "--k", "1", "--sign=+"],
        ["construct12", "--n1", "3", "--n2", "2", "--list", "3"],
        ["check", "--outer", "mul", "--inner", "add", "--triple", "1,2,3",
         "--format", "json", "--output", target],
        ["check", "--outer", "mul", "--inner", "add", "--triple", "1,2,3",
         "--format", "json"],
        ["solve", "--case", "12", "--r1", "7/3", "--r3", "-5/2"],
        ["verify", "--case", "12", "--num-bound", "6", "--den-bound", "1",
         "--limit", "1"],
    ]

    def written():
        if not os.path.exists(target):
            return None
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(target)
        return text

    # The parser may be built under another width; help must wrap at 80.
    monkeypatch.setenv("COLUMNS", "200")
    assert run_cli(capsys, "member", "--case", "12", "--triple", "2,5,1")[0] == 0
    monkeypatch.setenv("COLUMNS", "80")
    in_process = []
    for argv in steps:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err, written()))

    src = str(Path(distribq.__file__).resolve().parent.parent)
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv, seen in zip(steps, in_process):
        fresh = subprocess.run([sys.executable, "-m", "distribq", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert seen == (fresh.returncode, fresh.stdout, fresh.stderr, written()), argv
    assert [seen[0] for seen in in_process] == [
        2, 0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0, 3, 0, 0, 0, 0, 0]
    assert in_process[14][1] == "" and in_process[14][3] == in_process[15][1]


# Each command, and the library function that its handler calls, by module
# and attribute.
_CALLEES = [
    (["check", "--outer", "sub", "--inner", "mul", "--triple", "6,4,-3"], "cli", "check"),
    (["classify", "--triple", "1,0,0"], "cli", "check"),
    (["member", "--case", "12", "--triple", "2,5,1"], "catalog", "member"),
    (["solve", "--case", "13", "--r1", "3", "--r3", "-1"], "catalog", "solve_r2"),
    (["generate", "--case", "12", "--family", "4", "--params", "delta=2"],
     "catalog", "generate"),
    (["diophantine", "--p", "3", "--q", "5", "--t", "1"],
     "number_theory", "solve_linear_diophantine"),
    (["construct12", "--n1", "3", "--n2", "2", "--delta", "2"],
     "number_theory", "case12_construct"),
    (["construct12", "--n1", "3", "--n2", "2", "--list", "3"],
     "number_theory", "case12_enumerate"),
    (["family5", "--a", "3", "--f", "1", "--k", "0", "--sign", "+"],
     "number_theory", "case13_family5"),
    (["search", "--case", "12", "--num-bound", "2", "--den-bound", "2"],
     "oracle", "search_positions"),
    (["verify", "--case", "12", "--num-bound", "2", "--den-bound", "2"],
     "oracle", "verify_characterization"),
]

_REPLACED_AFTER_A_RUN = """
import contextlib, io, json, sys
import distribq
from distribq import cli

argv, module, name = json.loads(sys.argv[1])


def output():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run(argv)
    return code, out.getvalue()


first = output()
module = getattr(distribq, module)
original, calls = getattr(module, name), []


def recorder(*args, **kwargs):
    calls.append(name)
    return original(*args, **kwargs)


setattr(module, name, recorder)
print(json.dumps({"same": output() == first, "called": bool(calls)}))
"""


@pytest.mark.parametrize("argv, module, name", _CALLEES,
                         ids=[f"{argv[0]}-{name}" for argv, _, name in _CALLEES])
def test_a_library_function_replaced_after_the_first_run_is_the_one_called(argv, module, name):
    """In a fresh interpreter, where the first run imports the module: a
    recorder put in place of the function afterwards is called by the next
    run, which writes the same stdout."""
    done = subprocess.run([sys.executable, "-c", _REPLACED_AFTER_A_RUN,
                           json.dumps([argv, module, name])],
                          env=_entry_point_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"same": True, "called": True}
