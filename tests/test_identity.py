"""The identity checker: operation pairings, verdicts, and undefinedness."""

import copy
import math
import operator
import os
import pickle
import re
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distribq import catalog, identity
from distribq.identity import (
    ALL_CASES,
    BinOp,
    CaseId,
    CheckResult,
    Triple,
    Verdict,
    case_from_label,
    check,
)
from distribq.oracle import (
    SearchBounds,
    enumerate_rationals,
    search_solutions,
    verify_characterization,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
triples = st.builds(Triple, rationals, rationals, rationals)

# Zeros and units trigger every undefined site; components of about 40
# digits exercise the integer kernel far past machine-word sizes.
components = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    rationals,
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**40),
    ),
)

EXPECTED_LABELS = {
    ("add", "add"): "1",
    ("add", "sub"): "2",
    ("mul", "mul"): "3",
    ("mul", "div"): "4",
    ("sub", "sub"): "5",
    ("sub", "add"): "6",
    ("div", "div"): "7",
    ("div", "mul"): "8",
    ("div", "add"): "9",
    ("div", "sub"): "10",
    ("add", "mul"): "11",
    ("sub", "mul"): "12",
    ("add", "div"): "13",
    ("sub", "div"): "14",
    ("mul", "add"): "L1",
    ("mul", "sub"): "L2",
}


def test_case_labels_cover_all_sixteen_pairings():
    seen = {}
    for outer in BinOp:
        for inner in BinOp:
            case = CaseId(outer, inner)
            assert case.label == EXPECTED_LABELS[(outer.value, inner.value)]
            seen[case.label] = case
    assert len(seen) == 16
    assert len(ALL_CASES) == 16


def test_case_number_is_none_for_base_laws():
    assert case_from_label("L1").case_number is None
    assert case_from_label("12").case_number == 12
    assert case_from_label("l2") == CaseId(BinOp.MUL, BinOp.SUB)
    assert case_from_label(7) == CaseId(BinOp.DIV, BinOp.DIV)


def test_unknown_label_raises():
    # A value no dict can hold is an unknown label too, not a TypeError.
    for label in ("15", "pow/add", "sub/mul/add", "sub/", "12/13", "", "1 2",
                  ["1"], {"L1": 1}, None, 1.0):
        with pytest.raises(KeyError, match="unknown case label"):
            case_from_label(label)


def test_case_from_label_accepts_operation_pairs():
    assert case_from_label("sub/mul") == case_from_label(12)
    assert case_from_label(" SUB / Mul ") == CaseId(BinOp.SUB, BinOp.MUL)
    for case in ALL_CASES:
        pair = f"{case.outer.value}/{case.inner.value}"
        assert case_from_label(pair) == case
        # The table's own spelling is read as it is, any other normalised first.
        for label in (case.label, case.label.lower(), f" {case.label} ", pair.upper(),
                      f" {pair.upper()} ".replace("/", " / ")):
            assert case_from_label(label) is case, label


def test_base_law_example_holds():
    result = check(case_from_label("L1"), Triple.of("2/3", "1/2", 5))
    assert result.verdict is Verdict.HOLDS
    assert result.lhs == result.rhs == Triple.of("11/3", 0, 0).r1


def test_addition_over_itself_fails_off_axis():
    result = check(case_from_label(1), Triple.of(1, 5, 7))
    assert result.verdict is Verdict.FAILS
    assert (result.lhs, result.rhs) == (13, 14)


def test_case12_worked_instance():
    result = check(case_from_label(12), Triple.of(6, 4, -3))
    assert result.verdict is Verdict.HOLDS
    assert result.lhs == result.rhs == 18


def test_undefined_on_rhs_inner_division():
    result = check(case_from_label(13), Triple.of(1, 1, -1))
    assert result.verdict is Verdict.UNDEFINED
    assert result.undefined_site == "inner of rhs"


def test_undefined_site_order_prefers_lhs():
    # r2 / r3 with r3 = 0 is undefined before anything on the rhs.
    result = check(case_from_label(4), Triple.of(1, 2, 0))
    assert result.verdict is Verdict.UNDEFINED
    assert result.undefined_site == "inner of lhs"

    result = check(case_from_label(9), Triple.of(1, 0, 5))
    assert result.undefined_site == "first outer of rhs"


@given(triples)
def test_base_laws_are_universal(t):
    assert check(case_from_label("L1"), t).verdict is Verdict.HOLDS
    assert check(case_from_label("L2"), t).verdict is Verdict.HOLDS


DIVISION_FREE = [case for case in ALL_CASES if BinOp.DIV not in (case.outer, case.inner)]


@given(triples)
def test_division_free_cases_are_never_undefined(t):
    for case in DIVISION_FREE:
        assert check(case, t).verdict is not Verdict.UNDEFINED


@given(triples)
def test_addition_over_itself_is_symmetric_in_r2_r3(t):
    case = case_from_label(1)
    assert check(case, t) == check(case, Triple(t.r1, t.r3, t.r2))


@given(triples)
def test_verdicts_carry_the_right_payload(t):
    for case in ALL_CASES:
        result = check(case, t)
        if result.verdict is Verdict.UNDEFINED:
            assert result.undefined_site is not None
        else:
            assert result.lhs is not None and result.rhs is not None
            assert (result.verdict is Verdict.HOLDS) == (result.lhs == result.rhs)


_FRACTION_OPS = {
    BinOp.ADD: operator.add,
    BinOp.SUB: operator.sub,
    BinOp.MUL: operator.mul,
    BinOp.DIV: operator.truediv,
}


def _reference_check(case, t):
    """The identity as stated, evaluated step by step on Fractions.

    Returns (verdict, lhs, rhs, site) with each side as a (numerator,
    denominator) pair, or None where it is undefined.
    """

    def ev(op, x, y):
        if x is None or y is None or (op is BinOp.DIV and y == 0):
            return None
        return _FRACTION_OPS[op](x, y)

    bc = ev(case.inner, t.r2, t.r3)
    lhs = ev(case.outer, t.r1, bc)
    ab = ev(case.outer, t.r1, t.r2)
    ac = ev(case.outer, t.r1, t.r3)
    rhs = ev(case.inner, ab, ac)
    steps = [
        ("inner of lhs", t.r2, t.r3, bc),
        ("outer of lhs", t.r1, bc, lhs),
        ("first outer of rhs", t.r1, t.r2, ab),
        ("second outer of rhs", t.r1, t.r3, ac),
        ("inner of rhs", ab, ac, rhs),
    ]
    site = next(
        (name for name, x, y, out in steps
         if x is not None and y is not None and out is None),
        None,
    )
    if site is not None:
        verdict = Verdict.UNDEFINED
    else:
        verdict = Verdict.HOLDS if lhs == rhs else Verdict.FAILS

    def pair(q):
        return None if q is None else (q.numerator, q.denominator)

    return verdict, pair(lhs), pair(rhs), site


def _as_reference(result):
    """A CheckResult in `_reference_check`'s form."""

    def pair(q):
        return None if q is None else (q.numerator, q.denominator)

    return result.verdict, pair(result.lhs), pair(result.rhs), result.undefined_site


@settings(max_examples=300)
@given(components, components, components)
def test_check_matches_the_fraction_reference_on_every_case(r1, r2, r3):
    t = Triple(r1, r2, r3)
    for case in ALL_CASES:
        assert _as_reference(check(case, t)) == _reference_check(case, t), case.label


@given(components, components, components)
def test_check_reads_a_plain_tuple_as_it_reads_a_triple(r1, r2, r3):
    # The search scan hands check the plain tuples of itertools.product.
    t = Triple(r1, r2, r3)
    for case in ALL_CASES:
        assert check(case, tuple(t)) == check(case, t), case.label


def _shared(verdict: Verdict, site: str | None) -> CheckResult:
    """The result that a verdict-only check shares for `verdict` and `site`:
    one of seven, one that holds, one that fails and one UNDEFINED per site."""
    if verdict is Verdict.UNDEFINED:
        return identity._UNDEFINED_AT[identity._SITES.index(site)]
    return identity._HELD if verdict is Verdict.HOLDS else identity._FAILED


@settings(max_examples=300)
@given(components, components, components)
def test_a_verdict_only_check_agrees_and_shares_its_decided_results(r1, r2, r3):
    # The grid scans ask for the verdict only: the same verdict and site, in
    # one of the seven shared results, which carry no sides.
    t = Triple(r1, r2, r3)
    for case in ALL_CASES:
        full, bare = check(case, t), check(case, t, True)
        assert bare is _shared(full.verdict, full.undefined_site), case.label
        assert (bare.verdict, bare.undefined_site, bare.lhs, bare.rhs) == (
            full.verdict, full.undefined_site, None, None), case.label
        if full.verdict is not Verdict.UNDEFINED:
            assert full.lhs is not None and full.rhs is not None, case.label


def test_every_kernel_matches_the_fraction_reference_on_a_grid_with_zeros():
    # Full and verdict-only: a verdict-only result is the shared one of the
    # reference's verdict and site.
    for bounds in (SearchBounds(2, 2), SearchBounds(3, 2)):
        values = enumerate_rationals(bounds)
        assert 0 in values
        for case in ALL_CASES:
            kernel = identity._KERNELS[case]
            for t in product(values, repeat=3):
                t = Triple(*t)
                expected = _reference_check(case, t)
                assert _as_reference(kernel(t)) == expected, (case.label, t)
                assert kernel(t, True) is _shared(expected[0], expected[3]), (case.label, t)


# The slot integers that each case's verdict-only path loads on a row miss:
# those its decision and its guard read, or, in cases 11 to 14, those that
# the coefficients of its memo read, and then what a row hit reads (see
# HIT_NUMERATORS). Cases 1 to 10, L1 and L2 keep no memo and load the same
# on every call.
VERDICT_READS = {
    **dict.fromkeys(["1", "2", "5", "6"], "n1"),
    **dict.fromkeys(["3", "4", "7", "8"], "n1 d1 n2 n3"),
    **dict.fromkeys(["9", "10"], "n1 n2 d2 n3 d3"),
    **dict.fromkeys(["11", "12", "13", "14"], "n1 d1 n2 d2"),
    **dict.fromkeys(["L1", "L2"], ""),
}

# The slot integers that each dividing case's verdict-only path loads on an
# UNDEFINED triple and a row miss: those its guard reads, or in cases 13
# and 14 those its coefficients read, and then what a row hit reads.
GUARD_READS = {
    "4": "n1 n3", "7": "n1 n2 n3", "8": "n2 n3",
    **dict.fromkeys(["9", "10"], "n2 d2 n3 d3"),
    **dict.fromkeys(["13", "14"], "n1 d1 n2 d2"),
}

# On a row hit, r1 and r2 being the objects of the call before, a hoisted
# verdict-only path (cases 11 to 14) loads only r3's slots, decided or
# UNDEFINED: n3, and d3 only where n3 equals the numerator of a zero that its
# row keeps, one of its polynomial's rational zeros in r3 or, in cases 13 and
# 14, the zero of the guard atom nac (-r1 or r1). On the row (2/3, -5/7) those
# numerators are 22 (11: r3 = 22/21), 4 (12: 4/33), -2 (13: -2/3) and 2
# (14: 2/3), so r3 = 4/5 reads d3 in case 12 alone. Each triple of HIT_ROOTS
# has for r3 a zero of its row's polynomial, so it holds and reads d3.
HIT_NUMERATORS = {"11": 22, "12": 4, "13": -2, "14": 2}
HIT_ROOTS = {
    "11": (Fraction(2, 3), Fraction(-5, 7), Fraction(22, 21)),
    "12": (Fraction(2, 3), Fraction(-5, 7), Fraction(4, 33)),
    # r3**2 + (r1 - 1)*r3 + r2 has the zeros 1/2 and -1/3.
    "13": (Fraction(5, 6), Fraction(-1, 6), Fraction(1, 2)),
    # r1*r3**2 + (r1 - r1**2 - 2*r2)*r3 + r1*r2 has the zeros 1/4 and -1/2.
    "14": (Fraction(1), Fraction(-1, 8), Fraction(-1, 2)),
}


def _recording(q: Fraction, i: str, reads: list):
    """A component whose slots read those of `q`, appending each read to `reads`."""

    class Component:
        @property
        def _numerator(self):
            reads.append("n" + i)
            return q._numerator

        @property
        def _denominator(self):
            reads.append("d" + i)
            return q._denominator

    return Component()


def test_each_path_of_a_kernel_loads_each_slot_it_reads_once_and_no_other():
    # The first triple is decided in every case; the second, with r3 = 0, is
    # UNDEFINED in every case that divides and decided in the others; the
    # third, in cases 11 to 14, holds with r3 a zero of the row. Each is
    # checked twice by a fresh kernel: a row miss, then a hit with the same
    # r1 and r2 objects and a new r3.
    every = "n1 d1 n2 d2 n3 d3"
    for case in ALL_CASES:
        row = (Fraction(2, 3), Fraction(-5, 7))
        for t in ((*row, Fraction(4, 5)), (*row, Fraction(0)), *[HIT_ROOTS.get(case.label)] * (
                case.label in HIT_ROOTS)):
            r3 = t[2]
            undefined = check(case, t).verdict is Verdict.UNDEFINED
            assert undefined is (not r3 and case.label in GUARD_READS), case.label
            bare = (GUARD_READS if undefined else VERDICT_READS)[case.label]
            hit = bare
            if case.label in HIT_NUMERATORS:
                root = t == HIT_ROOTS[case.label] or r3.numerator == HIT_NUMERATORS[case.label]
                hit = "n3 d3" if root else "n3"
                bare += " " + hit
            for verdict_only, miss, again in ((True, bare, hit), (False, every, every)):
                reads = []
                kernel = identity._build_kernel(case)
                recorded = [_recording(q, i, reads) for i, q in zip("123", t)]
                for expected in (miss, again):
                    assert kernel(tuple(recorded), verdict_only) == check(case, t, verdict_only)
                    assert sorted(reads) == sorted(expected.split()), (case.label, t, verdict_only)
                    reads.clear()
                    recorded[2] = _recording(r3, "3", reads)
        if case.label in HIT_ROOTS:
            assert check(case, HIT_ROOTS[case.label]).verdict is Verdict.HOLDS, case.label
    # L1's and L2's verdict-only paths read no slot, so they take any components.
    assert check(case_from_label("L1"), (1, 2, 3), True) is identity._HELD


def test_importing_the_package_builds_no_kernel():
    # Kernels are generated on a case's first check, so start-up pays for none.
    src = str(Path(identity.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import distribq, distribq.cli; print(len(distribq.identity._KERNELS))"
    fresh = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=60)
    assert (fresh.returncode, fresh.stdout) == (0, "0\n"), fresh.stderr


def test_a_check_builds_only_its_own_case_kernel(monkeypatch):
    monkeypatch.setattr(identity, "_KERNELS", identity._Kernels())
    case = case_from_label(12)
    assert check(case, Triple.of(6, 4, -3)).verdict is Verdict.HOLDS
    assert list(identity._KERNELS) == [case]


def test_equal_case_ids_reach_one_kernel_and_one_member_entry():
    # Pool workers receive the case pickled, so dispatch must not depend on
    # which equal CaseId object a call passes.
    built = CaseId(BinOp.SUB, BinOp.MUL)
    looked_up = case_from_label("12")
    unpickled = pickle.loads(pickle.dumps(looked_up))
    assert unpickled.outer is BinOp.SUB and unpickled.inner is BinOp.MUL
    t = Triple.of(6, 4, -3)
    for case in (looked_up, unpickled):
        assert case == built and hash(case) == hash(built)
        assert identity._KERNELS[case] is identity._KERNELS[built]
        assert catalog._LINEAR[case] is catalog._LINEAR[built]
        assert catalog._MEMBERS[case] is catalog._MEMBERS[built]
        assert catalog._ZERO_DIVISORS[case] is catalog._ZERO_DIVISORS[built]
        assert check(case, t) == check(built, t) and catalog.member(case, t)
    assert len({built, looked_up, unpickled}) == 1


_case_forms = st.sampled_from(["canonical", "built", "pickled"])


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(ALL_CASES), _case_forms, components, components,
                          components), min_size=1, max_size=12))
def test_the_last_case_s_kernel_never_answers_for_another_case(calls):
    # `check` and `member` keep the (case, kernel) pair they looked up last.
    # On an interleaved sequence of cases, each passed as the canonical
    # CaseId, an equal one built afresh or a pickled copy, every call answers
    # as a freshly built kernel of its case does.
    for case, form, r1, r2, r3 in calls:
        passed = {"canonical": case, "built": CaseId(case.outer, case.inner),
                  "pickled": pickle.loads(pickle.dumps(case))}[form]
        t = Triple(r1, r2, r3)
        kernel = identity._build_kernel(case)
        full = kernel(t)
        assert check(passed, t) == full, (case.label, form, t)
        bare = _shared(full.verdict, full.undefined_site)
        assert check(passed, t, True) is kernel(t, True) is bare, (case.label, form, t)
        assert catalog.member(passed, t) == catalog._build_member(case)(t), (case.label, form, t)


def test_threads_scanning_different_cases_get_their_own_case_s_results():
    # Two threads switch between two cases' kernels as often as the
    # interpreter lets them; each scan still equals a scan run alone.
    bounds, rounds = SearchBounds(3, 2), 8
    cases = (case_from_label("12"), case_from_label("L1"))
    expected = {case: search_solutions(case, bounds) for case in cases}
    assert expected[cases[0]] != expected[cases[1]]
    found = {case: [] for case in cases}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda case=case: found[case].extend(
            search_solutions(case, bounds) for _ in range(rounds))) for case in cases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == {case: [expected[case]] * rounds for case in cases}


def _copy(q: Fraction) -> Fraction:
    """A Fraction equal to q that is not q."""
    return Fraction(q.numerator, q.denominator)


_rows = st.lists(components, min_size=1, max_size=3)
_picks = st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                            st.integers(min_value=0, max_value=8),
                            st.lists(components, min_size=1, max_size=3)),
                  min_size=2, max_size=20)


@settings(max_examples=60, deadline=None)
@given(_rows, _rows, _picks)
def test_a_kernel_s_row_memo_answers_as_a_fresh_kernel_and_the_reference(firsts, seconds, picks):
    # The check (verdict-only) and member kernels of cases 11 to 14 keep the
    # last row's r1 and r2 objects and what they computed from them; every
    # case's kernels run, so those without a memo are checked too. Through
    # one sequence of triples whose r1 and r2 are picked among equal but
    # distinct objects (the Fraction, a copy, a recording component), each
    # pick for one to three r3, so that rows repeat, alternate and change,
    # every answer is that of a kernel whose memo never matches, and that of
    # the Fraction reference.
    reads = []
    pools = [[(made, q) for q in values
              for made in (q, _copy(q), _recording(q, i, reads))] for i, values in
             (("1", firsts), ("2", seconds))]
    kernels = {case: (identity._build_kernel(case), catalog._build_member(case))
               for case in ALL_CASES}
    fresh = {case: (identity._build_kernel(case), catalog._build_member(case))
             for case in ALL_CASES}
    for i, j, r3s in picks:
        (a, q1), (b, q2) = pools[0][i % len(pools[0])], pools[1][j % len(pools[1])]
        for r3, case in product(r3s, ALL_CASES):
            (kernel, member), (fresh_kernel, fresh_member) = kernels[case], fresh[case]
            verdict, _, _, site = _reference_check(case, Triple(q1, q2, r3))
            copies = (_copy(q1), _copy(q2), r3)
            assert kernel((a, b, r3), True) is fresh_kernel(copies, True) is _shared(
                verdict, site), (case.label, q1, q2, r3)
            assert member((a, b, r3)) is fresh_member(copies) is (verdict is Verdict.HOLDS), (
                case.label, q1, q2, r3)


HOISTED_CASES = [case_from_label(label) for label in ("11", "12", "13", "14")]


def _row_zeros(case, r1: Fraction, r2: Fraction) -> list[Fraction] | None:
    """The rational r3 that solve the case's equation on the row (r1, r2),
    from `catalog._LINEAR`'s (coef, const) and Fraction arithmetic: its
    polynomial in r3, a*r3**2 + b*r3 + c, is read at r3 = 0, 1 and -1. None
    where every r3 solves it."""

    def at(x: int) -> int:
        coef, const = catalog._LINEAR[case](r1.numerator, r1.denominator, x, 1)
        return coef * r2.numerator + const * r2.denominator

    c, plus, minus = at(0), at(1), at(-1)
    a, b = (plus + minus) // 2 - c, (plus - minus) // 2
    if not a:
        return None if not (b or c) else [Fraction(-c, b)] if b else []
    discriminant = b * b - 4 * a * c
    s = math.isqrt(discriminant) if discriminant >= 0 else -1
    if s * s != discriminant:
        return []
    return sorted({Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)})


@st.composite
def _hoisted_rows(draw):
    """(case, r1, r2) of cases 11 to 14 whose row has, as drawn, a zero at a
    drawn r3 (one or two zeros, or all), a double zero (case 13), or any."""
    case, r1, r2 = draw(st.sampled_from(HOISTED_CASES)), draw(components), draw(components)
    how = draw(st.sampled_from(["zero at", "double", "any"]))
    if how == "zero at":
        r3 = draw(components)
        coef, const = catalog._LINEAR[case](r1.numerator, r1.denominator, r3.numerator,
                                            r3.denominator)
        r2 = Fraction(-const, coef) if coef else r2
    elif how == "double" and case.label == "13":
        # r3**2 + (r1 - 1)*r3 + r2 == (r3 + (r1 - 1)/2)**2.
        r2 = (r1 - 1) ** 2 / 4
    return case, r1, r2


@settings(max_examples=150, deadline=None)
@given(st.lists(_hoisted_rows(), min_size=1, max_size=6), st.lists(components, max_size=3))
@example([(case_from_label("13"), Fraction(0), Fraction(3, 4))], [Fraction(1, 2)])  # every r3
@example([(case_from_label("14"), Fraction(0), Fraction(-2))], [Fraction(5)])  # every r3
@example([(case_from_label("13"), Fraction(5, 6), Fraction(-1, 6))], [])  # 1/2 and -1/3
@example([(case_from_label("14"), Fraction(2), Fraction(1))], [])  # 1, twice
@example([(case_from_label("14"), Fraction(1), Fraction(0))], [])  # 0, twice
@example([(case_from_label("12"), Fraction(2, 3), Fraction(1, 3))], [])  # 0
@example([(case_from_label("11"), Fraction(0), Fraction(1))], [])  # every r3
@example([(case_from_label("12"), Fraction(2), Fraction(1))], [])  # none: 0*r3 == 2
@example([(case_from_label("13"), Fraction(1), Fraction(1))], [])  # none: r3**2 == -1
def test_a_hoisted_kernel_answers_at_its_row_s_zeros_as_a_fresh_kernel_and_the_reference(
        rows, extra):
    # The check (verdict-only) and member kernels of cases 11 to 14 keep, per
    # row of r1 and r2 objects, the rational zeros in r3 of the row's
    # polynomial, and a hit compares r3's slots with them. Random triples
    # seldom land on a zero, so each row's candidates for r3 are its zeros,
    # found with Fractions from `catalog._LINEAR`, the same numerators over
    # other denominators, 0, r1, -r1 and 1, and a few drawn values. Along
    # each row, one kernel per case and kind, kept across the rows, answers
    # as a fresh kernel of the case does on copies, which always miss, and
    # as the Fraction reference.
    kernels, fresh = ({case: (identity._build_kernel(case), catalog._build_member(case))
                       for case in HOISTED_CASES} for _ in range(2))
    for case, r1, r2 in rows:
        zeros = _row_zeros(case, r1, r2)
        near = [Fraction(q.numerator, q.denominator + k) for q in zeros or [] for k in (1, 2)]
        candidates = [*(zeros or []), *(q for q in near if q.numerator in {
            zero.numerator for zero in zeros}), Fraction(0), r1, -r1, Fraction(1), *extra]
        (kernel, member), (fresh_kernel, fresh_member) = kernels[case], fresh[case]
        for r3 in candidates:
            verdict, _, _, site = _reference_check(case, Triple(r1, r2, r3))
            # A zero holds unless the identity is undefined there.
            assert verdict is not Verdict.FAILS or (zeros is not None and r3 not in zeros)
            copies = (_copy(r1), _copy(r2), _copy(r3))
            assert kernel((r1, r2, r3), True) is fresh_kernel(copies, True) is _shared(
                verdict, site), (case.label, r1, r2, r3)
            assert member((r1, r2, r3)) is fresh_member(copies) is (verdict is Verdict.HOLDS), (
                case.label, r1, r2, r3)


def test_threads_scanning_one_case_on_different_grids_get_their_own_results():
    # Three threads scan the same case, so they share its kernels and each
    # kernel's row memo, on grids whose rows are different objects; each scan
    # still equals a scan run alone.
    case, rounds = case_from_label("13"), 20
    grids = (SearchBounds(3, 2), SearchBounds(2, 3), SearchBounds(3, 1))

    def scan(bounds):
        return search_solutions(case, bounds), verify_characterization(case, bounds)

    expected = {bounds: scan(bounds) for bounds in grids}
    assert len({repr(report) for report in expected.values()}) == len(grids)
    found = {bounds: [] for bounds in grids}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda bounds=bounds: found[bounds].extend(
            scan(bounds) for _ in range(rounds))) for bounds in grids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == {bounds: [expected[bounds]] * rounds for bounds in grids}


@settings(max_examples=200)
@given(components, components, components, st.integers(min_value=-5, max_value=5).filter(bool))
def test_check_results_are_lazy_immutable_values(r1, r2, r3, scale):
    """The sides are built only when read, equal an eager Fraction evaluation,
    and a result compares, hashes and prints by value."""
    t = Triple(r1, r2, r3)
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identity, "Fraction", counting_fraction)
        results = [check(case, t) for case in ALL_CASES]
        assert built == []
        sides = [(result.lhs, result.rhs) for result in results]
    reads = sum(side is not None for pair in sides for side in pair)
    assert len(built) == reads

    for case, result, (lhs, rhs) in zip(ALL_CASES, results, sides):
        _, lhs_pair, rhs_pair, _ = _reference_check(case, t)
        eager = tuple(None if p is None else Fraction(*p) for p in (lhs_pair, rhs_pair))
        assert (lhs, rhs) == eager, case.label
        for side in (lhs, rhs):
            assert side is None or type(side) is Fraction

        def scaled(q):
            return (None, None) if q is None else (q.numerator * scale, q.denominator * scale)

        copy = CheckResult((result.verdict, *scaled(lhs), *scaled(rhs), result.undefined_site))
        assert copy == result and not copy != result
        assert hash(copy) == hash(result) and repr(copy) == repr(result)
        for name in ("verdict", "lhs", "rhs", "undefined_site", "extra"):
            with pytest.raises(AttributeError):
                setattr(result, name, None)

    for a in results:
        for b in results:
            if a == b:
                assert hash(a) == hash(b)
            else:
                assert a != b


def test_check_result_repr_shows_the_side_values():
    result = check(case_from_label(12), Triple.of(6, 4, -3))
    assert repr(result) == (
        "CheckResult(verdict=<Verdict.HOLDS: 'HOLDS'>, lhs=Fraction(18, 1), "
        "rhs=Fraction(18, 1), undefined_site=None)"
    )
    undefined = check(case_from_label(9), Triple.of(1, 0, 5))
    assert repr(undefined) == (
        "CheckResult(verdict=<Verdict.UNDEFINED: 'UNDEFINED'>, lhs=Fraction(1, 5), "
        "rhs=None, undefined_site='first outer of rhs')"
    )


def test_triple_of_refuses_a_float_in_any_position():
    # Fraction(0.1) would be the float's binary expansion, not 1/10, and
    # Fraction(True) would be 1. A value Fraction cannot read is refused
    # alike, not as ZeroDivisionError, ValueError, TypeError or OverflowError.
    refusals = [(0.1, "the float 0.1"), (True, "True"), (False, "False"),
                ("1/0", "'1/0'"), ("x", "'x'"), (None, "None"),
                (Decimal("Infinity"), "Decimal('Infinity')")]
    for position in range(3):
        for value, shown in refusals:
            args = [1, 1, 1]
            args[position] = value
            name = f"r{position + 1}"
            with pytest.raises(identity.DomainError,
                               match=f"^{name} must be an exact rational, not {re.escape(shown)}$"):
                Triple.of(*args)
    # A string past int's digit limit is named in short, not in full.
    with pytest.raises(identity.DomainError) as error:
        Triple.of(1, "9" * 5000, 1)
    assert str(error.value).startswith("r2 must be an exact rational, not '999")
    assert len(str(error.value)) < 80
    assert Triple.of(3, "-1/10", Fraction(2, 3)) == (Fraction(3), Fraction(-1, 10), Fraction(2, 3))
    assert all(type(v) is Fraction for v in Triple.of(3, "0.1", Fraction(2, 3)))


def test_fraction_keeps_its_integers_in_its_slots():
    # The check kernels, catalog.member, catalog.solve_r2, and cli's
    # `_WRITERS` (through `_text` and `_json`) and `_rows` read
    # q._numerator and q._denominator directly (the slots of
    # fractions.Fraction), because as_integer_ratio and the numerator and
    # denominator properties are Python-level calls. The row-hoisted kernels
    # of cases 11 to 14 also compare r3's slots with zeros kept in lowest
    # terms with a positive denominator, which finds r3 only if its slots
    # are in that form too. If CPython renames the slots, or stops keeping
    # them in lowest terms, this test names the cause.
    from distribq.cli import _text

    built = [
        Fraction(3, -6), Fraction(-4, -10), Fraction("-6/4"), Fraction(7),
        Fraction(Fraction(5, 3)),
        Fraction(1, 3) + Fraction(1, 6), Fraction(2, 3) * Fraction(3, 2),
        Fraction(1, 2) / Fraction(-1, 4), Fraction(1, 2) - Fraction(1, 2), -Fraction(2, 7),
        Fraction(0), Fraction(0, -5), Fraction(10**39 + 7, 3), Fraction(-(10**39) - 1),
        *Triple.of("-1/10", 4, Fraction(2, 3)), *enumerate_rationals(SearchBounds(2, 2)),
    ]
    for q in built:
        assert type(q) is Fraction
        assert (q._numerator, q._denominator) == q.as_integer_ratio(), q

    class Sub(Fraction):
        pass

    plain = Triple.of(6, 4, -3)
    sub = Triple(Sub(-12, -2), Sub("4"), Sub(6, -2))
    assert sub == plain and all(type(v) is Sub for v in sub)
    for case in ALL_CASES:
        assert check(case, sub) == check(case, plain), case.label
        assert catalog.member(case, sub) == catalog.member(case, plain), case.label
    assert check(case_from_label("12"), sub).verdict is Verdict.HOLDS
    assert catalog.member(case_from_label("12"), sub) is True
    assert catalog.solve_r2("12", sub.r1, sub.r3) == Fraction(4)
    assert [_text(v) for v in sub] == ["6/1", "4/1", "-3/1"]
    assert _text(Sub(3, -6)) == "-1/2"


def test_enum_members_keep_their_values_in_value_():
    # cli's `_WRITERS` reads member._value_, an instance attribute, because
    # .value is a Python-level descriptor. If CPython renames the attribute,
    # this test names the cause.
    for member in [*Verdict, *BinOp, *catalog.SolveOutcome]:
        assert member._value_ == member.value and type(member._value_) is str, member


_WIDE_INT = 10**4999 + 7  # 5,000 digits: past the digits that str() converts


def _outcome(f, *args):
    """What `f(*args)` returns, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the type is the outcome compared
        return type(exc)


def _assert_same_fraction(n: int, d: int) -> None:
    made, ref = identity._from_coprime_ints(n, d), Fraction(n, d)
    assert type(made) is Fraction
    assert (made._numerator, made._denominator) == (n, d) and made == ref
    assert hash(made) == hash(ref) and {ref: 1}[made] == 1
    for show in (repr, str, lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        assert _outcome(show, made) == _outcome(show, ref)
    assert copy.copy(made) is made and copy.deepcopy(made) is made
    others = (Fraction(0), Fraction(-1), Fraction(3, 7), ref, 5, 0.5)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.floordiv,
               operator.mod, operator.lt, operator.eq, divmod):
        for other in others:
            assert _outcome(op, made, other) == _outcome(op, ref, other)
            assert _outcome(op, other, made) == _outcome(op, other, ref)
    for op in (operator.neg, abs, int, bool, round, float):
        assert _outcome(op, made) == _outcome(op, ref)
    assert _outcome(pow, made, 2) == _outcome(pow, ref, 2)
    if d == 1:
        assert identity._from_coprime_ints(n) == ref


# By name: hypothesis and pytest ids would write a 5,000-digit value with str().
_COPRIME_PAIRS = {"0": (0, 1), "1": (1, 1), "-1": (-1, 1), "wide": (_WIDE_INT, 1),
                  "-wide": (-_WIDE_INT, 1), "1/wide": (1, _WIDE_INT),
                  "-wide/(wide+2)": (-_WIDE_INT, _WIDE_INT + 2)}


@pytest.mark.parametrize("name", list(_COPRIME_PAIRS))
def test_a_fraction_from_coprime_ints_is_the_fraction_of_them(name):
    # Type, value, hash, repr, str, pickle round trip, copy and arithmetic;
    # a 5,000-digit one fails repr, str and pickle as Fraction's own does.
    _assert_same_fraction(*_COPRIME_PAIRS[name])


@settings(max_examples=300)
@given(st.fractions() | components)
def test_a_fraction_from_coprime_ints_is_the_fraction_of_any_lowest_terms(q):
    _assert_same_fraction(*q.as_integer_ratio())
