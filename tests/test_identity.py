"""The identity checker: operation pairings, verdicts, and undefinedness."""

import operator
import os
import pickle
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
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
from distribq.oracle import SearchBounds, enumerate_rationals

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
    for label in ("15", "pow/add", "sub/mul/add", "sub/", "12/13", ""):
        with pytest.raises(KeyError):
            case_from_label(label)


def test_case_from_label_accepts_operation_pairs():
    assert case_from_label("sub/mul") == case_from_label(12)
    assert case_from_label(" SUB / Mul ") == CaseId(BinOp.SUB, BinOp.MUL)
    for case in ALL_CASES:
        assert case_from_label(f"{case.outer.value}/{case.inner.value}") == case


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


def test_every_kernel_matches_the_fraction_reference_on_a_grid_with_zeros():
    values = enumerate_rationals(SearchBounds(2, 2))
    assert 0 in values
    for case in ALL_CASES:
        kernel = identity._KERNELS[case]
        for r1 in values:
            for r2 in values:
                for r3 in values:
                    t = Triple(r1, r2, r3)
                    assert _as_reference(kernel(t)) == _reference_check(case, t), (case.label, t)


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
        assert check(case, t) == check(built, t) and catalog.member(case, t)
    assert len({built, looked_up, unpickled}) == 1


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
            return None if q is None else (q.numerator * scale, q.denominator * scale)

        copy = CheckResult((result.verdict, scaled(lhs), scaled(rhs), result.undefined_site))
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
    # Fraction(0.1) would be the float's binary expansion, not 1/10. A value
    # Fraction cannot read is refused alike, not as ZeroDivisionError,
    # ValueError, TypeError or OverflowError.
    refusals = [(0.1, "the float 0.1"), ("1/0", "'1/0'"), ("x", "'x'"), (None, "None"),
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
