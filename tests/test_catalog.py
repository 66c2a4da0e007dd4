"""Membership predicates, family generators, and closed-form r2 solving."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distribq.catalog import (
    FamilyId,
    SolveOutcome,
    families_for,
    family_spec,
    family_union_member,
    generate,
    member,
    solve_r2,
)
from distribq.identity import ALL_CASES, Triple, Verdict, case_from_label, check
from distribq.oracle import SearchBounds, enumerate_rationals
from distribq import DomainError

T = Triple.of


def _gen(label, index, **params):
    return generate(FamilyId(case_from_label(label), index), params)


# ---------------------------------------------------------------------------
# member


def test_member_examples():
    assert member(case_from_label(11), T(-11, 5, 7))
    assert member(case_from_label(12), T(6, 4, -3))
    assert member(case_from_label(12), T(2, 5, 1))
    assert not member(case_from_label(9), T(0, 2, -2))
    assert member(case_from_label(13), T(3, 1, -1))
    assert member(case_from_label("L1"), T(9, 9, 9))


def test_member_rejects_undefined_configurations():
    assert not member(case_from_label(13), T(1, 1, -1))  # r1 = -r3
    assert not member(case_from_label(14), T(1, 0, 1))  # r1 = r3
    assert not member(case_from_label(4), T(1, 5, 0))  # r3 = 0
    assert not member(case_from_label(10), T(0, 3, 3))  # r2 = r3


def test_member_case14_needs_r2_zero_on_the_r1_zero_slice():
    # With r1 = 0 the sides are -r2/r3 and +r2/r3, so r2 must vanish.
    case = case_from_label(14)
    assert member(case, T(0, 0, 5))
    assert not member(case, T(0, 1, 1))
    assert check(case, T(0, 1, 1)).verdict is Verdict.FAILS


def test_member_matches_check_everywhere_on_a_small_grid():
    values = enumerate_rationals(SearchBounds(3, 2))
    for case in ALL_CASES:
        for r1 in values:
            for r2 in values:
                for r3 in values:
                    t = Triple(r1, r2, r3)
                    holds = check(case, t).verdict is Verdict.HOLDS
                    assert member(case, t) == holds, (case.label, t)


# The equations in r2 of the cases that have one, on Fractions, as the
# README states them. Each is linear in r2.
_REFERENCE_POLY = {
    "11": lambda r1, r2, r3: r1 + r2 + r3 - 1,
    "12": lambda r1, r2, r3: r1 * r1 - r1 * r3 - r1 * r2 + 2 * r2 * r3 - r1,
    "13": lambda r1, r2, r3: r1 * r3 + r3 * r3 + r2 - r3,
    "14": lambda r1, r2, r3: r1 * r3 * r3 + r1 * r2 - 2 * r2 * r3 + r1 * r3 - r3 * r1 * r1,
}


def _vanishes(label):
    return lambda t: _REFERENCE_POLY[label](*t) == 0


# The paper's characterizations, the README's case table, on Fractions: the
# reference that `member`'s integer forms and divisors are compared with.
_REFERENCE_MEMBER = {
    "1": lambda t: t.r1 == 0,
    "2": lambda t: t.r1 == 0,
    "3": lambda t: t.r1 * t.r2 * t.r3 == 0 or t.r1 == 1,
    "4": lambda t: (t.r2 == 0 or t.r1 == 1) and t.r1 != 0 and t.r3 != 0,
    "5": lambda t: t.r1 == 0,
    "6": lambda t: t.r1 == 0,
    "7": lambda t: t.r1 == 1 and t.r2 != 0 and t.r3 != 0,
    "8": lambda t: (t.r1 == 0 or t.r1 == 1) and t.r2 != 0 and t.r3 != 0,
    "9": lambda t: t.r1 == 0 and t.r2 * t.r3 != 0 and t.r2 + t.r3 != 0,
    "10": lambda t: t.r1 == 0 and t.r2 * t.r3 != 0 and t.r2 != t.r3,
    "11": lambda t: t.r1 == 0 or t.r1 + t.r2 + t.r3 == 1,
    "12": _vanishes("12"),
    "13": lambda t: t.r3 != 0 and t.r1 != -t.r3 and (t.r1 == 0 or _vanishes("13")(t)),
    "14": lambda t: t.r3 != 0 and t.r1 != t.r3 and _vanishes("14")(t),
    "L1": lambda t: True,
    "L2": lambda t: True,
}


_components = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**40),
    ),
)


@settings(max_examples=400)
@given(_components, _components, _components, st.sampled_from(["free", "0", "1", "r3", "-r3"]),
       st.sampled_from(["free", "0", "r3", "-r3", "solved"]))
def test_hard_case_member_matches_the_rational_polynomials(r1, r2, r3, r1_at, r2_at):
    # Every case on each triple. r1 = 0 and r1 = 1 are the slices most cases
    # lie on, and r1 = +/-r3 and r2 in {0, r3, -r3} make divisors vanish; the
    # solved value puts r2 on the zero set of the case's equation in r2,
    # where it has one and its slope allows.
    r1 = {"free": r1, "0": Fraction(0), "1": Fraction(1), "r3": r3, "-r3": -r3}[r1_at]
    r2 = {"free": r2, "0": Fraction(0), "r3": r3, "-r3": -r3, "solved": r2}[r2_at]
    for case in ALL_CASES:
        t = Triple(r1, r2, r3)
        if r2_at == "solved" and case.label in _REFERENCE_POLY:
            p0 = _REFERENCE_POLY[case.label](r1, Fraction(0), r3)
            slope = _REFERENCE_POLY[case.label](r1, Fraction(1), r3) - p0
            if slope != 0:
                t = Triple(r1, -p0 / slope, r3)
        assert member(case, t) == _REFERENCE_MEMBER[case.label](t), (case.label, t)


# ---------------------------------------------------------------------------
# families


EXPECTED_FAMILY_COUNTS = {
    "1": 1, "2": 1, "3": 2, "4": 2, "5": 1, "6": 1, "7": 1, "8": 2,
    "9": 1, "10": 1, "11": 2, "12": 4, "13": 5, "14": 3, "L1": 1, "L2": 1,
}


def test_family_registry_counts():
    for label, count in EXPECTED_FAMILY_COUNTS.items():
        assert len(families_for(case_from_label(label))) == count


def test_generate_worked_instances():
    assert _gen(12, 4, delta=2) == T(6, 4, -3)
    assert _gen(13, 3, a=3) == T(3, -3, 1)
    assert _gen(14, 3, e=1, f=3) == T(1, "-1/3", "1/3")
    assert _gen(11, 2, r2=5, r3=7) == T(-11, 5, 7)
    assert _gen(13, 5, a=4, f=1, k=1, sign=-1) == T(4, 2, -2)


def test_generate_case12_family1_branch_selector():
    assert _gen(12, 1, r2=5) == T(0, 5, 0)
    assert _gen(12, 1, r3=7) == T(0, 0, 7)
    with pytest.raises(DomainError):
        _gen(12, 1, r2=5, r3=7)
    with pytest.raises(DomainError):
        _gen(12, 1)


@pytest.mark.parametrize(
    "label,index,params",
    [
        (12, 4, dict(delta=1)),
        (12, 4, dict(delta=Fraction(5, 2))),
        (13, 3, dict(a=0)),
        (13, 3, dict(a=-1)),
        (13, 4, dict(c=-3, d=3)),
        (14, 3, dict(e=1, f=2)),
        (14, 3, dict(e=2, f=2)),
        (14, 3, dict(e=3, f=3)),
        (14, 3, dict(e=0, f=3)),
        (9, 1, dict(r2=2, r3=-2)),
        (10, 1, dict(r2=3, r3=3)),
        (3, 1, dict(r1=1, r2=2, r3=3)),
        (12, 2, dict(r3=-1)),
        (13, 2, dict(r3=1)),
    ],
)
def test_generate_rejects_constraint_violations(label, index, params):
    with pytest.raises(DomainError):
        _gen(label, index, **params)


def test_generate_error_names_the_parameters_triple_and_family():
    with pytest.raises(DomainError) as error:
        _gen(12, 4, delta=1)
    assert str(error.value) == (
        "delta=1 gives 3, 2, 0, outside case 12 family 4: "
        "(3d, 2d, 3(1 - d)) for an integer d >= 2"
    )


def test_generate_rejects_unknown_and_missing_params():
    with pytest.raises(DomainError, match="unknown parameter"):
        _gen(12, 4, delta=2, gamma=1)
    with pytest.raises(DomainError, match="missing parameter"):
        _gen(12, 4)
    with pytest.raises(DomainError):
        family_spec(case_from_label(12), 5)



def test_floats_are_refused_for_rational_parameters():
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10.
    with pytest.raises(DomainError, match="r2 must be an exact rational, not the float 0.1"):
        _gen(1, 1, r2=0.1, r3=1)
    with pytest.raises(DomainError, match="r3 must be an exact rational"):
        _gen(14, 2, r3=-0.5)
    with pytest.raises(DomainError, match="r1 must be an exact rational"):
        solve_r2(13, 3.0, -1)
    with pytest.raises(DomainError, match="r3 must be an exact rational"):
        solve_r2(12, 2, 1.0)
    with pytest.raises(DomainError, match="r1 must be an exact rational, not the float 0.1"):
        Triple.of(0.1, 1, 1)
    # So is a value Fraction cannot read, rather than escaping as
    # ZeroDivisionError, ValueError or TypeError.
    for value, shown in [("1/0", "'1/0'"), ("x", "'x'"), (None, "None")]:
        expected = f"^{{}} must be an exact rational, not {re.escape(shown)}$"
        with pytest.raises(DomainError, match=expected.format("r1")):
            solve_r2(12, value, 1)
        with pytest.raises(DomainError, match=expected.format("r3")):
            solve_r2(13, 3, value)
        if value is not None:  # generate counts a None value as absent
            with pytest.raises(DomainError, match=expected.format("r2")):
                _gen(1, 1, r2=value, r3=1)
    # ints, Fractions and strings are still exact inputs
    for r2 in (Fraction(1, 10), "1/10", "0.1"):
        assert _gen(1, 1, r2=r2, r3=1) == T(0, "1/10", 1)
        assert Triple.of(0, r2, 1) == (0, Fraction(1, 10), 1)
    assert _gen(12, 2, r3=3) == T(4, 0, 3)
    assert solve_r2(13, 3, "-1") == solve_r2(13, Fraction(3), Fraction(-1)) == 1

# One sample parameter record per family; every generated triple must HOLD.
FAMILY_SAMPLES = {
    ("1", 1): [dict(r2=Fraction(5, 2), r3=-7)],
    ("2", 1): [dict(r2=3, r3=Fraction(1, 3))],
    ("3", 1): [dict(r1=0, r2=2, r3=3), dict(r1=5, r2=0, r3=3)],
    ("3", 2): [dict(r2=Fraction(-2, 3), r3=9)],
    ("4", 1): [dict(r1=4, r3=-5)],
    ("4", 2): [dict(r2=0, r3=2), dict(r2=7, r3=2)],
    ("5", 1): [dict(r2=-1, r3=8)],
    ("6", 1): [dict(r2=Fraction(2, 7), r3=Fraction(2, 7))],
    ("7", 1): [dict(r2=5, r3=Fraction(-1, 2))],
    ("8", 1): [dict(r2=2, r3=2)],
    ("8", 2): [dict(r2=-3, r3=4)],
    ("9", 1): [dict(r2=3, r3=4)],
    ("10", 1): [dict(r2=3, r3=4)],
    ("11", 1): [dict(r2=6, r3=-2)],
    ("11", 2): [dict(r2=5, r3=7), dict(r2=Fraction(1, 2), r3=Fraction(1, 2))],
    ("12", 1): [dict(r2=9), dict(r3=-4)],
    ("12", 2): [dict(r3=5), dict(r3=Fraction(-1, 2))],
    ("12", 3): [dict(r2=Fraction(3, 4))],
    ("12", 4): [dict(delta=2), dict(delta=17)],
    ("13", 1): [dict(r2=Fraction(9, 2), r3=4)],
    ("13", 2): [dict(r3=-3), dict(r3=Fraction(2, 5))],
    ("13", 3): [dict(a=3), dict(a=-7)],
    ("13", 4): [dict(c=3, d=2), dict(c=-5, d=4)],
    ("13", 5): [dict(a=3, f=1, k=0, sign=1), dict(a=4, f=1, k=1, sign=1),
                dict(a=-5, f=1, k=2, sign=-1)],
    ("14", 1): [dict(r3=4), dict(r3=Fraction(-2, 3))],
    ("14", 2): [dict(r3=2), dict(r3=Fraction(1, 2))],
    ("14", 3): [dict(e=1, f=3), dict(e=-2, f=5), dict(e=5, f=2)],
    ("L1", 1): [dict(r1=Fraction(2, 3), r2=Fraction(1, 2), r3=5)],
    ("L2", 1): [dict(r1=-4, r2=Fraction(7, 3), r3=0)],
}


def test_every_family_sample_generates_a_holding_triple():
    for label, count in EXPECTED_FAMILY_COUNTS.items():
        case = case_from_label(label)
        for index in range(1, count + 1):
            samples = FAMILY_SAMPLES[(label, index)]
            assert samples, (label, index)
            for params in samples:
                t = generate(FamilyId(case, index), params)
                assert check(case, t).verdict is Verdict.HOLDS, (label, index, params)
                assert member(case, t)
                assert family_union_member(case, t)


def test_case14_family3_printed_form_fails_verification():
    t = _gen(14, 3, e=1, f=3, printed_form=True)
    assert t == T(1, "1/3", "1/3")
    result = check(case_from_label(14), t)
    assert result.verdict is Verdict.FAILS
    assert (result.lhs, result.rhs) == (0, 1)


def test_case13_family3_is_subset_of_family4():
    f4 = family_spec(case_from_label(13), 4)
    for a in (-9, -2, 1, 2, 3, 50):
        assert f4.matches(_gen(13, 3, a=a))


def test_family_union_member_examples():
    assert family_union_member(case_from_label(12), T(6, 4, -3))
    assert not family_union_member(case_from_label(12), T(2, 5, 1))
    assert family_union_member(case_from_label(13), T(0, "9/2", 4))


def test_family_union_is_subset_of_member_on_a_grid():
    values = enumerate_rationals(SearchBounds(3, 2))
    for case in ALL_CASES:
        for r1 in values:
            for r2 in values:
                for r3 in values:
                    t = Triple(r1, r2, r3)
                    if family_union_member(case, t):
                        assert member(case, t), (case.label, t)


def test_every_family_stays_inside_its_case_on_a_grid_with_zeros():
    values = enumerate_rationals(SearchBounds(4, 3))
    triples = [Triple(r1, r2, r3) for r1 in values for r2 in values for r3 in values]
    for case in ALL_CASES:
        for spec in families_for(case):
            for t in triples:
                if spec.matches(t):
                    assert member(case, t), (case.label, spec.index, t)


@pytest.mark.parametrize(
    "label,index,t",
    [
        ("14", 1, T(0, 1, 1)),  # r1 = 0 forces r2 = 0
        ("13", 1, T(0, 1, 0)),  # r3 = 0 leaves the sides undefined
        ("4", 1, T(0, 0, 1)),  # r1 = 0 leaves the sides undefined
        ("12", 2, T(0, 0, -1)),  # solves case 12 but r3 = -1 is excluded
    ],
)
def test_family_rejects_a_triple_on_its_slice_outside_the_family(label, index, t):
    assert not family_spec(case_from_label(label), index).matches(t)


# ---------------------------------------------------------------------------
# solve_r2


def test_solve_r2_worked_instances():
    assert solve_r2(13, Fraction(3), Fraction(-1)) == 1
    assert solve_r2(12, Fraction(2), Fraction(1)) is SolveOutcome.ALL
    assert solve_r2(12, Fraction(4), Fraction(2)) is SolveOutcome.NONE
    assert solve_r2(14, Fraction(1), Fraction(1, 3)) == Fraction(-1, 3)
    assert solve_r2(13, Fraction(0), Fraction(5)) is SolveOutcome.ALL


def test_solve_r2_preconditions():
    with pytest.raises(DomainError):
        solve_r2(13, Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        solve_r2(13, Fraction(2), Fraction(-2))
    with pytest.raises(DomainError):
        solve_r2(14, Fraction(3), Fraction(3))
    with pytest.raises(DomainError):
        solve_r2(11, Fraction(1), Fraction(1))


def test_solve_r2_looks_cases_up_by_label_or_operation_pair():
    assert solve_r2("sub/mul", 2, 1) is SolveOutcome.ALL
    assert solve_r2(" Add/Div ", 3, -1) == 1
    assert solve_r2(case_from_label(14), 1, "1/3") == Fraction(-1, 3)


@pytest.mark.parametrize("case", ["99", "L1", "mul/add", 7, 12.0, "", None])
def test_solve_r2_refuses_every_other_case_alike(case):
    with pytest.raises(DomainError, match="^solve_r2 applies to cases 12, 13, and 14 only$"):
        solve_r2(case, 2, 1)


def test_solve_r2_agrees_with_membership():
    rng = random.Random(7)
    cases = {label: case_from_label(label) for label in ("12", "13", "14")}

    def random_r2():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    for label, case in cases.items():
        for num1 in range(-4, 5):
            for num3 in range(-4, 5):
                r1, r3 = Fraction(num1), Fraction(num3)
                try:
                    outcome = solve_r2(label, r1, r3)
                except DomainError:
                    continue
                if outcome is SolveOutcome.ALL:
                    for _ in range(10):
                        assert member(case, Triple(r1, random_r2(), r3))
                elif outcome is SolveOutcome.NONE:
                    for _ in range(10):
                        assert not member(case, Triple(r1, random_r2(), r3))
                else:
                    assert member(case, Triple(r1, outcome, r3))
                    assert check(case, Triple(r1, outcome, r3)).verdict is Verdict.HOLDS


# The closed forms as the README states them, on Fractions, with the
# definedness preconditions of cases 13 and 14 in the order solve_r2 checks
# them. An error is returned as its message.
def _readme_solve(label, r1, r3):
    if label in ("13", "14") and r3 == 0:
        return "r3 must be nonzero"
    if label == "13":
        if r1 == -r3:
            return "r1 + r3 must be nonzero"
        return SolveOutcome.ALL if r1 == 0 else r3 * (1 - r1 - r3)
    if label == "14":
        if r1 == r3:
            return "r1 - r3 must be nonzero"
        numerator = r1 * r3 * (r3 + 1 - r1)
    else:
        numerator = r1 * (r3 + 1 - r1)
    if 2 * r3 != r1:
        return numerator / (2 * r3 - r1)
    return SolveOutcome.ALL if numerator == 0 else SolveOutcome.NONE


# The shape tests of the case-14 families, family 3 as r2 = r3^2/(2r3 - 1).
def _case14_family_union(t):
    r1, r2, r3 = t
    return (
        (r1 == 0 and r2 == 0 and r3 != 0)
        or (r2 == 0 and r3 not in (0, -1) and r1 == r3 + 1)
        or (r1 == 1 and r3 not in (0, 1) and 2 * r3 != 1
            and r2 == r3 * r3 / (2 * r3 - 1))
    )


@settings(max_examples=400)
@given(st.sampled_from(["12", "13", "14"]), _components, _components, _components,
       st.sampled_from(["free", "r1 = 2r3", "r1 = 0", "r1 = 1"]), st.booleans())
def test_solve_r2_matches_the_readme_closed_forms(label, r1, r2, r3, line, solved_r2):
    # Pull (r1, r3) onto the lines where the r2 coefficient vanishes (case 13
    # at r1 = 0) or onto the r1 = 1 slice that holds family 3 of case 14.
    r1 = {"free": r1, "r1 = 2r3": 2 * r3, "r1 = 0": Fraction(0), "r1 = 1": Fraction(1)}[line]
    try:
        outcome = solve_r2(label, r1, r3)
    except DomainError as exc:
        outcome = str(exc)
    assert outcome == _readme_solve(label, r1, r3)

    if solved_r2 and isinstance(outcome, Fraction):
        r2 = outcome
    t = Triple(r1, r2, r3)
    assert family_union_member(case_from_label(14), t) == _case14_family_union(t)
