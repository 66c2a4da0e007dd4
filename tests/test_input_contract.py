"""The library's input contract: a value of the wrong kind raises DomainError.

`Triple.of`, `solve_r2` and a family's rational parameter read an int, a
Fraction or a string that Fraction reads; a family's integer parameter and
a grid bound or a family index read an int or an integral Fraction.
Anything else, a float or a bool among them, raises DomainError and no
other exception. So do a scan's `jobs` below 1 and verify's `list_limit`
below 0, before the scan.
A value too long to print is left out of an error message, not converted.
(`number_theory`'s functions are covered in tests/test_number_theory.py.)
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distribq import catalog
from distribq.identity import ALL_CASES, DomainError, Triple, case_from_label
from distribq.oracle import SearchBounds, search_solutions, verify_characterization

_WIDE = "9" * 5000  # more digits than int() reads from a string

# A string that Fraction reads is a rational, so only others are drawn here.
_NOT_A_RATIONAL = st.one_of(st.floats(), st.booleans(), st.text("xyz /", max_size=3),
                            st.sampled_from([_WIDE, f"1/{_WIDE}", "1/0"]))
_NOT_AN_INT = st.one_of(st.floats(), st.booleans(), st.text(max_size=3),
                        st.sampled_from([_WIDE, "2"]),
                        st.fractions().filter(lambda q: q.denominator != 1))
# A family parameter's wrong values by its kind; a "bool" reads any value.
_WRONG = {"rational": _NOT_A_RATIONAL, "int": _NOT_AN_INT, "sign": _NOT_AN_INT}
_RIGHT = {"rational": Fraction(1), "int": 1, "sign": 1, "bool": False}
_FAMILIES = [spec for case in ALL_CASES for spec in catalog.families_for(case)]


def _with_one_wrong(data, right: list, wrong) -> list:
    """`right`, with a value drawn from `wrong` in a drawn position."""
    values = list(right)
    values[data.draw(st.integers(0, len(values) - 1))] = data.draw(wrong)
    return values


def _generate(data):
    spec = data.draw(st.sampled_from(_FAMILIES))
    params = {name: _RIGHT[kind] for name, kind in spec.params.items()}
    name = data.draw(st.sampled_from([n for n, kind in spec.params.items() if kind in _WRONG]))
    params[name] = data.draw(_WRONG[spec.params[name]])
    catalog.generate(catalog.FamilyId(case_from_label(spec.case_label), spec.index), params)


def _grid(scan):
    return lambda data: scan(data.draw(st.sampled_from(ALL_CASES)),
                             SearchBounds(*_with_one_wrong(data, [2, 1], _NOT_AN_INT)))


_CALLS = {
    "Triple.of": lambda data: Triple.of(*_with_one_wrong(data, [1, 1, 1], _NOT_A_RATIONAL)),
    "solve_r2": lambda data: catalog.solve_r2(data.draw(st.sampled_from(["12", "13", "14"])),
                                              *_with_one_wrong(data, [1, 1], _NOT_A_RATIONAL)),
    "generate": _generate,
    "search_solutions": _grid(search_solutions),
    "verify_characterization": _grid(verify_characterization),
}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(_CALLS)), st.data())
def test_a_value_of_the_wrong_kind_raises_domain_error(name, data):
    # Floats, bools, strings (5,000-digit ones among them) and, where an
    # integer is read, non-integral Fractions, in any one position.
    with pytest.raises(DomainError):
        _CALLS[name](data)


@pytest.mark.parametrize("bounds", [(2.0, 1), ("2", 1), (2, 1.0), (True, True),
                                    (Fraction(3, 2), 1)])
@pytest.mark.parametrize("scan", [search_solutions, verify_characterization])
def test_a_grid_bound_is_an_integer(scan, bounds):
    with pytest.raises(DomainError, match="bound must be an integer"):
        scan(case_from_label("12"), SearchBounds(*bounds))


@pytest.mark.parametrize("scan", [search_solutions, verify_characterization])
def test_an_integral_fraction_bound_is_its_integer(scan):
    case = case_from_label("12")
    assert scan(case, SearchBounds(Fraction(2), Fraction(1))) == scan(case, SearchBounds(2, 1))


# (scan, option, least value)
_COUNTS = {
    "search_solutions jobs": (search_solutions, "jobs", 1),
    "verify_characterization jobs": (verify_characterization, "jobs", 1),
    "verify_characterization list_limit": (verify_characterization, "list_limit", 0),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_COUNTS)), st.data())
def test_jobs_and_list_limit_are_counts(name, data):
    # Floats, bools, strings, non-integral Fractions and integers below the least.
    scan, option, least = _COUNTS[name]
    value = data.draw(st.one_of(_NOT_AN_INT, st.integers(max_value=least - 1)))
    with pytest.raises(DomainError, match=option):
        scan(case_from_label("12"), SearchBounds(2, 1), **{option: value})


@pytest.mark.parametrize("scan, option, value", [
    *((scan, "jobs", value) for scan in (search_solutions, verify_characterization)
      for value in (0, -3, True, 1.5, "2", None)),
    *((verify_characterization, "list_limit", value)
      for value in (-1, 1.5, True, "1", Fraction(1, 2))),
])
def test_a_wrong_count_is_refused_before_the_scan(scan, option, value):
    with pytest.raises(DomainError, match=option):
        scan(case_from_label("12"), SearchBounds(2, 1), **{option: value})


def test_an_integral_fraction_count_is_its_integer():
    case, bounds = case_from_label("12"), SearchBounds(2, 1)
    assert search_solutions(case, bounds, jobs=Fraction(1)) == search_solutions(case, bounds)
    report = verify_characterization(case, bounds, jobs=Fraction(1), list_limit=Fraction(3))
    assert report == verify_characterization(case, bounds, list_limit=3)
    assert type(report.list_limit) is int


def test_a_list_limit_of_zero_keeps_the_counts_and_lists_nothing():
    case, bounds = case_from_label("12"), SearchBounds(2, 1)
    full = verify_characterization(case, bounds, list_limit=None)
    none = verify_characterization(case, bounds, list_limit=0)
    assert full.coverage_gap_count == len(full.coverage_gap) == 12
    assert none[:7] == full[:7]  # case, bounds, total, holds and the three counts
    assert (none.missing, none.spurious, none.coverage_gap, none.list_limit) == ((), (), (), 0)


@pytest.mark.parametrize("index", ["1", 1.0, None, True, Fraction(3, 2)])
def test_a_family_index_is_an_integer(index):
    with pytest.raises(DomainError, match="family index must be an integer"):
        catalog.generate(catalog.FamilyId(case_from_label("3"), index), {"r1": 0, "r2": 1, "r3": 2})


def test_an_integral_fraction_family_index_is_its_integer():
    family = catalog.FamilyId(case_from_label("3"), Fraction(1))
    assert catalog.family_spec(family.case, family.index) is catalog.families_for(family.case)[0]
    assert catalog.generate(family, {"r1": 0, "r2": 1, "r3": 2}) == Triple.of(0, 1, 2)


_HUGE = 10**5000  # more digits than str() converts


@pytest.mark.parametrize("index, params, message", [
    (1, {"r1": Fraction(1, _HUGE), "r2": 1, "r3": 1}, "outside case 3 family 1: "),
    (_HUGE, {}, "case 3 has families 1..2"),
], ids=["outside-family", "family-range"])
def test_a_value_too_long_to_print_is_left_out_of_the_message(index, params, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        catalog.generate(catalog.FamilyId(case_from_label("3"), index), params)
