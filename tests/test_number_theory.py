"""Diophantine solving and the integer constructions."""

import itertools
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distribq import number_theory
from distribq.catalog import member
from distribq.identity import Triple, Verdict, case_from_label, check
from distribq.number_theory import (
    case12_construct,
    case12_enumerate,
    case13_family5,
    solve_linear_diophantine,
)
from distribq import DomainError


def test_diophantine_reproduces_delta_plus_n3():
    sols = solve_linear_diophantine(1, 1, 1)
    assert not sols.empty
    assert sols.base == (1, 0)
    assert sols.step == (1, -1)


def test_diophantine_empty_when_gcd_does_not_divide():
    assert solve_linear_diophantine(2, 4, 3).empty


def test_diophantine_three_five_one():
    sols = solve_linear_diophantine(3, 5, 1)
    assert sols.base == (2, -1)
    assert sols.step == (5, -3)


def test_diophantine_rejects_zero_equation():
    with pytest.raises(DomainError):
        solve_linear_diophantine(0, 0, 5)


@pytest.mark.parametrize(
    "p,q,t",
    [(3, 5, 1), (1, 1, 1), (4, -6, 2), (5, 0, 10), (0, 7, -21), (-9, 6, 3), (2, 4, 6)],
)
def test_diophantine_solutions_satisfy_equation(p, q, t):
    sols = solve_linear_diophantine(p, q, t)
    assert not sols.empty
    for k in range(-10, 10):
        x, y = sols.at(k)
        assert p * x + q * y == t


@pytest.mark.parametrize("p,q,t", [(3, 5, 1), (4, -6, 2), (-9, 6, 3), (5, 0, 10)])
def test_diophantine_parametrization_is_complete(p, q, t):
    # Every solution in the box must lie on the base + k*step line.
    sols = solve_linear_diophantine(p, q, t)
    box = {
        (x, y)
        for x in range(-50, 51)
        for y in range(-50, 51)
        if p * x + q * y == t
    }
    line = {sols.at(k) for k in range(-200, 201)}
    assert box <= line


def test_diophantine_base_is_smallest_x_at_least_one():
    for p, q, t in [(3, 5, 1), (1, 1, 1), (4, -6, 2), (-9, 6, 3)]:
        sols = solve_linear_diophantine(p, q, t)
        (x0, _), (dx, _) = sols.base, sols.step
        assert 1 <= x0 <= abs(dx)


def test_diophantine_matches_a_search_on_every_small_equation():
    # An oracle that uses neither gcd nor a modular inverse: for q != 0 the
    # equation is solvable iff some x in 1..|q| leaves t - p*x divisible by q,
    # and the first such x is the normalised x0. For q == 0 the x value is
    # fixed at t/p and y0 is 1.
    r = range(-9, 10)
    for p, q, t in itertools.product(r, r, r):
        if p == 0 and q == 0:
            continue
        sols = solve_linear_diophantine(p, q, t)
        if q == 0:
            expected = (t // p, 1) if t % p == 0 else None
        else:
            x0 = next((x for x in range(1, abs(q) + 1) if (t - p * x) % q == 0), None)
            expected = None if x0 is None else (x0, (t - p * x0) // q)
        assert sols.empty == (expected is None), (p, q, t)
        assert sols.base == expected, (p, q, t)


# Zero, small and ~40-digit values, so the q = 0 branch and big integers
# are drawn as well as the everyday small cases.
_coeffs = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-10**40, 10**40))


@settings(max_examples=1000)
@given(_coeffs, _coeffs, _coeffs, st.booleans())
def test_diophantine_contract_on_zero_negative_and_big_values(p, q, t, divisible):
    if p == 0 and q == 0:
        with pytest.raises(DomainError, match="p and q must not both be zero"):
            solve_linear_diophantine(p, q, t)
        return
    g = gcd(p, q)
    if divisible:
        t *= g  # most draws of t are not multiples of g
    sols = solve_linear_diophantine(p, q, t)
    assert sols.empty == (t % g != 0)
    if sols.empty:
        assert sols.base is None and sols.step is None
        return
    (x0, y0), (dx, dy) = sols.base, sols.step
    assert p * x0 + q * y0 == t
    assert (dx, dy) == (q // g, -(p // g))
    # The base is the first solution >= 1 along x, or along y when x is fixed.
    lead, span = (x0, dx) if dx != 0 else (y0, dy)
    assert 1 <= lead <= abs(span)


def _case12_poly(n1: int, n2: int, n3: int) -> int:
    return n1 * n1 - n1 * n3 - n1 * n2 + 2 * n2 * n3 - n1


def test_case12_construct_worked_instances():
    assert case12_construct(3, 2, 2) == Triple.of(6, 4, -3)
    assert case12_construct(3, 2, 5) == Triple.of(15, 10, -12)
    assert case12_construct(5, 2, 1) == Triple.of(5, 2, 10)


def test_case12_construct_returns_none_without_integer_n3():
    assert case12_construct(3, -2, 1) is None


def test_case12_construct_degenerate_needs_flag():
    assert case12_construct(3, 2, 1) is None
    assert case12_construct(3, 2, 1, allow_degenerate=True) == Triple.of(3, 2, 0)


@pytest.mark.parametrize(
    "n1,n2,delta",
    [(0, 2, 1), (4, 3, 1), (3, 0, 1), (9, 6, 1), (3, 2, 0)],
)
def test_case12_construct_preconditions(n1, n2, delta):
    with pytest.raises(DomainError):
        case12_construct(n1, n2, delta)


def test_case12_outputs_satisfy_polynomial_and_divisibility():
    params = [(3, 2), (5, 2), (3, -2), (-3, 2), (7, 4), (5, -4), (9, 2), (1, 5)]
    produced = 0
    for n1, n2 in params:
        for delta in range(1, 25):
            t = case12_construct(n1, n2, delta, allow_degenerate=True)
            if t is None:
                continue
            produced += 1
            a, b, c = (int(q) for q in t)
            assert _case12_poly(a, b, c) == 0
            assert c % n1 == 0
            assert check(case_from_label(12), t).verdict is Verdict.HOLDS
    assert produced > 50


def test_case12_enumerate_walks_ascending_deltas():
    pairs = list(case12_enumerate(3, 2, 4))
    assert [delta for delta, _ in pairs] == [2, 3, 4, 5]
    assert pairs[0][1] == Triple.of(6, 4, -3)
    with_degenerate = list(case12_enumerate(3, 2, 2, allow_degenerate=True))
    assert [delta for delta, _ in with_degenerate] == [1, 2]


def test_case12_enumerate_refuses_a_limit_islice_cannot_take():
    with pytest.raises(DomainError, match="limit must be nonnegative"):
        next(case12_enumerate(5, 3, -1))
    with pytest.raises(DomainError, match=f"limit must be at most {sys.maxsize}"):
        next(case12_enumerate(5, 3, sys.maxsize + 1))
    assert next(case12_enumerate(5, 3, sys.maxsize)) == next(case12_enumerate(5, 3, 1))


@pytest.mark.parametrize("args", [
    (2, 3, 5), (3, 6, 1), (3, 0, 1), (3, 2, -1), (3, 2, sys.maxsize + 1),
])
def test_case12_enumerate_refuses_its_parameters_when_called(args):
    # At the call that caused it, not at the first next(), far from it; a
    # value of the wrong type is refused at the call as well (see the
    # integer contract below).
    with pytest.raises(DomainError):
        case12_enumerate(*args)


def test_case12_enumerate_returns_an_iterator_that_solves_when_called(monkeypatch):
    solved = []
    real = number_theory.solve_linear_diophantine
    monkeypatch.setattr(number_theory, "solve_linear_diophantine",
                        lambda *args: solved.append(args) or real(*args))
    pairs = case12_enumerate(3, 2, 3)
    assert solved == [(1, 1, 1)] and iter(pairs) is pairs
    assert [delta for delta, _ in pairs] == [2, 3, 4] and list(pairs) == []


def test_case12_enumerate_agrees_with_construct():
    # 2*N2 - N1 < 0 for (3, -2), (3, 1), (5, 1), (9, -4) and (-3, -4), so
    # the solution set's step runs delta downward and the walk must negate it.
    pairs = [(3, 2), (5, 2), (3, -2), (7, 4), (3, 1), (5, 1), (9, -4), (-3, -4),
             (-7, 2), (10**20 + 1, 10**19 + 2), (10**20 + 1, -(10**19) + 3)]
    for (n1, n2), allow_degenerate in itertools.product(pairs, [False, True]):
        deltas = []
        for delta, t in case12_enumerate(n1, n2, 6, allow_degenerate):
            assert case12_construct(n1, n2, delta, allow_degenerate) == t
            deltas.append(delta)
        assert len(deltas) == 6 and deltas == sorted(set(deltas))
        if deltas[-1] < 1000:
            # No delta is skipped: every one up to the last with an integer
            # N3 (a nonzero one, unless degenerates are allowed) is listed.
            assert deltas == [d for d in range(1, deltas[-1] + 1)
                              if case12_construct(n1, n2, d, allow_degenerate) is not None]


def test_family5_worked_instances():
    assert case13_family5(3, 1, 0, 1) == Triple.of(3, 1, -1)
    assert case13_family5(4, 1, 1, 1) == Triple.of(4, 2, -1)
    assert case13_family5(4, 1, 1, -1) == Triple.of(4, 2, -2)


@pytest.mark.parametrize(
    "a,f,k,sign,fragment",
    [
        (2, 1, 1, 1, "c must be nonzero"),
        (2, 2, 1, 1, "f must be 1"),
        (2, 2, 0, 1, "f must be 1"),
        (3, 2, 0, 1, "f must be 1"),
        (3, 1, 1, 1, "e is not an integer"),
        (3, 1, 4, -1, "r1 + r3"),
        (0, 1, 0, 1, "a must be nonzero"),
        (3, 0, 0, 1, "f must be 1"),
        (3, 1, -1, 1, "K must be nonnegative"),
        (3, 1, 0, 2, "sign"),
    ],
)
def test_family5_rejections_name_the_constraint(a, f, k, sign, fragment):
    with pytest.raises(DomainError, match=re.escape(fragment)):
        case13_family5(a, f, k, sign)


def test_family5_accepted_outputs_hold():
    case13 = case_from_label(13)
    accepted = 0
    for a in range(-5, 7):
        for f in range(1, 5):
            for k in range(0, 11):
                for sign in (1, -1):
                    try:
                        t = case13_family5(a, f, k, sign)
                    except DomainError:
                        continue
                    accepted += 1
                    # The r1 != 0 factor of the case-13 equation.
                    assert t.r1 * t.r3 + t.r3 * t.r3 + t.r2 - t.r3 == 0
                    assert check(case13, t).verdict is Verdict.HOLDS
                    assert t.r3.denominator == f
    assert accepted > 30


@settings(max_examples=500)
@given(st.integers(-10**6, 10**6), st.integers(2, 10**4), st.integers(0, 10**6),
       st.sampled_from([1, -1]), st.integers(-10**6, 10**6), st.booleans())
def test_family5_rejects_every_f_above_one(a, f, k, sign, e, e_is_root):
    # r3 = e/f is a root of the monic x^2 + (a-1)x + c, so by the rational
    # root theorem it is an integer, and e/f in lowest terms needs f = 1.
    if e_is_root:
        # The K and sign that give this e, so the parity of e cannot be
        # what rejects the call.
        signed_k = 2 * e + f * (a - 1)
        k, sign = abs(signed_k), 1 if signed_k >= 0 else -1
    with pytest.raises(DomainError):
        case13_family5(a, f, k, sign)


# ---------------------------------------------------------------------------
# The integer contract

def _integral(ints):
    """Ints from `ints`, each as an int or as an integral Fraction."""
    return st.one_of(ints, ints.map(Fraction))


_SMALL = _integral(st.integers(-9, 9))
# Each function's integer parameters (allow_degenerate is a flag, not one of
# them), drawn near its preconditions; the case its triples solve; and those
# triples in its result.
_INTEGER_CONTRACT = {
    "solve_linear_diophantine": ([_SMALL] * 3, None, lambda sols: []),
    "case12_construct": ([_SMALL, _SMALL, _integral(st.integers(0, 9))], "12",
                         lambda t: [] if t is None else [t]),
    "case12_enumerate": ([_SMALL, _SMALL, _integral(st.integers(0, 5))], "12",
                         lambda pairs: [t for _, t in pairs]),
    "case13_family5": ([_SMALL, _integral(st.integers(0, 2)), _integral(st.integers(0, 9)),
                        _integral(st.sampled_from([1, -1, 0]))], "13", lambda t: [t]),
}
_NOT_AN_INT = st.one_of(st.floats(), st.booleans(), st.text(max_size=3),
                        st.fractions().filter(lambda q: q.denominator != 1))


def _call(name: str, args: list):
    result = getattr(number_theory, name)(*args)
    return list(result) if name == "case12_enumerate" else result


@settings(max_examples=400)
@given(st.sampled_from(sorted(_INTEGER_CONTRACT)), st.data())
def test_an_integer_parameter_refuses_any_other_value(name, data):
    # A float, a bool, a non-integral Fraction or a string, in any position.
    parameters = _INTEGER_CONTRACT[name][0]
    args = [data.draw(parameter) for parameter in parameters]
    args[data.draw(st.integers(0, len(parameters) - 1))] = data.draw(_NOT_AN_INT)
    with pytest.raises(DomainError):  # at the call, case12_enumerate's too
        getattr(number_theory, name)(*args)


@settings(max_examples=400)
@given(st.sampled_from(sorted(_INTEGER_CONTRACT)), st.data())
def test_integral_parameters_give_triples_that_hold(name, data):
    parameters, label, triples = _INTEGER_CONTRACT[name]
    args = [data.draw(parameter) for parameter in parameters]
    try:
        result = _call(name, args)
    except DomainError:
        return
    if name == "solve_linear_diophantine" and not result.empty:
        p, q, t = args
        assert all(p * x + q * y == t for x, y in map(result.at, (-1, 0, 1)))
    for triple in triples(result):
        case = case_from_label(label)
        assert all(type(r) is Fraction for r in triple), triple
        assert check(case, triple).verdict is Verdict.HOLDS, (name, args, triple)
        assert member(case, triple), (name, args, triple)
