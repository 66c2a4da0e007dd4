"""Algebraic certificate of the sixteen characterizations (needs sympy).

For each pairing the identity's five sub-operations are built on symbols
r1, r2, r3, in the order of `identity._SITES`. A triple solves the case
exactly when no sub-operation divides by zero and the numerator of
lhs - rhs vanishes. Definedness is read from the divisor of each division,
not from the denominator of lhs - rhs, because cancelling that fraction can
drop a factor: cases 4 and 7 lose r1, and case 7 loses r3 as well.

The numerator's factors are linear in some variable, except in cases 9 and
10, whose quadratic factor r2^2 +/- r2*r3 + r3^2 has no zero with r3 != 0.
So the solution set is a union of pieces of planes and curves that are
linear in one variable, and `_MEMBER` is compared with the derived set on
points taken on the zero set of every factor and every divisor, and on a
grid around them.
"""

import operator
from fractions import Fraction
from itertools import product

import pytest

from distribq.catalog import _LINEAR, _MEMBER
from distribq.identity import _SITES, ALL_CASES, BinOp, Triple, case_from_label

sp = pytest.importorskip("sympy")

R = sp.symbols("r1 r2 r3")
R1, R2, R3 = R
_OPS = {BinOp.ADD: operator.add, BinOp.SUB: operator.sub,
        BinOp.MUL: operator.mul, BinOp.DIV: operator.truediv}
GRID = [Fraction(n, d) for n, d in [(-2, 1), (-1, 1), (-1, 2), (0, 1), (1, 3),
                                    (1, 2), (1, 1), (2, 1), (3, 1)]]


def _derive(case):
    """(divisors, numerator of lhs - rhs) as polynomials in r1, r2, r3."""
    outer, inner = case
    bc = _OPS[inner](R2, R3)
    ab, ac = _OPS[outer](R1, R2), _OPS[outer](R1, R3)
    sites = [(inner, R2, R3), (outer, R1, bc), (outer, R1, R2), (outer, R1, R3),
             (inner, ab, ac)]
    assert len(sites) == len(_SITES)
    divisors = [sp.numer(sp.together(y)) for op, _, y in sites if op is BinOp.DIV]
    lhs, rhs = _OPS[outer](R1, bc), _OPS[inner](ab, ac)
    return divisors, sp.numer(sp.together(lhs - rhs))


def _factors(expr) -> list:
    return [f for f, _ in sp.factor_list(expr)[1]]


def _zero_set_points(factor):
    """Points of the grid's pairs completed onto the factor's zero set."""
    for v in R:
        if sp.degree(factor, v) != 1:
            continue
        others = [w for w in R if w != v]
        a, b = (sp.lambdify(others, c, "math") for c in sp.Poly(factor, v).all_coeffs())
        for x, y in product(GRID, repeat=2):
            if a(x, y) != 0:
                point = dict(zip(others, (x, y)))
                point[v] = Fraction(-b(x, y)) / a(x, y)
                yield tuple(point[w] for w in R)


def _assert_vanishes_only_where_undefined(factor, divisors):
    # A homogeneous quadratic q(r2, r3) = r3^2 * q(x, 1) with x = r2/r3; a
    # negative discriminant of q(x, 1) leaves no zero once r3 != 0, and
    # r3 != 0 is one of the divisors.
    assert R1 not in factor.free_symbols
    x = sp.Symbol("x")
    quadratic = sp.expand(factor.subs(R2, x * R3) / R3**2)
    assert quadratic.free_symbols == {x}
    assert sp.discriminant(quadratic, x) < 0
    assert R3 in divisors


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.label)
def test_factored_identity_agrees_with_member(case):
    divisors, numerator = _derive(case)
    defined = [sp.lambdify(R, g, "math") for g in divisors]
    vanishes = sp.lambdify(R, numerator, "math")

    points = set(product(GRID, repeat=3))
    for factor in _factors(numerator) + [f for g in divisors for f in _factors(g)]:
        if all(sp.degree(factor, v) != 1 for v in R):
            _assert_vanishes_only_where_undefined(factor, divisors)
        points.update(_zero_set_points(factor))

    member = _MEMBER[case.label]
    for point in points:
        derived = all(g(*point) != 0 for g in defined) and vanishes(*point) == 0
        assert member(Triple(*point)) == derived, (case.label, point)


@pytest.mark.parametrize("label", ["12", "13", "14"])
def test_linear_form_is_a_constant_multiple_of_the_numerator(label):
    # r1 = n1/d1 and r3 = n3/d3; clearing the denominators of the numerator
    # must give coef*r2 + const up to a nonzero constant.
    n1, d1, n3, d3 = sp.symbols("n1 d1 n3 d3")
    _, numerator = _derive(case_from_label(label))
    cleared = sp.numer(sp.together(numerator.subs({R1: n1 / d1, R3: n3 / d3})))
    coef, const = _LINEAR[label](n1, d1, n3, d3)
    ratio = sp.cancel((coef * R2 + const) / cleared)
    assert ratio.is_Number and ratio != 0
