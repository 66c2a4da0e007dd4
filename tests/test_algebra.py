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
linear in one variable, and `member` is compared with the derived set on
points taken on the zero set of every factor and every divisor, and on a
grid around them. Each case's integer form in r2 is certified against the
numerator with the denominators of r1 and r3 cleared.

Each family's parametric triple, and the case-12 integer construction, is
substituted into its case's numerator, which must vanish for every value of
the parameters; a few parameter records tie each symbolic triple to the
triple the code builds.
"""

import operator
from fractions import Fraction
from itertools import product

import pytest

from distribq.catalog import _LINEAR, FamilyId, families_for, generate, member
from distribq.identity import _SITES, ALL_CASES, BinOp, Triple, case_from_label
from distribq.number_theory import case12_enumerate

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

    for point in points:
        derived = all(g(*point) != 0 for g in defined) and vanishes(*point) == 0
        assert member(case, Triple(*point)) == derived, (case.label, point)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.label)
def test_linear_form_is_a_constant_multiple_of_the_numerator(case):
    # r1 = n1/d1 and r3 = n3/d3; clearing the denominators of the numerator
    # must give coef*r2 + const times a factor that is nonzero wherever the
    # identity is defined: a nonzero constant, times n3 in case 7 (r3 is a
    # divisor) and a quadratic in r2, r3 in cases 9 and 10.
    n1, d1, n3, d3 = sp.symbols("n1 d1 n3 d3")
    divisors, numerator = _derive(case)
    cleared = sp.numer(sp.together(numerator.subs({R1: n1 / d1, R3: n3 / d3})))
    coef, const = _LINEAR[case](n1, d1, n3, d3)
    if case.label in ("L1", "L2"):
        assert numerator == 0 and (coef, const) == (0, 0)
        return
    ratio = sp.cancel(cleared / (coef * R2 + const))
    if case.label == "7":
        ratio = sp.cancel(ratio / n3)
    if case.label in ("9", "10"):
        # The ratio is d3^2 times a constant times q(r2, r3), a homogeneous
        # quadratic with no zero once r3 != 0.
        ratio = sp.expand(ratio.subs(n3, R3 * d3) / d3**2)
        quadratic = _factors(ratio)[0]
        _assert_vanishes_only_where_undefined(quadratic, divisors)
        ratio = sp.cancel(ratio / quadratic)
    assert ratio.is_Number and ratio != 0


# ---------------------------------------------------------------------------
# Families

A, C, D, DELTA, E, F, K = sp.symbols("a c d delta e f k")


def _case13_family5(sign):
    w = F * (A - 1)
    return (A, (w**2 - K**2) / (4 * F**2), (-w + sign * K) / (2 * F))


# Each family's parametric triple, on symbols named after its `generate`
# parameters, with parameter records at which `generate` must build the same
# triple. A family with more than one form (a union of planes, a branch key,
# a sign) has one row per form.
FAMILY_TRIPLES = [
    *[(label, 1, (0, R2, R3), [dict(r2=2, r3=Fraction(-1, 3)), dict(r2=Fraction(5, 2), r3=7)])
      for label in ("1", "2", "5", "6", "8", "9", "10", "11", "13")],
    *[(label, index, (1, R2, R3), [dict(r2=Fraction(-2, 3), r3=9), dict(r2=5, r3=2)])
      for label, index in (("3", 2), ("4", 2), ("7", 1), ("8", 2))],
    ("3", 1, (0, R2, R3), [dict(r1=0, r2=2, r3=3)]),
    ("3", 1, (R1, 0, R3), [dict(r1=5, r2=0, r3=Fraction(1, 3))]),
    ("3", 1, (R1, R2, 0), [dict(r1=-2, r2=Fraction(3, 4), r3=0)]),
    ("4", 1, (R1, 0, R3), [dict(r1=4, r3=-5)]),
    ("11", 2, (1 - R2 - R3, R2, R3), [dict(r2=5, r3=7), dict(r2=Fraction(1, 2), r3=0)]),
    ("12", 1, (0, R2, 0), [dict(r2=9)]),
    ("12", 1, (0, 0, R3), [dict(r3=Fraction(-4, 5))]),
    ("12", 2, (R3 + 1, 0, R3), [dict(r3=5), dict(r3=Fraction(-1, 2))]),
    ("12", 3, (R2 + 1, R2, 0), [dict(r2=Fraction(3, 4))]),
    ("12", 4, (3 * DELTA, 2 * DELTA, 3 * (1 - DELTA)), [dict(delta=2), dict(delta=17)]),
    ("13", 2, (1 - R3, 0, R3), [dict(r3=-3), dict(r3=Fraction(2, 5))]),
    ("13", 3, (A, -A, 1), [dict(a=3), dict(a=-7)]),
    ("13", 4, (C / D, -C / D, 1), [dict(c=3, d=2), dict(c=-5, d=4)]),
    ("13", 5, _case13_family5(1), [dict(a=3, f=1, k=0, sign=1), dict(a=4, f=1, k=1, sign=1)]),
    ("13", 5, _case13_family5(-1), [dict(a=-5, f=1, k=2, sign=-1)]),
    ("14", 1, (0, 0, R3), [dict(r3=4), dict(r3=Fraction(-2, 3))]),
    ("14", 2, (R3 + 1, 0, R3), [dict(r3=2), dict(r3=Fraction(1, 2))]),
    ("14", 3, (1, E**2 / (F * (2 * E - F)), E / F), [dict(e=1, f=3), dict(e=-2, f=5)]),
    *[(label, 1, R, [dict(r1=Fraction(2, 3), r2=-1, r3=0)]) for label in ("L1", "L2")],
]


def _on_the_identity(label, triple):
    """(numerator of lhs - rhs, divisors) with the triple substituted."""
    divisors, numerator = _derive(case_from_label(label))
    point = dict(zip(R, triple))
    return sp.simplify(numerator.subs(point)), [sp.simplify(g.subs(point)) for g in divisors]


def test_every_family_has_a_parametric_triple():
    listed = {(label, index) for label, index, _, _ in FAMILY_TRIPLES}
    assert listed == {(case.label, spec.index) for case in ALL_CASES
                      for spec in families_for(case)}


@pytest.mark.parametrize("label,index,triple,records", FAMILY_TRIPLES,
                         ids=[f"{label}.{index}:{sp.Tuple(*triple)}"
                              for label, index, triple, _ in FAMILY_TRIPLES])
def test_family_triple_solves_its_case_for_every_parameter(label, index, triple, records):
    numerator, divisors = _on_the_identity(label, triple)
    assert numerator == 0
    # No division is by zero on the whole family, only off its exclusions.
    assert all(g != 0 for g in divisors)

    family = FamilyId(case_from_label(label), index)
    for params in records:
        values = {s: sp.Rational(str(params[s.name])) for s in sp.Tuple(*triple).free_symbols}
        expected = Triple.of(*(str(sp.sympify(x).subs(values)) for x in triple))
        assert generate(family, params) == expected, (label, index, params)


def test_printed_form_of_case14_family3_does_not_solve_the_case():
    numerator, _ = _on_the_identity("14", (1, E**2 / (F * (F - 2 * E)), E / F))
    assert numerator != 0
    assert generate(FamilyId(case_from_label("14"), 3),
                    dict(e=1, f=3, printed_form=True)) == Triple.of(1, "1/3", "1/3")


def test_case12_construction_solves_case_12():
    # delta*(N1 - N2) + N3*(2*N2 - N1) = 1 solved for N3; 2*N2 - N1 is odd.
    n1, n2 = sp.symbols("N1 N2")
    n3 = (1 - DELTA * (n1 - n2)) / (2 * n2 - n1)
    triple = (DELTA * n1, DELTA * n2, n1 * n3)
    assert _on_the_identity("12", triple)[0] == 0

    for p, q in [(3, 2), (5, 2), (-3, 4), (7, -3)]:
        for delta, t in case12_enumerate(p, q, 3, allow_degenerate=True):
            values = {n1: p, n2: q, DELTA: delta}
            assert t == Triple.of(*(str(x.subs(values)) for x in triple)), (p, q, delta)
