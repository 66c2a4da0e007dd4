"""Complete per-case characterizations and the parametric solution families.

`member` is the exact membership predicate for each of the sixteen cases:
it agrees with `identity.check` returning HOLDS on every triple (the test
suite derives each one by factoring the identity, and the bounded-search
oracle checks it on grids). It is the only statement of which triples
solve a case. The family registry holds every known parametric sub-family
of each solution set. Each family has a builder (`build`, the parametric
triple) and a constraint (`matches`), which `_register` forms from the
family's shape (the slice of the solution set it lies on and the
exclusions that cut it out) and the case's membership predicate, so no
family restates its case's equation. Callers use `generate`, which builds
the triple and rejects it unless it matches; `family_union_member`
measures how much of a solution set the families cover.

Every case reduces to one polynomial equation, linear in r2, plus the
identity's divisors being nonzero. Each equation is stated once, in one
table keyed by case (`_EQUATIONS`), as the source text of an integer pair
(coef, const) in the numerators and denominators of r1 and r3. Each
case's divisors are read once from the identity's steps (`_divisors`, from
`identity._STEPS`), each as the numerator that `identity._TEMPLATES` gives
it. `member` runs one straight-line kernel per case, generated from both
the first time the case is tested, as `identity.check` is: it tests
coef*n2 + const*d2 == 0 on the components' slot integers, then that each
divisor's numerator is nonzero, and builds no Fraction. Where it costs
fewer slot loads and operations (cases 11 to 14), the equation is
expanded into a polynomial and tested as its part in n3 and d3, whose
coefficients the kernel computes once per row of r1 and r2 objects and
keeps with that row, as `identity.check`'s hoisted kernels do: case 12
tests `k0 * d3 == k1 * n3`. That transformation is `_forms`' code, shared
with `check`, so in those cases `verify`'s agreement does not test it; the
test suite proves each hoisted kernel identical to its equation. `_LINEAR` (the
pair as a function, which the test suite certifies against the identity
with sympy) and `_zero_divisor` (the first zero divisor's text) are
generated from the same two, and `solve_r2` reads them: it returns
-const/coef for cases 12, 13 and 14 (or ALL or NONE when coef vanishes).
Nothing uses floating point.

Two formula corrections are baked in, both confirmed by direct
substitution (see the test suite and README):

* case 14, family 1: the r1 = 0 slice only solves the identity when
  r2 = 0 (lhs is -r2/r3 while rhs is +r2/r3), so the family is
  (0, 0, r3) rather than (0, r2, r3);
* case 14, family 3: the denominator of r2 must be f*(2e - f); the
  variant with f*(f - 2e) fails (at e=1, f=3 the sides are 0 and 1) and
  is kept reachable behind `printed_form=1` so the discrepancy stays
  demonstrable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, NamedTuple

from . import _EXPORTS, _forms
from .identity import (
    BinOp,
    CaseId,
    DomainError,
    SolveOutcome,
    Triple,
    _as_fraction,
    _as_int,
    _define,
    _divisor_operands,
    _Kernels,
    _reads,
    _STEPS,
    _TEMPLATES,
    case_from_label,
)

__all__ = _EXPORTS["catalog"]


# ---------------------------------------------------------------------------
# Membership predicates


# Every case reduces to one equation coef*r2 + const = 0, linear in r2, and
# the identity's divisors being nonzero. Each row is the source text of the
# integers (coef, const) in the numerators and denominators of r1 = n1/d1
# and r3 = n3/d3: the numerator of lhs - rhs with those denominators cleared,
# up to a factor that is nonzero wherever the identity is defined. So with
# r2 = n2/d2 a defined triple solves its case iff coef*n2 + const*d2 == 0.
# `member`'s kernels and `_LINEAR` are both generated from this table.
_EQUATIONS: dict[CaseId, tuple[str, str]] = {
    case_from_label(label): row for labels, row in [
        # r1, times d1; cases 9 and 10 drop a factor r2^2 +/- r2*r3 + r3^2,
        # which has no zero once r3 != 0.
        ("1 2 5 6 9 10", ("0", "n1")),
        # r1*r2*r3*(r1 - 1), times d1^2*d3.
        ("3", ("n1 * n3 * (n1 - d1)", "0")),
        # r2*(r1 - 1), times d1.
        ("4", ("n1 - d1", "0")),
        # r1 - 1, times d1; the dropped factor r3 is a divisor.
        ("7", ("0", "n1 - d1")),
        # r1*(r1 - 1), times d1^2.
        ("8", ("0", "n1 * (n1 - d1)")),
        # r1*(r1 + r2 + r3 - 1), times d1^2*d3.
        ("11", ("n1 * d1 * d3", "n1 * (n1 * d3 + n3 * d1 - d1 * d3)")),
        # r2*(2r3 - r1) + r1*(r1 - r3 - 1), times d1^2*d3.
        ("12", ("d1 * (2 * n3 * d1 - n1 * d3)", "n1 * (n1 * d3 - n3 * d1 - d1 * d3)")),
        # r1*r2 + r1*r3*(r1 + r3 - 1), times d1^2*d3^2. The r1 factor makes
        # both coefficients vanish at r1 = 0, where every r2 solves the case.
        ("13", ("n1 * d1 * d3 * d3", "n1 * n3 * (n1 * d3 + n3 * d1 - d1 * d3)")),
        # r2*(r1 - 2r3) + r1*r3*(r3 + 1 - r1), times d1^2*d3^2.
        ("14", ("d1 * d3 * (n1 * d3 - 2 * n3 * d1)", "n1 * n3 * (n3 * d1 + d1 * d3 - n1 * d3)")),
        ("L1 L2", ("0", "0")),
    ] for label in labels.split()
}

_SIGNS = {BinOp.ADD: "+", BinOp.SUB: "-", BinOp.MUL: "*", BinOp.DIV: "/"}


def _divisors(case: CaseId) -> list[tuple[str, str]]:
    """Each divisor of the case's identity as (its text, the source of its
    numerator in the slot integers), in the order they are tested.

    The divisors are `identity._divisor_operands`: the right operands of the
    division steps, once each, in step order, each with the numerator that
    `identity._TEMPLATES` gives it. A divisor's denominator is nonzero once
    the divisors before it are nonzero, so it is zero exactly when its
    numerator is. Only a component or the result of a step on two components
    is ever divided by, so only their texts are read.
    """
    operands = {v: (f"r{v}", f"n{v}") for v in "123"}
    for _, out, role, x, y in _STEPS:
        op = getattr(case, role)
        numerator = _TEMPLATES[op][0].format(x=x, y=y, dx=f"d{x}", dy=f"d{y}")
        operands[out] = (f"r{x} {_SIGNS[op]} r{y}", numerator)
    return [operands[y] for y in _divisor_operands(case)]


def _build_member(case: CaseId):
    """Generate `member` for one case: the equation, then each divisor. The
    equation is tested on r3's slots alone where a row hit of the memo costs
    fewer slot loads and operations: `coef*n2 + const*d2` is expanded into a
    polynomial, and r1's and r2's part of it kept per row."""
    coef, const = _EQUATIONS[case]
    terms = [f"({c}) * {v}" for c, v in ((coef, "n2"), (const, "d2")) if c != "0"]
    tests = [f"({numerator}) != 0" for _, numerator in _divisors(case)]
    line = " and ".join([" + ".join(terms) + " == 0"] * bool(terms) + tests) or "True"
    poly = _forms.expand({"coef": coef, "const": const, "equation": "coef * n2 + const * d2"})
    if poly:
        coefficients, decision = _forms.hoisted(poly)
        hit = " and ".join([decision, *tests])
        if _forms.cost({}, hit, hit=True) < _forms.cost({}, line):
            lines, row = _forms.memo(_reads({}, hit), coefficients)
            return _define(f"member_case_{case.label}", [*lines, f"return {hit}"], {}, row)
    return _define(f"member_case_{case.label}", [f"return {line}"], {})


def _build_zero_divisor(case: CaseId):
    """Generate `_zero_divisor` for one case from `_divisors`."""
    body = [f"if not ({numerator}): return {text!r}" for text, numerator in _divisors(case)]
    return _define(f"zero_divisor_case_{case.label}", body + ["return None"], {})


def _build_linear(case: CaseId) -> Callable[[int, int, int, int], tuple[int, int]]:
    """(n1, d1, n3, d3) -> the case's (coef, const), from `_EQUATIONS`."""
    return eval("lambda n1, d1, n3, d3: ({}, {})".format(*_EQUATIONS[case]))


_MEMBERS = _Kernels(_build_member)
_ZERO_DIVISORS = _Kernels(_build_zero_divisor)
_LINEAR = _Kernels(_build_linear)


def _zero_divisor(case: CaseId, r1: Fraction, r2: Fraction | None, r3: Fraction) -> str | None:
    """The text of the first divisor of the case's identity that is zero, or
    None. r2 is read only when outer is DIV."""
    return _ZERO_DIVISORS[case]((r1, r2, r3))


def member(case: CaseId, t: Triple) -> bool:
    """True iff t satisfies the case's complete characterization.

    Definedness constraints are part of membership: a triple for which
    either side of the identity is undefined is never a member. The case's
    kernel, generated from `_EQUATIONS` and `_divisors` on first use, tests
    the equation on the slot integers first, so definedness is evaluated
    only on the triples that solve it. t is a `Triple` of Fractions, as
    `Triple.of` builds it, or a plain 3-tuple of Fractions, as a grid scan
    hands it: t is read only as `r1, r2, r3 = t`. Nothing is coerced, so an
    int component raises AttributeError where the kernel reads its slots;
    a type test per triple would cost a grid scan time.
    """
    last, kernel = _MEMBERS.last
    if last is not case:
        kernel = _MEMBERS[case]
        _MEMBERS.last = case, kernel
    return kernel(t)


# ---------------------------------------------------------------------------
# Parametric families


class FamilyId(NamedTuple):
    case: CaseId
    index: int


class FamilySpec(NamedTuple):
    """One parametric family: its parameter record, shape, and constraint.

    `build` takes the parameters, each already coerced to its kind, and
    returns the family's triple. `matches` is the constraint, the only
    statement of which triples belong to the family: the family's shape
    joined with its case's membership predicate. A builder checks only what
    a triple cannot show. Callers use `generate`, which builds the triple
    and checks it with `matches`.
    """

    case_label: str
    index: int
    params: dict[str, str]  # name -> kind: "rational" | "int" | "sign" | "bool"
    summary: str
    build: Callable[..., Triple]
    matches: Callable[[Triple], bool]
    optional: frozenset[str] = frozenset()


def _coerce(kind: str, value, name: str):
    if kind == "rational":
        return _as_fraction(value, name)
    if kind == "int":
        return _as_int(value, name)
    return value


def _build_12_1(r2=None, r3=None) -> Triple:
    # Branch selector: the family is the union of (0, r2, 0) and (0, 0, r3).
    if (r2 is None) == (r3 is None):
        raise DomainError("provide exactly one of r2, r3 to pick the branch")
    return Triple.of(0, r2, 0) if r2 is not None else Triple.of(0, 0, r3)


def _build_13_4(c, d) -> Triple:
    # d < 1 would divide by zero or give the same triples as -c, -d.
    if d < 1:
        raise DomainError("d must be a positive integer")
    return Triple.of(Fraction(c, d), Fraction(-c, d), 1)


def _build_13_5(a, f, k, sign) -> Triple:
    # This family alone needs number_theory, so it is imported on its first
    # build; the builder is looked up as a module attribute on each call.
    from . import number_theory

    return number_theory.case13_family5(a, f, k, sign)


def _build_14_3(e, f, printed_form=False) -> Triple:
    """(1, e^2/(f*(2e - f)), e/f); printed_form=True flips the denominator
    sign to f*(f - 2e), which fails verification and exists only so the
    discrepancy can be demonstrated."""
    if f < 1:
        raise DomainError("f must be a positive integer")
    if e == 0:
        raise DomainError("e must be nonzero")
    if gcd(abs(e), f) != 1:
        raise DomainError("e and f must be coprime")
    if 2 * e == f:
        raise DomainError("2*e must differ from f (denominator would vanish)")
    if e == f:
        raise DomainError("e must differ from f (r1 - r3 must be nonzero)")
    denom = f * (f - 2 * e) if printed_form else f * (2 * e - f)
    return Triple(Fraction(1), Fraction(e * e, denom), Fraction(e, f))


_RR = {"r2": "rational", "r3": "rational"}
_RRR = {"r1": "rational", "r2": "rational", "r3": "rational"}

# Families that several cases share; a case may give its copy its own
# summary, and `_register` gives each copy its case and index.
_ZERO_FIRST = dict(params=_RR, summary="(0, r2, r3)",
                   build=lambda r2, r3: Triple.of(0, r2, r3), shape=lambda t: t.r1 == 0)
_ONE_FIRST = dict(params=_RR, summary="(1, r2, r3)",
                  build=lambda r2, r3: Triple.of(1, r2, r3), shape=lambda t: t.r1 == 1)
_UNIVERSAL = dict(params=_RRR, summary="(r1, r2, r3): the law is universal",
                  build=Triple.of, shape=lambda t: True)

_FAMILIES: dict[str, tuple[FamilySpec, ...]] = {}


def _register(label: str, *families: dict) -> None:
    """Give each family its case and index, and join its `shape` (the slice
    it lies on and the exclusions that cut it out) with the case's
    membership predicate into its constraint `matches`."""
    case = case_from_label(label)

    def spec(index: int, shape: Callable[[Triple], bool], **kw) -> FamilySpec:
        return FamilySpec(case_label=label, index=index,
                          matches=lambda t: shape(t) and _MEMBERS[case](t), **kw)

    _FAMILIES[label] = tuple(spec(i + 1, **kw) for i, kw in enumerate(families))


_register("1", _ZERO_FIRST)
_register("2", _ZERO_FIRST)
_register(
    "3",
    dict(params=_RRR, summary="(r1, r2, r3) with r1*r2*r3 = 0", build=Triple.of,
         shape=lambda t: t.r1 * t.r2 * t.r3 == 0),
    _ONE_FIRST,
)
_register(
    "4",
    dict(params={"r1": "rational", "r3": "rational"},
         summary="(r1, 0, r3) with r1*r3 != 0", build=lambda r1, r3: Triple.of(r1, 0, r3),
         shape=lambda t: t.r2 == 0),
    dict(_ONE_FIRST, summary="(1, r2, r3) with r3 != 0"),
)
_register("5", _ZERO_FIRST)
_register("6", _ZERO_FIRST)
_register("7", dict(_ONE_FIRST, summary="(1, r2, r3) with r2*r3 != 0"))
_register(
    "8",
    dict(_ZERO_FIRST, summary="(0, r2, r3) with r2*r3 != 0"),
    dict(_ONE_FIRST, summary="(1, r2, r3) with r2*r3 != 0"),
)
_register("9", dict(_ZERO_FIRST, summary="(0, r2, r3) with r2*r3 != 0 and r2 + r3 != 0"))
_register("10", dict(_ZERO_FIRST, summary="(0, r2, r3) with r2*r3 != 0 and r2 != r3"))
_register(
    "11",
    _ZERO_FIRST,
    dict(params=_RR, summary="(1 - (r2 + r3), r2, r3)",
         build=lambda r2, r3: Triple.of(1 - (r2 + r3), r2, r3),
         shape=lambda t: t.r1 + t.r2 + t.r3 == 1),
)
_register(
    "12",
    dict(params=_RR, summary="(0, r2, 0) or (0, 0, r3); pass exactly one key",
         build=_build_12_1, optional=frozenset({"r2", "r3"}),
         shape=lambda t: t.r1 == 0),
    dict(params={"r3": "rational"}, summary="(r3 + 1, 0, r3) with r3 != -1",
         build=lambda r3: Triple.of(r3 + 1, 0, r3),
         shape=lambda t: t.r2 == 0 and t.r1 != 0),
    dict(params={"r2": "rational"}, summary="(r2 + 1, r2, 0) with r2 != -1",
         build=lambda r2: Triple.of(r2 + 1, r2, 0),
         shape=lambda t: t.r3 == 0 and t.r1 != 0),
    dict(params={"delta": "int"},
         summary="(3d, 2d, 3(1 - d)) for an integer d >= 2",
         build=lambda delta: Triple.of(3 * delta, 2 * delta, 3 * (1 - delta)),
         shape=lambda t: t.r1 % 3 == 0 and t.r1 >= 6 and 3 * t.r2 == 2 * t.r1),
)
_register(
    "13",
    dict(_ZERO_FIRST, summary="(0, r2, r3) with r3 != 0"),
    dict(params={"r3": "rational"}, summary="(1 - r3, 0, r3) with r3 != 0, 1",
         build=lambda r3: Triple.of(1 - r3, 0, r3),
         shape=lambda t: t.r2 == 0 and t.r1 != 0),
    dict(params={"a": "int"}, summary="(a, -a, 1) for a nonzero integer a != -1",
         build=lambda a: Triple.of(a, -a, 1),
         shape=lambda t: t.r3 == 1 and t.r1.denominator == 1 and t.r1 != 0),
    dict(params={"c": "int", "d": "int"},
         summary="(c/d, -c/d, 1) for nonzero integer c, positive integer d, c != -d",
         build=_build_13_4, shape=lambda t: t.r3 == 1 and t.r1 != 0),
    dict(params={"a": "int", "f": "int", "k": "int", "sign": "sign"},
         summary="(a, c, e/f) from the discriminant construction "
                 "c = ((f(a-1))^2 - K^2)/(4f^2), e = (-f(a-1) +/- K)/2",
         build=_build_13_5,
         shape=lambda t: t.r1.denominator == t.r2.denominator == 1 and t.r1 * t.r2 != 0),
)
_register(
    "14",
    # Corrected family: on the r1 = 0 slice the identity forces r2 = 0.
    dict(params={"r3": "rational"}, summary="(0, 0, r3) with r3 != 0",
         build=lambda r3: Triple.of(0, 0, r3), shape=lambda t: t.r1 == 0),
    dict(params={"r3": "rational"}, summary="(r3 + 1, 0, r3) with r3 != 0, -1",
         build=lambda r3: Triple.of(r3 + 1, 0, r3),
         shape=lambda t: t.r2 == 0 and t.r1 != 0),
    dict(params={"e": "int", "f": "int", "printed_form": "bool"},
         summary="(1, e^2/(f(2e - f)), e/f) for coprime e, f with f >= 1, "
                 "e != 0, 2e != f, e != f",
         build=_build_14_3, optional=frozenset({"printed_form"}),
         shape=lambda t: t.r1 == 1),
)
_register("L1", _UNIVERSAL)
_register("L2", _UNIVERSAL)


def _printed(value) -> str:
    """str(value) for a message, or "..." for a value with more digits than
    str() converts."""
    try:
        return str(value)
    except ValueError:
        return "..."


def families_for(case: CaseId) -> tuple[FamilySpec, ...]:
    return _FAMILIES[case.label]


def family_spec(case: CaseId, index: int) -> FamilySpec:
    """The case's family `index`, an int or an integral Fraction counted
    from 1; anything else, a bool or a float among them, or an index out
    of range raises DomainError."""
    index = _as_int(index, "family index")
    specs = _FAMILIES[case.label]
    if not 1 <= index <= len(specs):
        raise DomainError(
            f"case {case.label} has families 1..{len(specs)}, not {_printed(index)}"
        )
    return specs[index - 1]


def generate(family: FamilyId, params: Mapping[str, object]) -> Triple:
    """Produce the family's triple from a parameter record.

    Each value is coerced once by its declared kind (rational to Fraction,
    int to int), and a None value counts as absent. A float for a rational
    raises DomainError: its binary expansion is rarely the rational meant.
    Unknown or missing keys, a builder's own check, and a triple outside the
    family's constraint (`matches`) raise DomainError naming the problem.
    One documented triple skips the `matches` check: case 14 family 3 with
    printed_form set fails the identity on purpose, so the printed formula
    stays demonstrable.
    """
    spec = family_spec(family.case, family.index)
    supplied = {name: value for name, value in params.items() if value is not None}
    unknown = set(supplied) - set(spec.params)
    if unknown:
        raise DomainError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
    missing = set(spec.params) - set(supplied) - spec.optional
    if missing:
        raise DomainError(f"missing parameter(s): {', '.join(sorted(missing))}")
    args = {name: _coerce(spec.params[name], value, name) for name, value in supplied.items()}
    t = spec.build(**args)
    if not spec.matches(t) and not args.get("printed_form"):
        given = ", ".join(f"{name}={_printed(value)}" for name, value in args.items())
        raise DomainError(
            f"{given} gives {', '.join(map(_printed, t))}, outside case {spec.case_label} "
            f"family {spec.index}: {spec.summary}"
        )
    return t


def family_union_member(case: CaseId, t: Triple) -> bool:
    """True iff t matches the defining shape of at least one listed family."""
    return any(spec.matches(t) for spec in _FAMILIES[case.label])


# ---------------------------------------------------------------------------
# Closed-form solving for the polynomial cases


def _solve_case(case) -> CaseId:
    try:
        case = case if isinstance(case, CaseId) else case_from_label(case)
    except KeyError:
        case = None
    if case is None or case.label not in ("12", "13", "14"):
        raise DomainError("solve_r2 applies to cases 12, 13, and 14 only")
    return case


def solve_r2(case, r1, r3) -> Fraction | SolveOutcome:
    """Solve the case's defining equation for r2 given (r1, r3).

    Each defining equation is linear in r2, so the answer is a unique
    rational, ALL (the r2 coefficient and the constant both vanish), or
    NONE (only the coefficient vanishes). For cases 13 and 14 the
    definedness constraints on (r1, r3) are preconditions. r1 and r3 may be
    ints, Fractions or strings; a float raises DomainError.
    """
    case = _solve_case(case)
    r1, r3 = _as_fraction(r1, "r1"), _as_fraction(r3, "r3")
    # No divisor of cases 12-14 involves r2.
    zero = _zero_divisor(case, r1, None, r3)
    if zero is not None:
        raise DomainError(f"{zero} must be nonzero")
    coef, const = _LINEAR[case](r1._numerator, r1._denominator, r3._numerator, r3._denominator)
    if coef != 0:
        return Fraction(-const, coef)
    return SolveOutcome.ALL if const == 0 else SolveOutcome.NONE
