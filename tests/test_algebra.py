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

import ast
import operator
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from distribq import _forms, catalog, identity
from distribq.catalog import _LINEAR, FamilyId, families_for, generate, member
from distribq.identity import _SITES, _STEPS, ALL_CASES, BinOp, Triple, case_from_label
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
# The generated kernels

SLOTS = sp.symbols("n1 d1 n2 d2 n3 d3")
N1, D1, N2, D2, N3, D3 = SLOTS
DENOMINATORS = (D1, D2, D3)
AS_SLOTS = {R1: N1 / D1, R2: N2 / D2, R3: N3 / D3}
SLOT_NAMES = {str(slot): slot for slot in SLOTS}


def _generated_body(module, builder, case) -> list[str]:
    """The body lines that `builder` hands `_define` in `module` for the case."""
    bodies = []
    original = module._define
    module._define = lambda name, body, namespace, row=0: bodies.append(body)
    try:
        getattr(module, builder)(case)
    finally:
        module._define = original
    (body,) = bodies
    return body


def _is_denominator_monomial(ratio) -> bool:
    """Whether `ratio` is a nonzero constant times powers of d1, d2, d3."""
    ratio = sp.cancel(ratio)
    return (ratio != 0 and sp.denom(ratio) == 1 and ratio.free_symbols <= set(DENOMINATORS)
            and len(sp.Poly(ratio, *DENOMINATORS).terms()) == 1)


def _slot_divisors(case) -> list:
    """`_derive`'s divisors with r_i = n_i/d_i, as numerators in the slot integers."""
    return [sp.numer(sp.together(g.subs(AS_SLOTS))) for g in _derive(case)[0]]


def _components() -> dict:
    """r1, r2, r3 whose slots hold the slot symbols, for a kernel's loads to read."""
    return {f"r{i}": SimpleNamespace(_numerator=SLOT_NAMES["n" + i],
                                     _denominator=SLOT_NAMES["d" + i]) for i in "123"}


def _assigned(statements, env: dict) -> list[str]:
    """Run `statements`, which must all be assignments, in `env`, so that a
    name read before a statement of the path assigns it raises NameError;
    the names they assign, in order."""
    names = []
    for statement in statements:
        assert isinstance(statement, ast.Assign), ast.unparse(statement)
        exec(ast.unparse(statement), {}, env)
        names += [node.id for target in statement.targets for node in ast.walk(target)
                  if isinstance(node, ast.Name)]
    return names


STEP_NAMES = {v + out for _, out, *_ in _STEPS for v in "nd"}


def _assert_steps(case, env: dict, assigned: list[str], complete: bool):
    """On one path through a kernel each slot integer and step value is
    assigned once, and each step whose `n{out}` and `d{out}` are both
    assigned has `n{out}/d{out}` equal to its `_STEPS` operation on the
    components. Both sides are, and on a `complete` path every step is."""
    assert len(assigned) == len(set(assigned)) and set(assigned) <= STEP_NAMES | set(SLOT_NAMES)
    assert {"nlhs", "dlhs", "nrhs", "drhs"} <= set(assigned), (case.label, assigned)
    assert not complete or STEP_NAMES <= set(assigned), (case.label, assigned)
    values = {i: SLOT_NAMES["n" + i] / SLOT_NAMES["d" + i] for i in "123"}
    for site, out, role, x, y in _STEPS:
        values[out] = _OPS[getattr(case, role)](values[x], values[y])
        if {"n" + out, "d" + out} <= set(assigned):
            assert sp.cancel(env["n" + out] / env["d" + out] - values[out]) == 0, (case.label, site)


def _decision(choice: ast.IfExp) -> tuple[tuple[str, str], str]:
    """The names a bare choice picks on equal and on unequal sides, and
    `left - right` of the equality that picks."""
    (op,), (right,) = choice.test.ops, choice.test.comparators
    assert isinstance(op, ast.Eq), ast.unparse(choice)
    return ((choice.body.id, choice.orelse.id),
            f"({ast.unparse(choice.test.left)}) - ({ast.unparse(right)})")


def _product_names(node) -> list[str]:
    """The names that `node`, a product `a * b * ...` of names, multiplies, in order."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _product_names(node.left) + _product_names(node.right)
    assert isinstance(node, ast.Name), ast.unparse(node)
    return [node.id]


def _assert_coprime(names: list[str], other: list[str], env: dict, label: str):
    """The products of the two lists of names, valued in `env`, share no factor."""
    products = [sp.Mul(*(env[name] for name in names)) for names in (names, other)]
    assert sp.gcd(*products) == 1, (label, names, other)


def _non_denominator_factors(polynomials) -> set:
    # d1, d2 and d3 are a Fraction's denominators, never zero.
    return {f for p in polynomials for f in _factors(p)} - set(DENOMINATORS)


def _assert_nonzero_monomial(ratio, allowed: set, label: str):
    coefficient, factors = sp.factor_list(ratio)
    assert sp.denom(ratio) == 1 and coefficient != 0, (label, ratio)
    assert {f for f, _ in factors} <= allowed, (label, ratio)


def _assert_each_assignment_is_read(path: list, label: str):
    """Each name that a statement of `path`, one path through a kernel,
    assigns is read later on that path: a path assigns only what it reads."""
    for at, node in enumerate(path):
        if isinstance(node, ast.Assign):
            (target,) = node.targets
            assert any(isinstance(name, ast.Name) and name.id == target.id
                       for later in path[at + 1:] for name in ast.walk(later)), (label, target.id)


def _zero_at(env: dict) -> list[set]:
    """For each step in `_STEPS` order, the factors of its denominator,
    valued in `env`, that may be zero: a site is undefined where one is."""
    return [_non_denominator_factors([env["d" + out]]) for _, out, *_ in _STEPS]


def _reduced_factors(test, env: dict, guard: set[str], label: str) -> list:
    """The factors of a reduced decision `not (a and ...) or L == R`, either
    part of which may stand alone: each tested atom a, and L - R. The
    decision holds exactly where one factor is zero. Each atom is a slot
    numerator that the guard does not test, once, and no slot integer divides
    every term of L - R, so nothing is left to divide out."""
    parts = test.values if isinstance(test, ast.BoolOp) else [test]
    assert len(parts) <= 2 and (len(parts) == 1 or isinstance(test.op, ast.Or)), ast.unparse(test)
    factors = []
    if isinstance(parts[0], ast.UnaryOp):
        (tested, *parts) = parts
        assert isinstance(tested.op, ast.Not), ast.unparse(test)
        operand = tested.operand
        names = operand.values if isinstance(operand, ast.BoolOp) else [operand]
        assert isinstance(operand, ast.Name) or isinstance(operand.op, ast.And), ast.unparse(test)
        atoms = [name.id for name in names]
        assert len(set(atoms)) == len(atoms) and set(atoms) <= {"n1", "n2", "n3"} - guard, atoms
        factors += [env[atom] for atom in atoms]
    for part in parts:
        (op,), (right,) = part.ops, part.comparators
        assert isinstance(op, ast.Eq), ast.unparse(test)
        residual = sp.expand(eval(f"({ast.unparse(part.left)}) - ({ast.unparse(right)})", {}, env))
        monomials = sp.Poly(residual, *SLOTS).monoms()
        assert len(monomials) > 1 and all(min(column) == 0 for column in zip(*monomials)), label
        factors.append(residual)
    return factors


# The forms that `_forms`' rule picks from each case's polynomial: the cases
# whose verdict-only decision is taken on a row hit of the memo by comparing
# r3's slots with the zeros in r3 that the memo keeps (see
# `test_hoisted_kernels_decide_by_r3_s_part_of_the_polynomial`), and those
# whose decision is the full path's nested one; the others' is reduced.
HOISTED = {"11", "12", "13", "14"}
NESTED = {"9", "10"}
# The cases whose `member` kernel tests the equation on a row hit of the memo.
HOISTED_MEMBERS = {"11", "12", "13", "14"}


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.label)
def test_check_kernel_steps_are_the_identity_s_operations(case):
    # The kernel is: `if verdict_only:`, whose branch is the verdict-only
    # path; what the full path's guard reads, all of it in a case that does
    # not divide; the guard, whose branch assigns the rest and returns
    # `_undefined_result`; the full path's own assignments; the full
    # `CheckResult`. The verdict-only path assigns what its guard reads, tests
    # the guard, whose branch returns the shared UNDEFINED result of the
    # first site whose denominator has a zero name, assigns what its
    # decision reads and returns `_HELD` or `_FAILED`; a hoisted one instead
    # compares r3's slots with the zeros its memo keeps, which
    # `test_hoisted_kernels_decide_by_r3_s_part_of_the_polynomial` proves.
    # Each path loads each slot integer it reads and assigns each name once.
    # On the UNDEFINED path every step is its `_STEPS` operation; on the full
    # path each step assigned whole is, and both sides are. The guard's names
    # vanish exactly where a division step's denominator does. The full
    # return decides by an equality `nlhs * P == nrhs * Q` whose
    # `left - right` times a nonzero monomial, in denominators and divisor
    # numerators, is the full cross-multiplication, which is the identity's
    # numerator times such a monomial. A verdict-only return that is not
    # hoisted decides the same way, or by a reduced decision whose factors'
    # product times such a monomial is the cross-multiplication, or is
    # `_HELD` alone where the cross-multiplication is zero. Nothing is left
    # to cancel: each sum or difference is over its operands' least common
    # denominator, each nested decision's two multipliers share no factor,
    # and the guard names each factor of the divisors' numerators that is
    # not a denominator once.
    verdict, *body = ast.parse("\n".join(_generated_body(identity, "_build_kernel", case))).body
    assert ast.unparse(verdict.test) == "verdict_only" and not verdict.orelse, case.label
    hoisted = ast.unparse(verdict.body[0]).endswith(" = row")
    assert hoisted is (case.label in HOISTED), case.label
    divides = any(getattr(case, role) is BinOp.DIV for _, _, role, _, _ in _STEPS)
    guards = [i for i, statement in enumerate(body) if isinstance(statement, ast.If)]
    assert len(guards) == divides, case.label
    split = guards[0] if divides else 0
    first, guards = body[:split], body[split:split + divides]
    *late, built = body[split + divides:]

    env = _components()
    assigned = _assigned(first, env)
    guarded, guard_names = {}, set()
    for guard in guards:
        *missing, undefined = guard.body
        guarded = dict(env)
        _assert_steps(case, guarded, assigned + _assigned(missing, guarded), complete=True)
        dens = ", ".join(f"d{out}" for _, out, *_ in _STEPS)
        assert ast.unparse(undefined) == f"return _undefined_result(({dens}), nlhs, nrhs)"
        assert isinstance(guard.test, ast.UnaryOp) and isinstance(guard.test.op, ast.Not)
        tested = guard.test.operand
        names = tested.values if isinstance(tested, ast.BoolOp) else [tested]
        assert isinstance(tested, ast.Name) or isinstance(tested.op, ast.And), ast.unparse(guard)
        guard_names = {ast.unparse(name) for name in names}
        divisions = [guarded["d" + out] for _, out, role, _, _ in _STEPS
                     if getattr(case, role) is BinOp.DIV]
        assert (_non_denominator_factors(eval(ast.unparse(name), {}, env) for name in names)
                == _non_denominator_factors(divisions)), (case.label, ast.unparse(guard))
        # Each name is one of the distinct factors of the divisors' numerators
        # that are not denominators, and every such factor is named.
        named = [_factors(eval(ast.unparse(name), {}, env)) for name in names]
        assert all(len(factors) == 1 for factors in named), (case.label, ast.unparse(guard))
        assert len({f for f, in named}) == len(names), (case.label, ast.unparse(guard))
        assert ({f for f, in named} == _non_denominator_factors(_slot_divisors(case))
                ), (case.label, ast.unparse(guard))
        _assert_each_assignment_is_read([*first, guard.test, *guard.body], case.label)
        if hoisted:
            # `test_hoisted_kernels_decide_by_r3_s_part_of_the_polynomial`
            # proves a hoisted path's guard.
            continue
        # The verdict-only path tests the same guard. For each zero/nonzero
        # pattern of the names with a zero, its chain picks the first site
        # whose denominator has a zero name's factor; it reads nothing but
        # the names.
        (pick,) = [statement for statement in verdict.body if isinstance(statement, ast.If)
                   and ast.unparse(statement.test) == ast.unparse(guard.test)]
        (chain,) = pick.body
        assert isinstance(chain, ast.Return) and not pick.orelse, ast.unparse(pick)
        zero_at = _zero_at(guarded)
        for zeros in product((False, True), repeat=len(names)):
            if any(zeros):
                zero = {f for (f,), z in zip(named, zeros) if z}
                values = {ast.unparse(name): int(not z) for name, z in zip(names, zeros)}
                site = eval(ast.unparse(chain.value), {"_UNDEFINED_AT": _SITES}, values)
                assert site == _SITES[next(at for at, f in enumerate(zero_at) if f & zero)], (
                    case.label, values, site)
        _assert_each_assignment_is_read([*first, guard.test, chain], case.label)
    _assert_each_assignment_is_read([*first, *(guard.test for guard in guards), *late, built],
                                    case.label)
    full = dict(env)
    _assert_steps(case, full, assigned + _assigned(late, full), complete=False)
    decided = _components()
    if not hoisted:
        *verdict_lines, shared_return = verdict.body
        _assert_each_assignment_is_read(verdict.body, case.label)
        verdict_assigned = _assigned([statement for statement in verdict_lines
                                      if not isinstance(statement, ast.If)], decided)
        assert len(verdict_assigned) == len(set(verdict_assigned)), (case.label, verdict_assigned)

    # Each ADD or SUB step is `n{x} * A +/- n{y} * B` over the least common
    # denominator: A and B are products of names that share no factor.
    values = {}  # each name the kernel assigns -> the expression it assigns
    for statement in ast.walk(ast.Module(body, [])):
        if isinstance(statement, ast.Assign):
            (target,), value = statement.targets, statement.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     else [(target, value)])
            values.update((name.id, expression) for name, expression in pairs)
    for site, out, role, x, y in _STEPS:
        if getattr(case, role) in (BinOp.ADD, BinOp.SUB):
            value = values["n" + out]
            assert isinstance(value.op, (ast.Add, ast.Sub)), (case.label, site)
            (nx, *a), (ny, *b) = _product_names(value.left), _product_names(value.right)
            assert (nx, ny) == ("n" + x, "n" + y), (case.label, site)
            _assert_coprime(a, b, {**guarded, **full}, f"{case.label} {site}")

    (result,) = built.value.args
    assert ast.unparse(built.value.func) == "CheckResult", ast.unparse(built)
    assert ast.unparse(ast.Tuple(result.elts[1:])) == "(nlhs, dlhs, nrhs, drhs, None)"
    cross = sp.expand(full["nlhs"] * full["drhs"] - full["nrhs"] * full["dlhs"])
    numerator = _derive(case)[1]
    allowed = {*DENOMINATORS, *(f for g in _slot_divisors(case) for f in _factors(g))}
    # A verdict-only decision that is not hoisted reads only what its path
    # assigns. It is nested where the polynomial, its monomial content
    # divided out, reads r3 but the rule does not hoist it.
    nested, choice = [(result.elts[0], full)], None if hoisted else shared_return.value
    assert (case.label in NESTED) is (
        choice is not None and ast.unparse(choice).startswith("_HELD if nlhs")), case.label
    if isinstance(choice, ast.Name):
        assert choice.id == "_HELD" and cross == 0, ast.unparse(shared_return)
    elif case.label in NESTED:
        nested.append((choice, decided))
    elif not hoisted:
        assert (choice.body.id, choice.orelse.id) == ("_HELD", "_FAILED"), ast.unparse(choice)
        factors = _reduced_factors(choice.test, decided, guard_names, case.label)
        _assert_nonzero_monomial(sp.cancel(cross / sp.Mul(*factors)), allowed, ast.unparse(choice))
    returns = [(*_decision(choice), env) for choice, env in nested]
    assert [verdicts for verdicts, _, _ in returns] == [("_HOLDS", "_FAILS"), ("_HELD", "_FAILED")
                                                        ][:len(returns)]
    # Each nested decision is `nlhs * P == nrhs * Q`, P and Q products of
    # atoms (the slot integers and step numerators) that share no factor.
    for choice, env in nested:
        (lhs, *p), (rhs, *q) = map(_product_names, (choice.test.left, *choice.test.comparators))
        assert (lhs, rhs) == ("nlhs", "nrhs"), ast.unparse(choice)
        assert all(name in SLOT_NAMES or name[0] == "n" for name in p + q), ast.unparse(choice)
        _assert_coprime(p, q, env, case.label)
    if case.label in ("L1", "L2"):
        assert (numerator, cross) == (0, 0)
        assert all(sp.expand(eval(decision, {}, env)) == 0 for _, decision, env in returns)
        return
    for _, decision, env in returns:
        _assert_nonzero_monomial(sp.cancel(cross / eval(decision, {}, env)), allowed, decision)
    _assert_nonzero_monomial(sp.cancel(cross / numerator.subs(AS_SLOTS)), allowed, case.label)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.label)
def test_member_kernel_tests_exactly_the_identity_s_divisors(case):
    # The divisor tests that `member` compiles are those of `_divisors`, and
    # each one's numerator and one of the identity's divisors are zero together.
    # A hoisted kernel tests `not n3`, and `n3 == g and d3 == h` for a divisor
    # h * n3 - g * d3 whose zero g/h its memo keeps.
    if case.label in HOISTED_MEMBERS:
        parts = _hoisted(catalog, "_build_member", case)
        tested = []
        for statement in parts.hit:
            if isinstance(statement, ast.If) and ast.unparse(statement.test) == "not n3":
                tested.append(N3)
            elif isinstance(statement, ast.If) and ast.unparse(statement.test).startswith("n3 =="):
                g, h = (parts.env[ast.unparse(comparison.comparators[0])]
                        for comparison in statement.test.values)
                tested.append(h * N3 - g * D3)
        assert len(tested) == len(catalog._divisors(case)), case.label
    else:
        line = _generated_body(catalog, "_build_member", case)[-1]
        tests = line.removeprefix("return ").split(" and ")
        numerators = [test.removesuffix(" != 0") for test in tests if test.endswith(" != 0")]
        assert numerators == [f"({numerator})" for _, numerator in catalog._divisors(case)]
        tested = [eval(numerator, {}, SLOT_NAMES) for numerator in numerators]
    derived = _slot_divisors(case)
    for numerator in tested:
        assert any(_is_denominator_monomial(numerator / g) for g in derived), numerator
    for g in derived:
        assert any(_is_denominator_monomial(numerator / g) for numerator in tested), g


def _hoisted(module, builder, case) -> SimpleNamespace:
    """The parts of a hoisted kernel (`check`'s verdict-only path, or
    `member`): the names its memo keeps after r1 and r2; the miss's loads and
    assignments and its call of `zeros`; the hit's statements; the full path
    (`check`'s, else empty); the values of the miss's names, and the
    arguments of `zeros`, on the slot symbols. Checks the memo's layout on
    the way: it unpacks the closure cell `row` as `last1, last2, names`, and
    unless r1 and r2 are both those objects it loads their slots, computes
    the names and stores all of them back as one tuple."""
    lines = _generated_body(module, builder, case)
    body, full = ast.parse("\n".join(lines)).body, []
    if module is identity:
        verdict, *full = body
        assert ast.unparse(verdict.test) == "verdict_only" and not verdict.orelse, case.label
        body = verdict.body
    unpack, miss, *hit = body
    (target,) = unpack.targets
    assert ast.unparse(unpack.value) == "row" and isinstance(target, ast.Tuple), ast.unparse(unpack)
    last1, last2, *names = [name.id for name in target.elts]
    assert (last1, last2) == ("last1", "last2") and len(set(names)) == len(names), names
    assert ast.unparse(miss.test) == "last1 is not r1 or last2 is not r2" and not miss.orelse
    *computed, store = miss.body
    assert ast.unparse(store) == f"row = ({', '.join(['r1', 'r2', *names])})", ast.unparse(store)
    (solve,) = [statement for statement in computed if isinstance(statement.value, ast.Call)]
    assert ast.unparse(solve.value.func) == "zeros", ast.unparse(solve)
    env = _components()
    assigned = _assigned([statement for statement in computed if statement is not solve], env)
    arguments = [sp.expand(eval(ast.unparse(argument), {}, env)) for argument in solve.value.args]
    (solved,) = solve.targets
    # Every slot of r1 or r2 that the body names, the miss loads itself, and
    # a hit loads r3's: `_define` adds no load.
    text = "\n".join(lines)
    assert all(load in text for slot, load in identity._LOADS.items() if slot in text), case.label
    return SimpleNamespace(names=names, computed=computed, solve=solve, hit=hit, full=full,
                           env=env, arguments=arguments, assigned=assigned + [
                               name.id for name in solved.elts])


def _polynomial_and_atoms(module, case, full: list) -> tuple:
    """What a hoisted kernel's hit stands for, in the slot symbols: the
    polynomial whose zero it decides, the full path's nested `left - right`
    (`check`) or `coef*n2 + const*d2` of `_EQUATIONS` (`member`), and the
    atoms that must be nonzero, the full path's guard names (`check`) or
    the numerators of `_divisors` (`member`), in the order the full path's
    guard names them."""
    if module is catalog:
        coef, const = (eval(side, {}, dict(SLOT_NAMES)) for side in catalog._EQUATIONS[case])
        atoms = [eval(numerator, {}, dict(SLOT_NAMES)) for _, numerator in catalog._divisors(case)]
        return sp.expand(coef * N2 + const * D2), atoms, None
    env = _components()
    _assigned([statement for statement in full if isinstance(statement, ast.Assign)], env)
    nested = full[-1].value.args[0].elts[0].test
    polynomial = eval(f"({ast.unparse(nested.left)}) - ({ast.unparse(nested.comparators[0])})",
                      {}, env)
    guards = [statement.test for statement in full if isinstance(statement, ast.If)]
    names = [ast.unparse(name) for guard in guards for name in (
        guard.operand.values if isinstance(guard.operand, ast.BoolOp) else [guard.operand])]
    # The guard's branch computes the rest of the steps: every denominator.
    for guard in full:
        if isinstance(guard, ast.If):
            _assigned(guard.body[:-1], env)
    return sp.expand(polynomial), [sp.expand(env[name]) for name in names], env


def _rational_zeros(coefficients: list) -> list[tuple[int, int]]:
    """The distinct rational zeros n/d of Σ c_i * x**(k - i), by sympy, as
    (n, d) in lowest terms with d > 0, sorted."""
    x = sp.Symbol("x")
    polynomial = sp.Poly(sum(c * x ** (len(coefficients) - 1 - i)
                             for i, c in enumerate(coefficients)), x)
    return sorted(sp.fraction(zero) for zero in sp.roots(polynomial, filter="Q"))


# Rows (r1, r2) for `zeros` on a kernel's coefficients: for each r1, the r2
# that makes each r3 of _ZERO_AT a zero of the row (r1 = 0 gives the rows of
# cases 13 and 14 on which every r3 is one), and a few rows with no rational
# zero at all. r1 < 0 makes the leading coefficient of 13 negative, r1 > 0
# that of 11 and 14, and every zero has a common factor to divide out.
_ROW_R1 = [Fraction(2, 3), Fraction(-3, 5), Fraction(0), Fraction(1), Fraction(-2)]
_ZERO_AT = [Fraction(1, 2), Fraction(-2, 7), Fraction(0), Fraction(3)]
_ROW_R2 = [Fraction(-5, 7), Fraction(1, 3)]


@pytest.mark.parametrize("builder, case", [
    *(("_build_kernel", case) for case in ALL_CASES if case.label in HOISTED),
    *(("_build_member", case) for case in ALL_CASES if case.label in HOISTED_MEMBERS),
], ids=lambda value: getattr(value, "label", value))
def test_hoisted_kernels_decide_by_r3_s_part_of_the_polynomial(builder, case):
    # A hoisted kernel (`check`'s verdict-only path, or `member`) keeps in
    # its memo, per row of r1 and r2 objects, `zeros`' answer on the
    # coefficients of its polynomial in r3, `every, a1, b1, ...`, and the
    # zero `g, h` of each atom of its guard that is not n3 itself; a hit
    # compares r3's slots with those. This proves, for each such kernel:
    # - the memo is keyed on both objects and stored whole (`_hoisted`), and
    #   what the miss computes reads only r1's and r2's slots, the hit only
    #   r3's;
    # - the polynomial is homogeneous in n3 and d3 of degree k = 1 or 2, and
    #   the arguments of `zeros` are its coefficients, highest power of n3
    #   first, so it is zero exactly where their polynomial in x = n3/d3 is;
    # - `zeros` answers sympy's rational zeros of that polynomial, each in
    #   lowest terms with a positive denominator, on rows with two, one and
    #   no rational zeros, and with all of them;
    # - each stored atom zero is exactly the zeros of one guard atom, whose
    #   n3 coefficient is a nonzero denominator monomial: g/h is -n_i/d_i or
    #   n_i/d_i, so in lowest terms with h > 0, and the atom vanishes there;
    #   the other atom is n3 itself, tested as `not n3`;
    # - for any values of the memo's names, the hit answers as the full path
    #   would on an r3 whose atoms are zero exactly where r3's slots equal
    #   their stored zero: the site of the first denominator with a zero atom
    #   (`check`) or False (`member`), else whether every r3 is a zero or r3's
    #   slots equal a stored pair; and it reads d3 only where n3 equals a
    #   stored numerator, each slot once.
    module = identity if builder == "_build_kernel" else catalog
    parts = _hoisted(module, builder, case)
    polynomial, atoms, full_env = _polynomial_and_atoms(module, case, parts.full)
    row_slots = set(SLOTS) - {N3, D3}
    assert set(parts.names) <= set(parts.assigned), (case.label, parts.names)
    for statements, components in ((parts.computed, {"r1", "r2"}), (parts.hit, {"r3"})):
        for node in ast.walk(ast.Module(statements, [])):
            if isinstance(node, ast.Attribute):
                assert node.value.id in components, (case.label, ast.unparse(node))

    # The polynomial, and the arguments of `zeros`.
    coefficients = parts.arguments
    degree = len(coefficients) - 1
    pairs = [(f"a{i}", f"b{i}") for i in range(1, degree + 1)]
    (solved,) = parts.solve.targets
    assert [name.id for name in solved.elts] == ["every", *(name for pair in pairs
                                                            for name in pair)], case.label
    assert 1 <= degree <= 2 and all(c.free_symbols <= row_slots for c in coefficients), case.label
    assert {sum(monomial) for monomial in sp.Poly(polynomial, N3, D3).monoms()} == {degree}, (
        case.label, polynomial)
    assert sp.expand(polynomial - sum(c * N3 ** (degree - i) * D3 ** i
                                      for i, c in enumerate(coefficients))) == 0, case.label
    for r1, r2 in _rows(polynomial, coefficients):
        values = {N1: r1.numerator, D1: r1.denominator, N2: r2.numerator, D2: r2.denominator}
        at_row = [int(c.subs(values)) for c in coefficients]
        every, *found = _forms.zeros(*at_row)
        zeros = sorted(zip(found[::2], found[1::2]))
        expected = [] if not any(at_row) else _rational_zeros(at_row)
        assert every is (not any(at_row)), (case.label, r1, r2)
        assert zeros == sorted(expected + [(0, 0)] * (degree - len(expected))), (
            case.label, r1, r2, zeros, expected)

    # The atoms: n3 itself, tested as `not n3`, and one stored zero for each
    # other guard atom.
    tests = [statement for statement in parts.hit if isinstance(statement, ast.If)]
    bare = [test for test in tests if ast.unparse(test.test) == "not n3"]
    stored = [test for test in tests if ast.unparse(test.test).startswith("n3 == ")]
    assert len(bare) == (N3 in atoms) and len(stored) == len(atoms) - len(bare), case.label
    zero_of = {N3: None}
    for test in stored:
        g, h = (ast.unparse(comparison.comparators[0]) for comparison in test.test.values)
        assert ast.unparse(test.test) == f"n3 == {g} and d3 == {h}", ast.unparse(test)
        numerator, denominator = parts.env[g], parts.env[h]
        at_zero = {N3: numerator, D3: denominator}
        (atom,) = [atom for atom in atoms
                   if atom != N3 and sp.expand(atom.subs(at_zero, simultaneous=True)) == 0]
        assert {sum(monomial) for monomial in sp.Poly(atom, N3, D3).monoms()} == {1}, atom
        assert _is_denominator_monomial(sp.Poly(atom, N3, D3).coeff_monomial(N3)), atom
        i = str(denominator)[1:]
        assert str(denominator) in ("d1", "d2") and numerator in (SLOT_NAMES["n" + i],
                                                                   -SLOT_NAMES["n" + i]), (g, h)
        zero_of[atom] = (g, h)
    assert set(zero_of) == set(atoms) | {N3}, case.label

    # The hit, for any values of the memo's names.
    results = {"_HELD": "held", "_FAILED": "failed", "_UNDEFINED_AT": _SITES}
    source = "def hit(r3):\n" + "\n".join(
        "    " + line for line in ast.unparse(ast.Module(parts.hit, [])).splitlines())
    kept = [(0, 0), (2, 1), (3, 4), (3, 5)]
    for every, decided, guarded in product((False, True), product(kept, repeat=degree),
                                           product([(0, 1), (2, 1), (-3, 4)], repeat=len(stored))):
        memo = {"every": every, **{name: value for pair, values in zip(pairs, decided)
                                   for name, value in zip(pair, values)}}
        atom_zeros = dict(zip([atom for atom in atoms if atom != N3], guarded))
        for atom, (g, h) in zip(atom_zeros, guarded):
            memo.update(zip(zero_of[atom], (g, h)))
        namespace = {**results, **memo}
        exec(source, namespace)
        numerators = [value for value, _ in (*decided, *guarded)]
        for n3, d3 in product((0, 2, 3, -3, 5), (1, 4, 5)):
            reads = []
            r3 = _Recording(n3, d3, reads)
            zero = {atom for atom in atoms
                    if (not n3 if atom == N3 else (n3, d3) == atom_zeros[atom])}
            if module is catalog:
                expected = not zero and (every or (n3, d3) in decided)
            elif zero:
                expected = _SITES[next(at for at, factors in enumerate(_zero_at(full_env))
                                       if factors & {f for atom in zero for f in _factors(atom)})]
            else:
                expected = "held" if every or (n3, d3) in decided else "failed"
            answer = namespace["hit"](r3)
            assert answer is expected if module is catalog else answer == expected, (
                case.label, memo, n3, d3, answer)
            assert reads[:1] == ["n3"] and len(reads) == len(set(reads)), reads
            assert "d3" not in reads or n3 in numerators, (case.label, memo, n3, reads)


class _Recording:
    """r3 with the slots n3 and d3, recording each read in `reads`."""

    def __init__(self, n3: int, d3: int, reads: list):
        self._slots, self._reads = (n3, d3), reads

    @property
    def _numerator(self):
        self._reads.append("n3")
        return self._slots[0]

    @property
    def _denominator(self):
        self._reads.append("d3")
        return self._slots[1]


def _rows(polynomial, coefficients) -> list[tuple[Fraction, Fraction]]:
    """`_ROW_R1` × (the r2 that makes each of `_ZERO_AT` a zero of the row,
    where one does, and `_ROW_R2`)."""
    rows = []
    for r1 in _ROW_R1:
        slots = {N1: r1.numerator, D1: r1.denominator}
        for r3 in _ZERO_AT:
            # The polynomial is linear in n2 and d2: α * n2 + β * d2.
            at = sp.Poly(sp.expand(polynomial.subs({**slots, N3: r3.numerator,
                                                    D3: r3.denominator})), N2, D2)
            alpha, beta = at.coeff_monomial(N2), at.coeff_monomial(D2)
            if alpha:
                rows.append((r1, Fraction(int(-beta), int(alpha))))
        rows += [(r1, r2) for r2 in _ROW_R2]
    return rows


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.label)
def test_zero_divisor_kernel_reports_exactly_the_identity_s_divisors(case):
    # `_zero_divisor` compiles `if not (numerator): return text` for each of
    # `_divisors`, in its order, then `return None`. Each numerator is zero
    # exactly where its text's value is, and the texts' values, each taken
    # at its first place, are `_derive`'s divisors in order: so the text
    # reported is that of the identity's first zero divisor.
    *lines, last = _generated_body(catalog, "_build_zero_divisor", case)
    assert last == "return None"
    texts, values = [], []
    for line in lines:
        (test,) = ast.parse(line).body
        (returned,) = test.body
        assert isinstance(test.test, ast.UnaryOp) and isinstance(test.test.op, ast.Not), line
        texts.append(ast.literal_eval(returned.value))
        values.append(sp.numer(sp.together(sp.sympify(texts[-1], locals=dict(zip(map(str, R), R))))))
        numerator = eval(ast.unparse(test.test.operand), {}, SLOT_NAMES)
        slot_value = sp.numer(sp.together(values[-1].subs(AS_SLOTS)))
        assert _is_denominator_monomial(numerator / slot_value), line
    assert texts == [text for text, _ in catalog._divisors(case)]
    assert [*dict.fromkeys(values)] == [*dict.fromkeys(_derive(case)[0])], texts


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
