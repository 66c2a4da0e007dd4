"""The generalized distributive identity and its three-way verdict.

For an ordered pair of binary operations (outer, inner) and a triple
(r1, r2, r3), the identity under test is

    r1 outer (r2 inner r3)  ==  (r1 outer r2) inner (r1 outer r3)

Values are `fractions.Fraction` at every interface: `check` takes a
`Triple` of Fractions, as `Triple.of` builds it, or a plain 3-tuple of
Fractions, as a grid scan hands it, and coerces nothing, as a type test per
triple would cost a grid scan time: an int component raises AttributeError
on every path that reads its slots, and passes unread on one that does not,
such as L1's verdict-only path. `check` is one straight-line kernel per
case, generated from the identity's five steps (`_STEPS`) and one integer
template per operation (`_TEMPLATES`) when the case is first checked. It
reads each component's numerator and denominator straight from the
Fraction's `_numerator` and `_denominator` slots and builds no Fraction.
Each step's numerator and denominator are also kept as products of atoms:
n1, d1, ..., d3 and the numerator of each ADD or SUB step. As schoolbook
arithmetic does, an ADD or SUB step puts its terms over the least common
denominator (case 1's rhs is `nab * d3 + nac * d2`), and the full result's
decision cancels the atoms both sides' denominators share before it
cross-multiplies (case 12 decides by `nlhs * d1 == nrhs`, case 1 by
`nlhs == nrhs`). A divisor contributes its numerator's atoms, so
definedness is tested on those that are not denominators: case 8 guards
on `n2 and n3`.
A grid scan, which reads only the verdict, calls `check` with
`verdict_only` and gets one of seven shared results that carry no sides,
`_HELD`, `_FAILED` or its site's UNDEFINED result in `_UNDEFINED_AT`, so it
builds no result per triple. A kernel's verdict-only path comes first.
Where the guard fails, it picks the site by testing, in `_STEPS` order, the
guard atoms of each site's denominator that no earlier site tested: case 13
answers `_UNDEFINED_AT[0] if not n3 else _UNDEFINED_AT[4]`. Where it
passes, the path decides by a form of the nested `left - right`, expanded
over the kernel's own step texts into a polynomial in n1, ..., d3 (see
`_forms`). The reduced form divides out the polynomial's monomial content,
tests the content's atoms that are neither denominators nor guarded as
`not (n1 and ...)`, and compares the rest as its positive terms against its
negative ones: case 1 decides by `not n1`, case 7 by `n1 == d1`, and L1 and
L2, whose polynomial is zero, return `_HELD` at once. The hoisted form
groups the monomials by their part in n3 and d3. A scan walks
`product((r1,), values, values)`, so r1 and r2 stay the same objects for
V - 1 of every V triples, and along such a row the polynomial is one in r3
alone, homogeneous in n3 and d3 of degree 1 (cases 11 and 12) or 2 (13 and
14): the paper solves the same equations for r2 in closed form. A hoisted
kernel keeps in one closure cell the last row's r1 and r2 with the
polynomial's rational zeros in r3, which `_forms.zeros` solves once per row
with `math.isqrt` and `gcd`: a flag for a row on which every r3 is one, and
at most two pairs (n, d), in lowest terms with d > 0, unused ones (0, 0).
It keeps the zero of each guard atom that reads r3 too: case 13's `nac`
vanishes exactly at r3 = -r1, kept as `(-n1, d1)`. A row hit then compares
r3's slots with those. It loads n3, and d3 only where n3 equals a kept
numerator: case 13 answers most triples by `not n3`, three `!=` tests and
the flag, and a zero by `n3 == a1 and d3 == b1`. Comparing slots relies on
a Fraction keeping its slots in lowest terms with d > 0, which
`tests/test_identity.py::test_fraction_keeps_its_integers_in_its_slots`
pins. The polynomial picks its form (see `_forms`): with its monomial
content divided out, it reads no slot of r3 in cases 1 to 8, L1 and L2,
which take the reduced form; in 11 to 14 it reads r3 and every guard atom
is n3 or has one zero in r3, so they take the hoisted one; 9 and 10,
whose guard also tests n2, keep the nested cross-multiplication. Every
form comes from `_STEPS` and `_TEMPLATES` alone, never from `catalog`'s
equations, so `verify` compares two independently derived equations; in
cases 11 to 14, though, `member`'s decision passes through the
same `_forms` code as `check`'s, so `verify`'s agreement there does not test
that code, and the test suite proves each hoisted kernel equal to its
polynomial instead, and `_forms.zeros` to sympy's rational zeros. Each of
the verdict, full and UNDEFINED paths loads and computes only what it
reads. Any other result is one flat
tuple `(verdict, lhs_n, lhs_d, rhs_n, rhs_d, site)` that keeps each side as
its unreduced numerator and denominator and builds the side's Fraction when
it is read.
`catalog` generates its per-case `member` kernels with the same templates,
the same slot loads, the same rule and row memo, and the same kind of
table, which builds a case's kernel when the case is first looked up. Each
table keeps the case and kernel it served last, so a scan, which checks one
case object triple after triple, finds its kernel without hashing the CaseId.
Nothing uses floating point.
Divisions by zero never raise out of this module: `check` reports an
UNDEFINED verdict that records which sub-operation failed. `DomainError`,
the package's error for a caller's request outside an operation's contract,
is defined here because every other module imports this one.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Callable, NamedTuple

from . import _EXPORTS

__all__ = _EXPORTS["identity"]


class DomainError(ValueError):
    """A precondition or constructive constraint was violated.

    Deliberately distinct from ZeroDivisionError: dividing by zero is an
    undefined operation that the identity checker converts into an
    UNDEFINED verdict, while a DomainError means the caller asked for
    something outside an operation's contract (rejected family parameters,
    an undefined configuration passed to solve_r2, and so on).
    """


class BinOp(Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"

    # Members are singletons compared by identity. Enum's own __hash__ runs
    # in Python, twice in every CaseId dict lookup.
    __hash__ = object.__hash__


def _as_fraction(value, name: str) -> Fraction:
    # A Fraction passes through unchanged: it is immutable, so a parsed value
    # is not built again. A subclass's instance still becomes a plain Fraction.
    if type(value) is Fraction:
        return value
    # Fraction(0.1) is the float's binary expansion, not the rational 1/10.
    if isinstance(value, float):
        raise DomainError(f"{name} must be an exact rational, not the float {value!r}")
    # Fraction(True) is 1, yet a flag is no number; _as_int refuses it too.
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an exact rational, not {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        # reprlib shortens a string past int's digit limit to a few digits.
        raise DomainError(f"{name} must be an exact rational, not {reprlib.repr(value)}") from exc


def _as_int(value, name: str) -> int:
    """An int, or an integral Fraction's numerator; anything else, a bool
    among them, raises DomainError."""
    if isinstance(value, Fraction) and value.denominator == 1:
        value = value.numerator
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DomainError(f"{name} must be an integer")


class Triple(NamedTuple):
    r1: Fraction
    r2: Fraction
    r3: Fraction

    @classmethod
    def of(cls, r1, r2, r3) -> "Triple":
        """Convenience constructor accepting ints, strings, or Fractions.

        A float raises DomainError rather than becoming its binary expansion.
        """
        return cls(_as_fraction(r1, "r1"), _as_fraction(r2, "r2"), _as_fraction(r3, "r3"))


class CaseId(NamedTuple):
    """One of the sixteen ordered (outer, inner) operation pairings."""

    outer: BinOp
    inner: BinOp

    @property
    def label(self) -> str:
        """Case label: "1".."14" for the nontrivial pairings, "L1"/"L2"
        for the two textbook laws (multiplication over +/-)."""
        return _PAIR_TO_LABEL[(self.outer, self.inner)]

    @property
    def case_number(self) -> int | None:
        label = self.label
        return None if label.startswith("L") else int(label)

    def describe(self) -> str:
        return f"{self.outer.value} over {self.inner.value}"


_PAIR_TO_LABEL: dict[tuple[BinOp, BinOp], str] = {
    (BinOp.ADD, BinOp.ADD): "1",
    (BinOp.ADD, BinOp.SUB): "2",
    (BinOp.MUL, BinOp.MUL): "3",
    (BinOp.MUL, BinOp.DIV): "4",
    (BinOp.SUB, BinOp.SUB): "5",
    (BinOp.SUB, BinOp.ADD): "6",
    (BinOp.DIV, BinOp.DIV): "7",
    (BinOp.DIV, BinOp.MUL): "8",
    (BinOp.DIV, BinOp.ADD): "9",
    (BinOp.DIV, BinOp.SUB): "10",
    (BinOp.ADD, BinOp.MUL): "11",
    (BinOp.SUB, BinOp.MUL): "12",
    (BinOp.ADD, BinOp.DIV): "13",
    (BinOp.SUB, BinOp.DIV): "14",
    (BinOp.MUL, BinOp.ADD): "L1",
    (BinOp.MUL, BinOp.SUB): "L2",
}

_LABEL_TO_CASE: dict[str, CaseId] = {
    label: CaseId(outer, inner) for (outer, inner), label in _PAIR_TO_LABEL.items()
}

#: All sixteen cases, numeric labels first, then the two base laws.
ALL_CASES: tuple[CaseId, ...] = tuple(
    _LABEL_TO_CASE[label] for label in [str(n) for n in range(1, 15)] + ["L1", "L2"]
)

# Operation-pair names ("SUB/MUL") resolve through the same table.
_LABEL_TO_CASE.update(
    {f"{case.outer.value}/{case.inner.value}".upper(): case for case in ALL_CASES}
)


def case_from_label(label: str | int) -> CaseId:
    """Look up a case by label ("12", 12, "L1") or operation pair
    ("sub/mul"); case and surrounding whitespace are ignored."""
    # A label spelled as the table spells it is read as it is.
    key = label if isinstance(label, str) and label in _LABEL_TO_CASE else "/".join(
        part.strip() for part in str(label).upper().split("/"))
    try:
        return _LABEL_TO_CASE[key]
    except KeyError:
        raise KeyError(f"unknown case label {label!r}") from None


class Verdict(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    UNDEFINED = "UNDEFINED"


# Values of `catalog` and `oracle` that the command line prints or defaults
# to, defined here so that it reads them without importing either module;
# each of the two imports its own from here.
class SolveOutcome(Enum):
    ALL = "ALL"  # every r2 completes the triple
    NONE = "NONE"  # no r2 completes the triple


DEFAULT_LIST_LIMIT = 100  # listed triples per category in a verification


def _fraction(n: int | None, d: int | None) -> Fraction | None:
    return None if d is None else Fraction(n, d)


def _from_coprime_ints(n: int, d: int = 1) -> Fraction:
    """The Fraction n/d of ints already in lowest terms with d > 0, made by
    setting its two slots, where `Fraction(n, d)` would check both types and
    divide both by their gcd. Python 3.12's private classmethod of this name
    does the same; 3.10 and 3.11 have none."""
    q = object.__new__(Fraction)
    q._numerator, q._denominator = n, d
    return q


class CheckResult(tuple):
    """Outcome of evaluating both sides of the identity.

    A full result that HOLDS or FAILS carries both side values; one that is
    UNDEFINED carries the description of the first undefined sub-operation,
    plus whichever side values could still be computed. The results of
    `check(case, t, verdict_only=True)` carry a verdict, the UNDEFINED site
    and no sides, whatever the verdict: they are seven shared objects,
    `_HELD`, `_FAILED` and the five of `_UNDEFINED_AT`, one per site.

    `check` builds it from one flat tuple (verdict, lhs_n, lhs_d, rhs_n,
    rhs_d, undefined_site) in which each side is the integer numerator and
    denominator it computed, neither reduced nor sign-normalised, or None
    and None. `lhs` and `rhs` build the side's Fraction, in lowest terms,
    each time they are read, so a scan that reads only `verdict` builds none.
    The class is a tuple only so that it is immutable and cheap to build:
    read it through its attributes. Only the CLI unpacks it, to print each
    side from its integers without building the Fraction. Equality, hashing
    and repr go by the side values, so results whose sides are scaled
    differently but have equal values are equal.
    """

    __slots__ = ()

    verdict = property(itemgetter(0), doc="HOLDS, FAILS or UNDEFINED.")
    undefined_site = property(itemgetter(5), doc="The first undefined site, or None.")

    lhs = property(lambda self: _fraction(self[1], self[2]), doc="The left side's value, or None.")
    rhs = property(lambda self: _fraction(self[3], self[4]), doc="The right side's value, or None.")

    def _values(self) -> tuple:
        return self.verdict, self.lhs, self.rhs, self.undefined_site

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckResult):
            return NotImplemented
        return self._values() == other._values()

    # tuple's own __ne__ would compare the raw pairs; object's inverts __eq__.
    __ne__ = object.__ne__

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        verdict, lhs, rhs, site = self._values()
        return (f"CheckResult(verdict={verdict!r}, lhs={lhs!r}, rhs={rhs!r}, "
                f"undefined_site={site!r})")


# Module-level aliases: looking a member up on an Enum class costs more than
# the integer arithmetic it selects.
_HOLDS, _FAILS, _UNDEFINED = Verdict.HOLDS, Verdict.FAILS, Verdict.UNDEFINED

# The results of `check(case, t, verdict_only=True)` that hold and that fail:
# shared by every such call, they carry a verdict and no sides.
_HELD = CheckResult((_HOLDS, None, None, None, None, None))
_FAILED = CheckResult((_FAILS, None, None, None, None, None))


# The identity's five sub-operations, the only statement of them, in the
# order they are evaluated and their undefined sites reported: (site, result,
# outer or inner, x, y), where result = x op y and x, y name a component
# ("1", "2", "3") or an earlier result. A division divides by its y.
_STEPS = (
    ("inner of lhs", "bc", "inner", "2", "3"),
    ("outer of lhs", "lhs", "outer", "1", "bc"),
    ("first outer of rhs", "ab", "outer", "1", "2"),
    ("second outer of rhs", "ac", "outer", "1", "3"),
    ("inner of rhs", "rhs", "inner", "ab", "ac"),
)
_SITES = tuple(step[0] for step in _STEPS)

# The UNDEFINED results of `check(case, t, verdict_only=True)`, one per site in
# `_SITES` order: shared like `_HELD` and `_FAILED`, they carry no sides.
_UNDEFINED_AT = tuple(CheckResult((_UNDEFINED, None, None, None, None, site)) for site in _SITES)

# x op y on the kernel's (n{x}, d{x}) and (n{y}, d{y}), as the source text
# of the result's numerator and of its denominator. In a sum or difference,
# {dx} and {dy} stand for d{x} and d{y}, or, where the two denominators
# share factors, for the factors of each that the other lacks, as schoolbook
# arithmetic puts both terms over their least common denominator.
# Denominators are neither reduced nor kept positive: cross-multiplication
# compares such pairs exactly, and Fraction() normalises them. DIV by a zero
# y gives denominator 0 rather than raising, as does any op on such an x.
_TEMPLATES = {
    BinOp.ADD: ("n{x} * {dy} + n{y} * {dx}", "d{x} * {dy}"),
    BinOp.SUB: ("n{x} * {dy} - n{y} * {dx}", "d{x} * {dy}"),
    BinOp.MUL: ("n{x} * n{y}", "d{x} * d{y}"),
    BinOp.DIV: ("n{x} * d{y}", "d{x} * n{y}"),
}

# Each slot integer n1, d1, ..., d3 and the line that loads it, in load
# order: as_integer_ratio and the numerator/denominator properties are
# Python-level functions in fractions.py, one call per read.
_LOADS = {f"{v}{i}": f"{v}{i} = r{i}.{slot}" for i in "123"
          for v, slot in (("n", "_numerator"), ("d", "_denominator"))}


def _define(name: str, body: list[str], namespace: dict, row: int = 0):
    """Compile `def name(t)` with the lines `body` in the globals `namespace`,
    or `def name(t, verdict_only=False)` if the body names `verdict_only`.
    The function first unpacks `r1, r2, r3 = t`, then loads each slot integer
    whose name the body contains (no other name in a body contains one) and
    whose load the body does not contain: a body that loads a slot itself
    loads it on each path that reads it. With `row`, the function keeps the
    closure cell `row` that `_forms.rooted`'s memo reads, a tuple of `row`
    items, at first a fresh object that no component is."""
    text = "\n".join(body)
    params = "t, verdict_only=False" if "verdict_only" in text else "t"
    lines = [f"def {name}({params}):", *["    nonlocal row"] * bool(row), "    r1, r2, r3 = t"]
    lines += ["    " + load for slot, load in _LOADS.items() if slot in text and load not in text]
    lines += ["    " + line for line in body]
    if row:
        lines = ["def make():", f"    row = (object(),) * {row}",
                 *("    " + line for line in lines), f"    return {name}"]
    defined: dict = {}
    exec("\n".join(lines), namespace, defined)
    return defined["make"]() if row else defined[name]


# The lhs is computed from the steps up to its own, and the rhs, the last
# step, from the rest.
_LHS_STEPS = [step[1] for step in _STEPS].index("lhs") + 1


def _undefined_result(dens: tuple, nlhs: int, nrhs: int) -> CheckResult:
    """A kernel's UNDEFINED result from its steps' denominators in `_STEPS`
    order. One is zero where that site or an operand it was computed from
    divides by zero, so the first zero is the first undefined site and a
    side is kept only if none on its way is zero."""
    first = dens.index(0)
    lhs = (nlhs, dens[_LHS_STEPS - 1]) if first >= _LHS_STEPS else (None, None)
    rhs = (None, None) if first >= _LHS_STEPS or 0 in dens[_LHS_STEPS:] else (nrhs, dens[-1])
    return CheckResult((_UNDEFINED, *lhs, *rhs, _SITES[first]))


def _divisor_operands(case: CaseId) -> list[str]:
    """The operands that the case's division steps divide by, once each, in step order."""
    return [*dict.fromkeys(y for _, _, role, _, y in _STEPS if getattr(case, role) is BinOp.DIV)]


def _reads(texts: dict, *roots: str) -> set:
    """The slot integers and step values that the texts `roots` read,
    directly or through the step `texts` they read."""
    read = {word.strip("(),-") for root in roots for word in root.replace("(", " ").split()}
    for name in reversed(texts):
        if name in read:
            read.update(texts[name].split())
    return read & {*_LOADS, *texts}


def _build_kernel(case: CaseId):
    """Generate the straight-line `check` for one case from `_STEPS` and
    `_TEMPLATES`. Each step's numerator and denominator are also kept as the
    list of atoms each is the product of: n1, d1, ..., d3 and the numerators
    of ADD and SUB steps. The verdict-only path comes first. It decides by
    the form that `_forms`' rule picks from the polynomial: on a row hit of
    its memo by r3's slots compared with the polynomial's rational zeros in
    r3, by the reduced polynomial, or by the nested cross-multiplication.
    Where the guard fails it returns the shared result of the first site
    whose denominator has a zero atom."""
    nums, dens = {v: [f"n{v}"] for v in "123"}, {v: [f"d{v}"] for v in "123"}
    texts = {}  # each step's n{out} and d{out}: the source text of its value
    for _, out, role, x, y in _STEPS:
        op, dx, dy = getattr(case, role), f"d{x}", f"d{y}"
        if op is BinOp.MUL:
            nums[out], dens[out] = nums[x] + nums[y], dens[x] + dens[y]
        elif op is BinOp.DIV:
            nums[out], dens[out] = nums[x] + dens[y], dens[x] + nums[y]
        else:
            # Over the least common denominator: ex and ey are the atoms of
            # each operand's denominator that the other's lacks.
            ex, ey = Counter(dens[x]) - Counter(dens[y]), Counter(dens[y]) - Counter(dens[x])
            nums[out], dens[out] = [f"n{out}"], dens[x] + [*ey.elements()]
            if ey.total() < len(dens[y]):
                dx, dy = (" * ".join(e.elements()) for e in (ex, ey))
        texts[f"n{out}"], texts[f"d{out}"] = (t.format(x=x, y=y, dx=dx, dy=dy)
                                              for t in _TEMPLATES[op])
    # d1, d2 and d3 are never zero, so every denominator is nonzero once the
    # divisors' other atoms are.
    guard = [*dict.fromkeys(atom for y in _divisor_operands(case) for atom in nums[y]
                            if atom[0] == "n")]
    lhs, rhs = Counter(dens["lhs"]), Counter(dens["rhs"])
    left, right = (" * ".join([n, *extra.elements()])
                   for n, extra in (("nlhs", rhs - lhs), ("nrhs", lhs - rhs)))
    nested = f"{left} == {right}"

    def assign(names: set, indent: str = "") -> list[str]:
        return [indent + (_LOADS.get(name) or f"{name} = {texts[name]}")
                for name in (*_LOADS, *texts) if name in names]

    # Each path loads and computes only what it reads, and the full path
    # first what its guard reads.
    first, test, undefined, atoms = _reads(texts, *guard), [], [], []
    if guard:
        # The first site whose denominator has a zero atom is the first
        # undefined one: each site tests the atoms no earlier site tested,
        # and the last site with any needs no test.
        tested, sites = set(), []
        for at, (_, out, *_) in enumerate(_STEPS):
            new = [atom for atom in guard if atom in dens[out] and atom not in tested]
            tested.update(new)
            if new:
                sites.append((f"_UNDEFINED_AT[{at}]", " and ".join(new)))
                atoms += [(sites[-1][0], atom) for atom in new]
        chain = "".join(f"{site} if not ({new}) else " for site, new in sites[:-1])
        test = [f"if not ({' and '.join(guard)}):", f"    return {chain}{sites[-1][0]}"]
        step_dens = ", ".join(f"d{out}" for _, out, *_ in _STEPS)
        undefined = [test[0], *assign(_reads(texts, "nlhs nrhs", step_dens) - first, "    "),
                     f"    return _undefined_result(({step_dens}), nlhs, nrhs)"]

    # A verdict-only call decides by the form that `_forms`' rule picks from
    # the polynomial of `left - right`: on a row hit of its memo by comparing
    # r3's slots with the polynomial's rational zeros in r3, else by the
    # reduced polynomial or the nested cross-multiplication.
    from . import _forms

    poly = _forms.expand({**texts, "difference": f"{left} - ({right})"})
    hoisted = _forms.rooted(poly, [(site, {**texts, "atom": atom}) for site, atom in atoms],
                            lambda test: f"_HELD if {test} else _FAILED")
    if hoisted:
        (path, memo), namespace = hoisted, {**globals(), "zeros": _forms.zeros}
    else:
        verdict = _forms.reduced(poly, guard) or nested
        returned = "_HELD" if verdict == "True" else f"_HELD if {verdict} else _FAILED"
        path = [*assign(first), *test, *assign(_reads(texts, verdict) - first),
                f"return {returned}"]
        memo, namespace = 0, globals()
    body = ["if verdict_only:", *("    " + line for line in path), *assign(first), *undefined,
            *assign(_reads(texts, "nlhs dlhs nrhs drhs", nested) - first),
            f"return CheckResult((_HOLDS if {nested} else _FAILS, nlhs, dlhs, nrhs, drhs, None))"]
    return _define(f"check_case_{case.label}", body, namespace, memo)


class _Kernels(dict):
    """CaseId -> the case's kernel, made by `build` the first time the case
    is looked up. `last` is the (case, kernel) pair that `check` or `member`
    looked up last: a scan calls them triple after triple on one case
    object, which `is` matches without hashing the CaseId. It is replaced as one
    tuple, so no thread pairs one case with another's kernel."""

    __slots__ = ("build", "last")

    def __init__(self, build: Callable = _build_kernel):
        super().__init__()
        self.build, self.last = build, (None, None)

    def __missing__(self, case: CaseId):
        kernel = self[case] = self.build(case)
        return kernel


_KERNELS = _Kernels()


def check(case: CaseId, t: Triple, verdict_only: bool = False) -> CheckResult:
    """Evaluate r1 outer (r2 inner r3) against (r1 outer r2) inner (r1 outer r3).

    A full call always attempts both sides; if any sub-operation divides by zero
    the verdict is UNDEFINED and the first failing site (in the fixed order
    lhs-inner, lhs-outer, rhs-outer-left, rhs-outer-right, rhs-inner) is
    reported.

    The case's kernel, generated from `_TEMPLATES` on first use, runs the
    five sub-operations on the triple's numerators and denominators, each
    sum or difference over its operands' least common denominator, and
    compares the sides by cross-multiplication, with the factors their
    denominators share cancelled. The result keeps each side's numerator and
    denominator and builds its Fraction when `lhs` or `rhs` is read.

    With `verdict_only` true, the result is one of seven shared results
    that carry no sides, `_HELD`, `_FAILED` and one UNDEFINED result per
    site in `_UNDEFINED_AT`: a grid scan, which reads only the verdict,
    allocates no result per triple. Its verdict and `undefined_site` are
    those of the full result. An UNDEFINED call computes only what the
    guard reads and picks its site from the guard's atoms. A decided call
    decides by the reduced polynomial of `left - right`, its monomial
    content divided out (cases 1 to 8, L1 and L2), by the nested
    cross-multiplication (9 and 10) or, in cases 11 to 14, by comparing
    r3's slots with the rational zeros in r3 of that polynomial and of the
    guard's atoms, which the kernel solves once per row of r1 and r2
    objects and keeps with that row. Comparing slots relies on every
    Fraction keeping its slots in lowest terms with a positive denominator.
    Each path loads only the slots its guard and decision read: case 1
    reads only `n1`, L1 none, and case 12, along a row, `n3`, and `d3` only
    where `n3` equals a kept zero's numerator. Every form is derived from
    `_STEPS` and `_TEMPLATES` alone. The full path does not read the memo.
    """
    last, kernel = _KERNELS.last
    if last is not case:
        kernel = _KERNELS[case]
        _KERNELS.last = case, kernel
    return kernel(t, verdict_only)
