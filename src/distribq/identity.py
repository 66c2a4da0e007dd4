"""The generalized distributive identity and its three-way verdict.

For an ordered pair of binary operations (outer, inner) and a triple
(r1, r2, r3), the identity under test is

    r1 outer (r2 inner r3)  ==  (r1 outer r2) inner (r1 outer r3)

Values are `fractions.Fraction` at every interface. `check` is one
straight-line kernel per case, generated from one integer template per
operation when the case is first checked. It builds no Fraction: its
result keeps each side as a numerator/denominator pair and builds the side's
Fraction when it is read. Nothing uses floating point.
Divisions by zero never raise out of this module: `check` reports an
UNDEFINED verdict that records which sub-operation failed. `DomainError`,
the package's error for a caller's request outside an operation's contract,
is defined here because every other module imports this one.
"""

from __future__ import annotations

import reprlib
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

__all__ = [
    "ALL_CASES",
    "BinOp",
    "CaseId",
    "CheckResult",
    "DomainError",
    "Triple",
    "Verdict",
    "case_from_label",
    "check",
]


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
    # Fraction(0.1) is the float's binary expansion, not the rational 1/10.
    if isinstance(value, float):
        raise DomainError(f"{name} must be an exact rational, not the float {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        # reprlib shortens a string past int's digit limit to a few digits.
        raise DomainError(f"{name} must be an exact rational, not {reprlib.repr(value)}") from exc


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
    key = "/".join(part.strip() for part in str(label).upper().split("/"))
    try:
        return _LABEL_TO_CASE[key]
    except KeyError:
        raise KeyError(f"unknown case label {label!r}") from None


class Verdict(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    UNDEFINED = "UNDEFINED"


def _fraction(pair: tuple[int, int] | None) -> Fraction | None:
    return None if pair is None else Fraction(*pair)


class CheckResult(tuple):
    """Outcome of evaluating both sides of the identity.

    HOLDS and FAILS always carry both side values. UNDEFINED carries the
    description of the first undefined sub-operation, plus whichever side
    values could still be computed.

    `check` builds it from one tuple (verdict, lhs, rhs, undefined_site) in
    which each side is the integer pair (numerator, denominator) it
    computed, neither reduced nor sign-normalised, or None. `lhs` and `rhs`
    build the side's Fraction, in lowest terms, each time they are read, so
    a scan that reads only `verdict` builds none. The class is a tuple only
    so that it is immutable and cheap to build: read it through its
    attributes. Equality, hashing and repr go by the side values, so results
    whose pairs are scaled differently but have equal values are equal.
    """

    __slots__ = ()

    verdict = property(itemgetter(0), doc="HOLDS, FAILS or UNDEFINED.")
    undefined_site = property(itemgetter(3), doc="The first undefined site, or None.")

    @property
    def lhs(self) -> Fraction | None:
        return _fraction(self[1])

    @property
    def rhs(self) -> Fraction | None:
        return _fraction(self[2])

    def _values(self) -> tuple:
        return self.verdict, self.lhs, self.rhs, self.undefined_site

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckResult):
            return NotImplemented
        return self._values() == other._values()

    # tuple's own __ne__ would compare the raw pairs.
    def __ne__(self, other: object) -> bool:
        if not isinstance(other, CheckResult):
            return NotImplemented
        return self._values() != other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        verdict, lhs, rhs, site = self._values()
        return (f"CheckResult(verdict={verdict!r}, lhs={lhs!r}, rhs={rhs!r}, "
                f"undefined_site={site!r})")


# Module-level aliases: looking a member up on an Enum class costs more than
# the integer arithmetic it selects.
_HOLDS, _FAILS, _UNDEFINED = Verdict.HOLDS, Verdict.FAILS, Verdict.UNDEFINED


# Fixed evaluation order used to pick the reported undefined site.
_SITES = (
    "inner of lhs",
    "outer of lhs",
    "first outer of rhs",
    "second outer of rhs",
    "inner of rhs",
)

# x op y on the kernel's (n{x}, d{x}) and (n{y}, d{y}), as source text.
# Denominators are neither reduced nor kept positive: cross-multiplication
# compares such pairs exactly, and Fraction() normalises them. DIV by a zero
# y gives denominator 0 rather than raising, as does any op on such an x.
_TEMPLATES = {
    BinOp.ADD: "n{x} * d{y} + n{y} * d{x}, d{x} * d{y}",
    BinOp.SUB: "n{x} * d{y} - n{y} * d{x}, d{x} * d{y}",
    BinOp.MUL: "n{x} * n{y}, d{x} * d{y}",
    BinOp.DIV: "n{x} * d{y}, d{x} * n{y}",
}


def _undefined_result(dbc: int, dab: int, dac: int, lhs: tuple, rhs: tuple) -> CheckResult:
    """A kernel's UNDEFINED result. The denominators (dbc, lhs[1], dab, dac,
    rhs[1]) are in `_SITES` order, and one is zero where that site or an
    operand it was computed from divides by zero, so the first zero is the
    first undefined site and a side is kept only if none on its way is zero."""
    site = _SITES[(dbc, lhs[1], dab, dac, rhs[1]).index(0)]
    return CheckResult((_UNDEFINED, lhs if dbc and lhs[1] else None,
                        rhs if dab and dac and rhs[1] else None, site))


def _build_kernel(case: CaseId):
    """Generate the straight-line `check` for one case from `_TEMPLATES`."""
    outer, inner = case
    # (result, operation, x, y) in _SITES order
    steps = (("bc", inner, "2", "3"), ("lhs", outer, "1", "bc"), ("ab", outer, "1", "2"),
             ("ac", outer, "1", "3"), ("rhs", inner, "ab", "ac"))
    name = f"check_case_{case.label}"
    lines = [f"def {name}(t):", "    r1, r2, r3 = t"]
    lines += [f"    n{i}, d{i} = r{i}.as_integer_ratio()" for i in (1, 2, 3)]
    for out, op, x, y in steps:
        lines.append(f"    n{out}, d{out} = " + _TEMPLATES[op].format(x=x, y=y))
    # Any other operation's denominator is a product of its operands', so
    # every denominator is nonzero once those of the divisions are.
    divisions = [f"d{out}" for out, op, _, _ in steps if op is BinOp.DIV]
    if divisions:
        lines.append(f"    if not ({' and '.join(divisions)}):")
        lines.append("        return _undefined_result(dbc, dab, dac, (nlhs, dlhs),"
                     " (nrhs, drhs))")
    lines.append("    return CheckResult((_HOLDS if nlhs * drhs == nrhs * dlhs else _FAILS,"
                 " (nlhs, dlhs), (nrhs, drhs), None))")
    namespace: dict = {}
    exec("\n".join(lines), globals(), namespace)
    return namespace[name]


class _Kernels(dict):
    """CaseId -> kernel, each generated the first time its case is checked."""

    def __missing__(self, case: CaseId):
        kernel = self[case] = _build_kernel(case)
        return kernel


_KERNELS = _Kernels()


def check(case: CaseId, t: Triple) -> CheckResult:
    """Evaluate r1 outer (r2 inner r3) against (r1 outer r2) inner (r1 outer r3).

    Both sides are always attempted; if any sub-operation divides by zero
    the verdict is UNDEFINED and the first failing site (in the fixed order
    lhs-inner, lhs-outer, rhs-outer-left, rhs-outer-right, rhs-inner) is
    reported.

    The case's kernel, generated from `_TEMPLATES` on first use, runs the
    five sub-operations on the triple's numerators and denominators and
    compares the sides by cross-multiplication. The result keeps each side's
    integer pair and builds its Fraction when `lhs` or `rhs` is read.
    """
    return _KERNELS[case](t)
