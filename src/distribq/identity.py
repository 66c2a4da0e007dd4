"""The generalized distributive identity and its three-way verdict.

For an ordered pair of binary operations (outer, inner) and a triple
(r1, r2, r3), the identity under test is

    r1 outer (r2 inner r3)  ==  (r1 outer r2) inner (r1 outer r3)

Values are `fractions.Fraction` at every interface. `check` computes on
their integer numerators and denominators and builds no Fraction itself: its
result keeps each side as an integer pair and builds the side's Fraction
when it is read. Nothing uses floating point. Divisions by zero never raise
out of this module: `check` reports an UNDEFINED verdict that records which
sub-operation failed. `DomainError`, the package's error for
a caller's request outside an operation's contract, is defined here because
every other module imports this one.
"""

from __future__ import annotations

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


def _as_fraction(value, name: str) -> Fraction:
    # Fraction(0.1) is the float's binary expansion, not the rational 1/10.
    if isinstance(value, float):
        raise DomainError(f"{name} must be an exact rational, not the float {value!r}")
    return Fraction(value)


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
_ADD, _SUB, _MUL = BinOp.ADD, BinOp.SUB, BinOp.MUL
_HOLDS, _FAILS, _UNDEFINED = Verdict.HOLDS, Verdict.FAILS, Verdict.UNDEFINED


def _apply_int(op: BinOp, xn: int, xd: int, yn: int, yd: int) -> tuple[int, int] | None:
    """x op y on numerator/denominator pairs, x = xn/xd and y = yn/yd.

    Denominators are nonzero on the way in and on the way out, but neither
    reduced to lowest terms nor kept positive: cross-multiplication compares
    such pairs exactly, and Fraction() normalises them. None means op
    divides by zero.
    """
    if op is _MUL:
        return xn * yn, xd * yd
    if op is _ADD:
        return xn * yd + yn * xd, xd * yd
    if op is _SUB:
        return xn * yd - yn * xd, xd * yd
    if yn == 0:
        return None
    return xn * yd, xd * yn


# Fixed evaluation order used to pick the reported undefined site.
_SITES = (
    "inner of lhs",
    "outer of lhs",
    "first outer of rhs",
    "second outer of rhs",
    "inner of rhs",
)


def check(case: CaseId, t: Triple) -> CheckResult:
    """Evaluate r1 outer (r2 inner r3) against (r1 outer r2) inner (r1 outer r3).

    Both sides are always attempted; if any sub-operation divides by zero
    the verdict is UNDEFINED and the first failing site (in the fixed order
    lhs-inner, lhs-outer, rhs-outer-left, rhs-outer-right, rhs-inner) is
    reported.

    The five sub-operations run on the integer numerators and denominators
    of the triple, and the sides are compared by cross-multiplication. No
    Fraction is built here: the result keeps each side's integer pair and
    builds its Fraction when `lhs` or `rhs` is read.
    """
    outer, inner = case
    r1, r2, r3 = t
    n1, d1 = r1.numerator, r1.denominator
    n2, d2 = r2.numerator, r2.denominator
    n3, d3 = r3.numerator, r3.denominator

    bc = _apply_int(inner, n2, d2, n3, d3)
    lhs = None if bc is None else _apply_int(outer, n1, d1, *bc)
    ab = _apply_int(outer, n1, d1, n2, d2)
    ac = _apply_int(outer, n1, d1, n3, d3)
    rhs = None if ab is None or ac is None else _apply_int(inner, *ab, *ac)

    if lhs is None or rhs is None:
        if bc is None:
            site = _SITES[0]
        elif lhs is None:
            site = _SITES[1]
        elif ab is None:
            site = _SITES[2]
        elif ac is None:
            site = _SITES[3]
        else:
            site = _SITES[4]
        return CheckResult((_UNDEFINED, lhs, rhs, site))
    (ln, ld), (rn, rd) = lhs, rhs
    verdict = _HOLDS if ln * rd == rn * ld else _FAILS
    return CheckResult((verdict, lhs, rhs, None))
