"""Canonical exact rational arithmetic.

The value type is the standard library's `fractions.Fraction`, re-exported
here as `Rational`. Fraction already maintains every invariant the rest of
the package relies on: the denominator is a positive integer, numerator and
denominator are coprime, zero is stored as 0/1, equality is exact, and all
integers are arbitrary precision. Values are immutable, so everything in
this module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "DomainError",
    "Rational",
    "gcd",
    "make",
]

Rational = Fraction


class DomainError(ValueError):
    """A precondition or constructive constraint was violated.

    Deliberately distinct from ZeroDivisionError: dividing by zero is an
    undefined operation that the identity checker converts into an
    UNDEFINED verdict, while a DomainError means the caller asked for
    something outside an operation's contract (zero denominator, rejected
    family parameters, and so on).
    """


def make(num: int, den: int = 1) -> Rational:
    """Build the canonical fraction num/den.

    The sign moves to the numerator and the gcd is divided out, so the
    result is unique per value (zero becomes 0/1).
    """
    if den == 0:
        raise DomainError("denominator must be nonzero")
    return Fraction(num, den)
