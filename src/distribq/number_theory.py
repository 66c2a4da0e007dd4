"""Integer machinery behind the constructive families.

Two-variable linear Diophantine solving on `math.gcd` and the modular
inverse `pow(a, -1, m)`, and the two dedicated constructions for the
subtraction-over-multiplication (case 12) and addition-over-division
(case 13) integer families.

Every integer parameter is an int or an integral Fraction; any other value,
a float or a bool among them, raises DomainError.
"""

from __future__ import annotations

import sys
from itertools import count, islice
from math import gcd
from typing import Iterator, NamedTuple

from . import _EXPORTS
from .identity import DomainError, Triple, _as_int, _from_coprime_ints

__all__ = _EXPORTS["number_theory"]


class DiophantineSolutionSet(NamedTuple):
    """All integer solutions of p*x + q*y = t, as base + k*step.

    When `empty` is false, the solutions are exactly
    (x0 + k*dx, y0 + k*dy) for integer k, with (x0, y0) = base and
    (dx, dy) = step.
    """

    empty: bool
    base: tuple[int, int] | None = None
    step: tuple[int, int] | None = None

    def at(self, k: int) -> tuple[int, int]:
        if self.empty:
            raise DomainError("solution set is empty")
        (x0, y0), (dx, dy) = self.base, self.step
        return (x0 + k * dx, y0 + k * dy)


def solve_linear_diophantine(p: int, q: int, t: int) -> DiophantineSolutionSet:
    """Solve p*x + q*y = t over the integers.

    Empty iff gcd(|p|, |q|) does not divide t. Otherwise the step is
    (q/g, -p/g) and the base is normalized so that x0 is the smallest
    solution value >= 1 (the x variable usually plays the role of a
    greatest common divisor in the constructions here, hence >= 1). When
    q == 0 the x coordinate is fixed and y0 is normalized the same way.
    """
    p, q, t = _as_int(p, "p"), _as_int(q, "q"), _as_int(t, "t")
    if p == 0 and q == 0:
        raise DomainError("p and q must not both be zero")
    g = gcd(p, q)
    if t % g:
        return DiophantineSolutionSet(empty=True)
    dx, dy = q // g, -(p // g)
    if dx == 0:
        return DiophantineSolutionSet(empty=False, base=(t // p, 1), step=(dx, dy))
    # p*x = t (mod q) reduces to (p/g)*x = t/g (mod |q/g|), and p/g is a
    # unit there; the residue is then shifted into 1..|q/g|.
    m = abs(dx)
    x0 = ((t // g) * pow(p // g, -1, m) - 1) % m + 1
    return DiophantineSolutionSet(empty=False, base=(x0, (t - p * x0) // q), step=(dx, dy))


def _exact(r1: int, r2: int, r3: int) -> Triple:
    """The triple of three ints, each the Fraction n/1 made by setting its
    slots: without the checks that `Triple.of` or `Fraction(int)` make."""
    return tuple.__new__(Triple, map(_from_coprime_ints, (r1, r2, r3)))


def _case12_parameters(n1: int, n2: int) -> tuple[int, int]:
    """(N1, N2) as ints, once they meet the construction's preconditions."""
    n1, n2 = _as_int(n1, "N1"), _as_int(n2, "N2")
    if n1 == 0 or n1 % 2 == 0:
        raise DomainError("N1 must be an odd nonzero integer")
    if n2 == 0:
        raise DomainError("N2 must be nonzero")
    if gcd(abs(n1), abs(n2)) != 1:
        raise DomainError("N1 and N2 must be coprime")
    return n1, n2


def case12_construct(
    n1: int, n2: int, delta: int, allow_degenerate: bool = False
) -> Triple | None:
    """Build a subtraction-over-multiplication solution triple from (N1, N2, delta).

    Solves delta*(N1 - N2) + N3*(2*N2 - N1) = 1 for N3 at the given delta
    and emits (delta*N1, delta*N2, N1*N3). Returns None when no integer N3
    exists for that delta, or when the third component would be zero and
    `allow_degenerate` is false (the construction targets triples with all
    components nonzero). Note 2*N2 - N1 is odd, hence never zero.
    """
    n1, n2 = _case12_parameters(n1, n2)
    delta = _as_int(delta, "delta")
    if delta < 1:
        raise DomainError("delta must be >= 1 (it is a greatest common divisor)")
    denom = 2 * n2 - n1
    num = 1 - delta * (n1 - n2)
    if num % denom:
        return None
    n3 = n1 * (num // denom)
    if n3 == 0 and not allow_degenerate:
        return None
    return _exact(delta * n1, delta * n2, n3)


def case12_enumerate(
    n1: int, n2: int, limit: int, allow_degenerate: bool = False
) -> Iterator[tuple[int, Triple]]:
    """An iterator of the first `limit` (delta, triple) pairs for ascending
    delta >= 1 with integer N3.

    It checks its parameters and solves the equation when called, so a
    DomainError is raised by the call, not by the first `next()`. It walks
    the Diophantine solution set of delta*(N1 - N2) + N3*(2*N2 - N1) = 1
    instead of trial-dividing each delta; both entry points exist because
    the CLI needs point queries and listings.
    """
    n1, n2 = _case12_parameters(n1, n2)
    limit = _as_int(limit, "limit")
    if limit < 0:
        raise DomainError("limit must be nonnegative")
    if limit > sys.maxsize:  # islice takes no larger count
        raise DomainError(f"limit must be at most {sys.maxsize}")
    sols = solve_linear_diophantine(n1 - n2, 2 * n2 - n1, 1)
    # N1, N2 coprime forces gcd(N1 - N2, 2*N2 - N1) = 1, so never empty, and
    # the delta step 2*N2 - N1 is odd, so never zero: (delta, y) walks by the
    # step, turned the way delta grows, from the smallest delta >= 1.
    (delta, y), (ddelta, dy) = sols.base, sols.step
    if ddelta < 0:
        ddelta, dy = -ddelta, -dy
    triples = ((delta, _exact(delta * n1, delta * n2, n1 * y))
               for delta, y in zip(count(delta, ddelta), count(y, dy)) if y or allow_degenerate)
    return islice(triples, limit)


def case13_family5(a: int, f: int, k: int, sign: int = 1) -> Triple:
    """Build an addition-over-division solution triple (a, c, e/f).

    The components come from the quadratic e^2 + f*(a-1)*e + c*f^2 = 0 with
    discriminant K^2: c = ((f*(a-1))^2 - K^2) / (4*f^2) and
    e = (-f*(a-1) + sign*K) / 2. Only f = 1 can succeed: r3 = e/f is a root
    of the monic x^2 + (a-1)*x + c, so by the rational root theorem it is an
    integer. Parameters are rejected (DomainError naming the first violated
    constraint) unless f = 1, e is an integer, e and c are nonzero, and
    r1 + r3 is nonzero so the identity is defined. With f = 1 an integer e
    makes c an integer too: (a-1) - K and (a-1) + K are both even.
    """
    a, f, k, sign = _as_int(a, "a"), _as_int(f, "f"), _as_int(k, "K"), _as_int(sign, "sign")
    if a == 0:
        raise DomainError("a must be nonzero")
    if f != 1:
        raise DomainError(
            "f must be 1 (r3 = e/f is a root of the monic x^2 + (a-1)x + c, "
            "so by the rational root theorem it is an integer)"
        )
    if k < 0:
        raise DomainError("K must be nonnegative")
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    w = a - 1
    if (w - k) % 2:
        raise DomainError("e is not an integer (a-1 and K have opposite parity)")
    c = (w * w - k * k) // 4
    e = (-w + sign * k) // 2
    if c == 0:
        raise DomainError("c must be nonzero")
    if e == 0:
        raise DomainError("e must be nonzero")
    if a == -e:
        raise DomainError("r1 + r3 must be nonzero")
    return _exact(a, c, e)
