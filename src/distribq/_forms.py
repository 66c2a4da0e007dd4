"""The polynomial forms of a kernel's decision, and their prices.

`identity`'s `check` kernels and `catalog`'s `member` kernels decide by an
integer equation in the six slot integers n1, d1, ..., d3 of a triple.
Expanded into a polynomial (`expand`, over the kernel's own source texts),
the equation can be written in other forms: `reduced` divides out the
monomial content and tests the atoms that may be zero, and `hoisted` groups
the monomials by their r3 part, so that a row of a grid scan, along which
r1 and r2 stay the same objects, computes their coefficients once (`memo`)
and each triple only its r3 part. `cost` prices a form in slot loads and
operations, and the kernel builders keep the cheapest. `catalog` imports
the module, and `identity` when it first builds a kernel.
"""

from __future__ import annotations

from collections import Counter

from .identity import _LOADS, _reads


class Poly(Counter):
    """A polynomial in the slot integers: {the sorted atoms of a monomial:
    its coefficient}, with the operations of the step texts and of
    `catalog`'s equations."""

    def __add__(self, other):
        total = Poly(self)
        total.update(other)
        return total

    def __sub__(self, other):
        total = Poly(self)
        total.subtract(other)
        return total

    def __mul__(self, other):
        product = Poly()
        for m, a in self.items():
            for k, b in other.items():
                product[tuple(sorted(m + k))] += a * b
        return product

    def __rmul__(self, c: int):
        return Poly({m: c * a for m, a in self.items()})


def expand(texts: dict) -> dict:
    """The last of `texts`, {name: source text in the slot integers and the
    names before it}, expanded by one `exec` into a polynomial in the slot
    integers: {sorted atoms: nonzero coefficient}."""
    env = {slot: Poly({(slot,): 1}) for slot in _LOADS}
    exec("\n".join(f"{name} = {text}" for name, text in texts.items()), {}, env)
    return {monomial: c for monomial, c in env[[*texts][-1]].items() if c}


# The slot integers of r1 and r2, which a scan's row of triples keeps the same
# objects: n1, d1, n2, d2.
ROW = tuple(slot for slot in _LOADS if slot[1] != "3")


def common(poly: dict) -> Counter:
    """The atoms that every monomial of `poly` has, as often as each has them."""
    content = Counter(min(poly))
    for monomial in poly:
        content &= Counter(monomial)
    return content


def horner(poly: dict) -> str:
    """The source text of `poly`, {atoms: coefficient}, with the atoms that
    all its terms share factored out, as Horner's rule does."""
    (monomial, c), *more = poly.items()
    if not more:
        factors = [str(abs(c))] * (abs(c) != 1 or not monomial) + [*monomial]
        return "-" * (c < 0) + " * ".join(factors)
    content = common(poly)
    if not content:
        terms = sorted(poly.items(), key=lambda term: (term[1] < 0, term))
        return " + ".join(horner(dict([term])) for term in terms).replace("+ -", "- ")
    inner = horner({tuple((Counter(m) - content).elements()): c for m, c in poly.items()})
    return f"({inner}) * " + " * ".join(content.elements())


def hoisted(poly: dict) -> tuple[dict, str]:
    """`poly` == 0, `poly` a polynomial in the slot integers, as a decision
    on n3 and d3 whose coefficients read only r1's and r2's slots: the
    coefficients {k0: its text, ...}, one per monomial m(n3, d3), and the
    decision `Σ k_i * m_i == k_j * m_j`, k_j minus the last monomial's
    coefficient, or `k0 * m_0 == 0`."""
    groups: dict = {}
    for monomial, c in poly.items():
        r3 = tuple(atom for atom in monomial if atom[1] == "3")
        groups.setdefault(r3, {})[tuple(atom for atom in monomial if atom[1] != "3")] = c
    coefficients, terms = {}, []
    for at, r3 in enumerate(sorted(groups)):
        # The last of two or more terms moves to the right side, negated.
        sign = -1 if at and at == len(groups) - 1 else 1
        coefficients[f"k{at}"] = horner({m: sign * c for m, c in groups[r3].items()})
        terms.append((f"k{at}", *r3))
    *rest, last = terms
    right = horner({last: 1})
    return coefficients, f"{horner(dict.fromkeys(rest, 1))} == {right}" if rest else (
        f"{right} == 0")


MEMO_TEST = "last1 is not r1 or last2 is not r2"


def memo(read: set, coefficients: dict) -> tuple[list[str], int]:
    """The lines that set the `coefficients` {name: text}, and the slot
    integers of r1 and r2 among the names `read` that the rest of a kernel
    reads: unpacked from the closure cell `row` where r1 and r2 are its two
    objects, as along a scan's row of triples, else loaded, computed and
    stored back in `row` as one tuple, so that no thread pairs one row's
    objects with another's numbers. Then the length of that tuple."""
    slots = [slot for slot in ROW if slot in read]
    names = ", ".join([*slots, *coefficients])
    loads = _reads({}, *slots, *coefficients.values())
    return [f"last1, last2, {names} = row", f"if {MEMO_TEST}:",
            *(f"    {load}" for slot, load in _LOADS.items() if slot in loads),
            *(f"    {name} = {text}" for name, text in coefficients.items()),
            f"    row = r1, r2, {names}"], 2 + len(slots) + len(coefficients)


# What a row hit of a `memo` adds to a path's price: the cell's load, the
# row's unpack into its names and the two `is` tests, counted as 8. Set from
# timings along scan rows against the cheaper memo-free form: it keeps the
# memo where a hit saved a tenth to a half of a call (cases 11 to 14), and
# leaves it out where a hit saved less than a tenth (check 9 and 10, member
# 8), a gain that a row's miss, dearer than the memo-free path, and a call
# outside a scan, which always misses, would eat.
HIT = 8


def cost(texts: dict, *roots: str, hit: bool = False) -> int:
    """Slot loads and operations on a path that evaluates the texts `roots`
    and the step `texts` they read. With `hit`, on a row hit of a `memo`: it
    pays `HIT` and loads no slot of r1 or r2. The miss is not priced on its
    own: along a scan's row of V triples it runs once (1 in 27 on a (6, 3)
    grid, 1 in 55 on (10, 4)), under one operation a triple."""
    return hit * HIT + sum(map(operations, roots)) + sum(
        (not hit or name not in ROW) if name in _LOADS else operations(texts[name])
        for name in _reads(texts, *roots))


def reduced(poly: dict, guard: list[str]) -> str:
    """The test that `poly`, the polynomial in the slot integers of a
    kernel's `left - right`, is zero once the guard has passed. Its monomial
    content is divided out: its atoms that may be zero, those neither a
    denominator nor guarded, are tested as `not (n1 and ...)`, and the rest
    is zero when its positive terms equal its negative ones. "True" if the
    polynomial is identically zero."""
    if not poly:
        return "True"
    content = common(poly)
    tests = " and ".join(atom for atom in _LOADS
                         if content[atom] and atom[0] == "n" and atom not in guard)
    parts = [f"not ({tests})" if " " in tests else f"not {tests}"] if tests else []
    if len(poly) > 1:
        sides = ({}, {})
        for monomial, c in poly.items():
            sides[c < 0][tuple((Counter(monomial) - content).elements())] = abs(c)
        parts.append(" == ".join(horner(side) if side else "0" for side in sides))
    return " or ".join(parts)


def operations(text: str) -> int:
    return sum(word in ("*", "+", "-", "==", "!=", "is", "not", "and", "or")
               for word in text.split())
