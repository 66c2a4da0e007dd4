"""The polynomial forms of a kernel's decision, and the rule that picks one.

`identity`'s `check` kernels and `catalog`'s `member` kernels decide by an
integer equation in the six slot integers n1, d1, ..., d3 of a triple.
Expanded into a polynomial (`expand`, over the kernel's own source texts),
the equation can be written in other forms. `reduced` divides out the
monomial content and tests the atoms that may be zero. `hoisted` reads the
polynomial, homogeneous in n3 and d3 of degree 1 or 2, as one in x = n3/d3
whose coefficients read only r1's and r2's slots. Along a row of a grid
scan r1 and r2 stay the same objects, so `rooted` writes a kernel that
solves that polynomial over the rationals once per row (`zeros`, by
`math.isqrt` of the discriminant and `gcd`), keeps its zeros with the row,
and decides each triple by comparing r3's slots with them. That relies on
every Fraction keeping its slots in lowest terms with a positive
denominator, which
`tests/test_identity.py::test_fraction_keeps_its_integers_in_its_slots`
pins.

The polynomial picks its form. Divided by its monomial content, it either
reads no slot of r3, and the decision is a condition on r1 and r2 with r3
at most a factor (the paper's cases 1 to 8, L1 and L2): `check` takes the
reduced form and `member` its plain line. Or it reads r3, and where every
guard atom is n3 or has one zero in r3 that `_root` solves, the decision is
one of the paper's polynomial equations (cases 11 to 14), which `rooted`
hoists. Otherwise the kernel keeps its plain form: `check` the nested
cross-multiplication, `member` its line. `reduced` and `rooted` each
return None where the rule picks another form. `catalog` imports the
module, and `identity` when it first builds a kernel.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt
from typing import Callable

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
    names before it}, expanded by one `exec` of it and the texts it reads
    into a polynomial in the slot integers: {sorted atoms: nonzero coefficient}."""
    last = [*texts][-1]
    read = _reads(texts, texts[last])
    env = {slot: Poly({(slot,): 1}) for slot in _LOADS}
    exec("\n".join(f"{name} = {text}" for name, text in texts.items()
                   if name in read or name == last), {}, env)
    return {monomial: c for monomial, c in env[last].items() if c}


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


def _by_r3(poly: dict) -> dict:
    """The monomials of `poly` grouped by their part in n3 and d3: {the
    sorted atoms of that part: {the rest of a monomial's atoms: its coefficient}}."""
    groups: dict = {}
    for monomial, c in poly.items():
        r3 = tuple(atom for atom in monomial if atom[1] == "3")
        groups.setdefault(r3, {})[tuple(atom for atom in monomial if atom[1] != "3")] = c
    return groups


def _reads_r3(poly: dict) -> bool:
    """Whether `poly` divided by its monomial content reads a slot of r3:
    it does exactly where its monomials' parts in n3 and d3 differ. The zero
    polynomial reads none."""
    return len(_by_r3(poly)) > 1


def hoisted(poly: dict) -> list[str] | None:
    """The source texts of the coefficients c_0, ..., c_k of `poly`, a
    polynomial in the slot integers homogeneous of degree k = 1 or 2 in n3
    and d3, in x = n3/d3: `poly` = Σ c_i * n3**(k - i) * d3**i, so, d3 being
    nonzero, `poly` is zero exactly where Σ c_i * x**(k - i) is. Each c_i
    reads only r1's and r2's slots. None if `poly` has no such form."""
    groups = _by_r3(poly)
    degree, *others = {len(r3) for r3 in groups} or {0}
    if others or not 0 < degree <= 2:
        return None
    # The sorted atoms of n3**(k - i) * d3**i: d3 sorts before n3.
    parts = [("d3",) * i + ("n3",) * (degree - i) for i in range(degree + 1)]
    return [horner(groups[part]) if part in groups else "0" for part in parts]


def zeros(a: int, b: int, c: int | None = None) -> tuple:
    """The rational zeros x of a * x + b, or with `c` of a * x**2 + b * x + c:
    (every, n, d, ...), `every` whether every x is one, that is whether every
    coefficient is zero, then one pair per degree: each zero n/d in lowest
    terms with d > 0, as a Fraction keeps its slots, and (0, 0) for each pair
    left over, which no Fraction's slots equal. No Fraction is built."""
    if c is None:
        if not a:
            return not b, 0, 0
        # -b/a with the gcd divided out and the sign moved to the numerator.
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        return False, -b // g, a // g
    if not a:
        return (*zeros(b, c), 0, 0)
    # The zeros (-b ± s) / 2a are rational exactly where the discriminant is
    # a square s * s; each is the zero of 2a * x + b ∓ s.
    discriminant = b * b - 4 * a * c
    s = isqrt(discriminant) if discriminant >= 0 else -1
    if s * s != discriminant:
        return False, 0, 0, 0, 0
    return False, *zeros(2 * a, b - s)[1:], *(zeros(2 * a, b + s)[1:] if s else (0, 0))


def _root(atom: dict) -> tuple[str, str] | None:
    """The source texts (n, d) of the one zero n/d of `atom` in x = n3/d3,
    `atom` a polynomial in the slot integers that is ±d_i * n3 ± n_i * d3
    for one component i: n is n_i or -n_i and d is d_i, in lowest terms with
    d > 0 as the component's Fraction keeps them. None if `atom` has another
    form."""
    groups = _by_r3(atom)
    if set(groups) == {("n3",), ("d3",)} and all(len(group) == 1 for group in groups.values()):
        ((den, s),), ((num, t),) = groups[("n3",)].items(), groups[("d3",)].items()
        i = "".join(den)[1:]
        if den == (f"d{i}",) and num == (f"n{i}",) and abs(s) == abs(t) == 1:
            # s * d_i * n3 + t * n_i * d3 is zero where x = -(s * t) * n_i / d_i.
            return "-" * (s == t) + num[0], den[0]
    return None


def rooted(poly: dict, atoms: list, answer: Callable[[str], str]) -> tuple[list[str], int] | None:
    """`poly` == 0 and the `atoms` nonzero as a decision on r3's slots alone,
    given what a memo computes from r1 and r2 once per row. `poly` is the
    decision's polynomial in the slot integers, homogeneous of degree k = 1
    or 2 in n3 and d3 (see `hoisted`). `atoms` are (the result where it is
    zero, the texts whose last `expand` expands to its polynomial) for each
    atom of the guard, in the order they are tested: n3 itself, tested as
    `not n3`, or ±d_i * n3 ± n_i * d3, which is zero exactly where r3 equals
    its one zero (see `_root`); no atom n3 may follow one of the second
    kind. `answer` makes a return from the decision's test.
    The memo reads the closure cell `row`: where r1 and r2 are its first two
    objects, as along a scan's row of triples, it unpacks the rest, else it
    loads the slots of r1 and r2 that it reads, computes `zeros`' answer on
    the coefficients of `poly` as `every, a1, b1, ...` and each atom's zero
    as `g1, h1, ...`, and stores them back in `row` with r1 and r2 as one
    tuple, so that no thread pairs one row's objects with another's numbers.
    The hit then loads n3. Where n3 equals no numerator of those, the
    decision holds exactly on a row where every r3 holds, and no atom of the
    second kind is zero; else it loads d3 and compares both slots with each
    pair, which equal a zero's only where r3 is that zero.
    (the memo's and the hit's lines, the length of `row`'s tuple), or None
    where the rule of the module's docstring picks another form: if `poly`
    without its monomial content reads no slot of r3, or if `poly` or an
    atom has another form."""
    coefficients = hoisted(poly) if _reads_r3(poly) else None
    if coefficients is None:
        return None
    pairs = [(f"a{i}", f"b{i}") for i in range(1, len(coefficients))]
    values = {", ".join(["every", *(name for pair in pairs for name in pair)]):
              f"zeros({', '.join(coefficients)})"}
    first, last, roots = [], [], []
    for zero, texts in atoms:
        atom = expand(texts)
        if atom == {("n3",): 1} and not roots:
            first += ["if not n3:", f"    return {zero}"]
            continue
        root = _root(atom)
        if root is None:
            return None
        g, h = f"g{len(roots) + 1}", f"h{len(roots) + 1}"
        roots.append((g, h))
        values[f"{g}, {h}"] = ", ".join(root)
        last += [f"if n3 == {g} and d3 == {h}:", f"    return {zero}"]
    split = " and ".join(f"n3 != {n}" for n, _ in pairs + roots)
    decision = " or ".join(["every", *(f"n3 == {n} and d3 == {d}" for n, d in pairs)])
    names, loads = ", ".join(values), _reads({}, *values.values())
    return [f"last1, last2, {names} = row", "if last1 is not r1 or last2 is not r2:",
            *(f"    {load}" for slot, load in _LOADS.items() if slot in loads),
            *(f"    {targets} = {text}" for targets, text in values.items()),
            f"    row = r1, r2, {names}",
            "n3 = r3._numerator", *first, f"if {split}:", f"    return {answer('every')}",
            "d3 = r3._denominator", *last, f"return {answer(decision)}"], 3 + names.count(",")


def reduced(poly: dict, guard: list[str]) -> str | None:
    """The test that `poly`, the polynomial in the slot integers of a
    kernel's `left - right`, is zero once the guard has passed. Its monomial
    content is divided out: its atoms that may be zero, those neither a
    denominator nor guarded, are tested as `not (n1 and ...)`, and the rest
    is zero when its positive terms equal its negative ones. "True" if the
    polynomial is identically zero; None if the rest reads a slot of r3, where
    the rule of the module's docstring picks another form."""
    if not poly:
        return "True"
    if _reads_r3(poly):
        return None
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
