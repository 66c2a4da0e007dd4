"""Workload definitions: the argv each workload sends and how each answer is checked.

The grid workloads send fixed commands whose stdout bytes and exit codes
were recorded at the commit that introduced the benchmark (`golden.json`);
any later output must match them byte for byte.

`point-queries` draws single commands from a seeded mix. Each query
carries its own checker, written here with plain `Fraction` arithmetic and
the identity as the paper states it, so answers are judged independently
of the package for any seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

HARD_CASES = ("12", "13", "14")
LABELS = tuple(str(n) for n in range(1, 15)) + ("L1", "L2")
FORMATS = ("plain", "json", "csv")

# The sixteen (outer, inner) pairings, by label.
PAIRS = {
    "1": ("add", "add"), "2": ("add", "sub"), "3": ("mul", "mul"),
    "4": ("mul", "div"), "5": ("sub", "sub"), "6": ("sub", "add"),
    "7": ("div", "div"), "8": ("div", "mul"), "9": ("div", "add"),
    "10": ("div", "sub"), "11": ("add", "mul"), "12": ("sub", "mul"),
    "13": ("add", "div"), "14": ("sub", "div"), "L1": ("mul", "add"),
    "L2": ("mul", "sub"),
}


# ---------------------------------------------------------------------------
# Grid workloads


def grid_commands(workload: str, jobs: int) -> list[list[str]]:
    """The argv of one pass of a grid workload."""
    if workload == "verify-hard":
        return [["verify", "--case", c, "--num-bound", "10", "--den-bound", "4",
                 "--jobs", str(jobs), "--format", "json"] for c in HARD_CASES]
    if workload == "search-all":
        return [["search", "--case", c, "--num-bound", "6", "--den-bound", "3",
                 "--jobs", str(jobs), "--format", "json"] for c in LABELS]
    raise ValueError(f"not a grid workload: {workload}")


def grid_size(num_bound: int, den_bound: int) -> int:
    """Number of canonical n/d with |n| <= num_bound and 1 <= d <= den_bound."""
    return len({Fraction(n, d) for d in range(1, den_bound + 1)
                for n in range(-num_bound, num_bound + 1)})


def command_triples(argv: list[str]) -> int:
    """Triples a grid command scans: V cubed."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return grid_size(int(opts["--num-bound"]), int(opts["--den-bound"])) ** 3


def golden_key(argv: list[str]) -> str:
    """Key of a grid command in golden.json; --jobs is left out because the
    output must be identical for any worker count."""
    i = argv.index("--jobs")
    return " ".join(argv[:i] + argv[i + 2:])


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


def output_digest(rc: int, out: str) -> dict:
    return {"exit": rc, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


# ---------------------------------------------------------------------------
# Independent arithmetic


def _op(name: str, x: Fraction, y: Fraction) -> Fraction | None:
    if name == "add":
        return x + y
    if name == "sub":
        return x - y
    if name == "mul":
        return x * y
    return None if y == 0 else x / y


_SITES = ("inner of lhs", "outer of lhs", "first outer of rhs",
          "second outer of rhs", "inner of rhs")


@dataclass(frozen=True)
class Evaluation:
    verdict: str
    lhs: Fraction | None
    rhs: Fraction | None
    site: str | None


def evaluate(outer: str, inner: str, r1: Fraction, r2: Fraction, r3: Fraction) -> Evaluation:
    """r1 outer (r2 inner r3) against (r1 outer r2) inner (r1 outer r3)."""
    site = None
    values = []
    steps = ((inner, lambda v: (r2, r3)), (outer, lambda v: (r1, v[0])),
             (outer, lambda v: (r1, r2)), (outer, lambda v: (r1, r3)),
             (inner, lambda v: (v[2], v[3])))
    for name, (op, args) in zip(_SITES, steps):
        x, y = args(values)
        out = None if x is None or y is None else _op(op, x, y)
        if out is None and x is not None and y is not None and site is None:
            site = name
        values.append(out)
    lhs, rhs = values[1], values[4]
    if site is not None:
        return Evaluation("UNDEFINED", lhs, rhs, site)
    return Evaluation("HOLDS" if lhs == rhs else "FAILS", lhs, rhs, None)


def holds(label: str, t: tuple[Fraction, Fraction, Fraction]) -> bool:
    return evaluate(*PAIRS[label], *t).verdict == "HOLDS"


def fmt_q(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_q(text: str | None) -> Fraction | None:
    if text is None or text == "":
        return None
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


# ---------------------------------------------------------------------------
# Reading an answer back in any of the three formats


def _csv_rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _plain_lines(out: str) -> list[str]:
    return out.rstrip("\n").split("\n")


_VERDICT_RE = re.compile(r"^(HOLDS|FAILS)  lhs=(\S+)  rhs=(\S+)$|^UNDEFINED  site: (.+)$")


def _plain_verdict(line: str) -> dict:
    m = _VERDICT_RE.match(line)
    if m is None:
        raise ValueError(f"unreadable verdict line {line!r}")
    if m.group(4) is not None:
        return {"verdict": "UNDEFINED", "undefined_site": m.group(4)}
    return {"verdict": m.group(1), "lhs": m.group(2), "rhs": m.group(3)}


def _triple_from(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_q(p) for p in text.split(","))


def read_verdicts(fmt: str, out: str) -> list[dict]:
    """Rows of (label?, verdict, lhs?, rhs?, undefined_site?) for check/classify."""
    if fmt == "json":
        doc = json.loads(out)
        items = doc["results"] if "results" in doc else [doc]
        return [{"label": d.get("case", {}).get("label"), "verdict": d["verdict"],
                 "lhs": d["lhs"], "rhs": d["rhs"], "undefined_site": d["undefined_site"]}
                for d in items]
    if fmt == "csv":
        return [{"label": r["case"], "verdict": r["verdict"], "lhs": r["lhs"] or None,
                 "rhs": r["rhs"] or None, "undefined_site": r["undefined_site"] or None}
                for r in _csv_rows(out)]
    lines = _plain_lines(out)
    if len(lines) == 2 and not lines[0].startswith("triple"):
        return [_plain_verdict(lines[1])]
    rows = []
    for line in lines[1:]:
        label, _, rest = line.strip().partition(" ")
        rows.append({"label": label, **_plain_verdict(rest.partition(": ")[2])})
    return rows


def read_triples(fmt: str, out: str) -> list[tuple[Fraction, ...] | None]:
    """The triple(s) of a generate/family5/construct12 answer; None for NONE."""
    if fmt == "json":
        doc = json.loads(out)
        docs = [r["triple"] for r in doc["results"]] if "results" in doc else [doc["triple"]]
        return [None if d is None else tuple(parse_q(d[k]) for k in ("r1", "r2", "r3"))
                for d in docs]
    if fmt == "csv":
        return [None if not r["r1"] else tuple(parse_q(r[k]) for k in ("r1", "r2", "r3"))
                for r in _csv_rows(out)]
    triples = []
    for line in _plain_lines(out):
        if line == "NONE":
            triples.append(None)
        else:
            triples.append(_triple_from(line.rpartition(" ")[2]))
    return triples


# ---------------------------------------------------------------------------
# Query generation


@dataclass
class Query:
    kind: str
    argv: list[str]
    triples: int  # triples the query decides or builds, for triples_per_s
    judge: Callable[[str, int, str], bool]  # (format, exit code, stdout) -> correct


def _small_q(rng: random.Random, zero_weight: float = 0.2) -> Fraction:
    if rng.random() < zero_weight:
        return Fraction(rng.choice((0, 1, -1)))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _big_q(rng: random.Random) -> Fraction:
    num = rng.randrange(10**39, 10**40) * rng.choice((1, -1))
    return Fraction(num, rng.randrange(10**39, 10**40))


def _big_int(rng: random.Random) -> int:
    return rng.randrange(10**39, 10**40) * rng.choice((1, -1))


class QueryMaker:
    """Seeded stream of point queries; about one in ten uses ~40-digit components."""

    KINDS = (("check", 15), ("classify", 10), ("member", 15), ("solve", 15),
             ("generate", 20), ("diophantine", 8), ("construct12", 9), ("family5", 8))

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.count = 0
        names, weights = zip(*self.KINDS)
        self._names, self._weights = names, weights

    def next(self) -> Query:
        rng = self.rng
        kind = rng.choices(self._names, self._weights)[0]
        big = rng.random() < 0.1
        fmt = FORMATS[self.count % 3]
        self.count += 1
        query = getattr(self, "_" + kind)(rng, big)
        query.argv += ["--format", fmt]
        return query

    def _q(self, rng, big) -> Fraction:
        return _big_q(rng) if big and rng.random() < 0.7 else _small_q(rng)

    def _triple(self, rng, big) -> tuple[Fraction, Fraction, Fraction]:
        t = [self._q(rng, big) for _ in range(3)]
        if rng.random() < 0.3:
            t[0] = Fraction(rng.choice((0, 1)))
        return tuple(t)

    # -- one method per kind -------------------------------------------------

    def _check(self, rng, big) -> Query:
        label = rng.choice(LABELS)
        outer, inner = PAIRS[label]
        t = self._triple(rng, big)
        expected = evaluate(outer, inner, *t)

        def judge(fmt, rc, out):
            (row,) = read_verdicts(fmt, out)
            return rc == (0 if expected.verdict == "HOLDS" else 1) and _same_verdict(row, expected)

        return Query("check", ["check", "--outer", outer, "--inner", inner,
                               "--triple=" + ",".join(map(fmt_q, t))], 1, judge)

    def _classify(self, rng, big) -> Query:
        t = self._triple(rng, big)
        expected = {label: evaluate(*PAIRS[label], *t) for label in LABELS}

        def judge(fmt, rc, out):
            rows = read_verdicts(fmt, out)
            return (rc == 0 and [r["label"] for r in rows] == list(LABELS)
                    and all(_same_verdict(r, expected[r["label"]]) for r in rows))

        return Query("classify", ["classify", "--triple=" + ",".join(map(fmt_q, t))],
                     len(LABELS), judge)

    def _member(self, rng, big) -> Query:
        label = rng.choice(LABELS)
        t = self._triple(rng, big)
        expected = holds(label, t)

        def judge(fmt, rc, out):
            if fmt == "json":
                answer = json.loads(out)["member"]
            elif fmt == "csv":
                answer = {"true": True, "false": False}[_csv_rows(out)[0]["member"]]
            else:
                answer = {"member true": True, "member false": False}[_plain_lines(out)[1]]
            return rc == (0 if expected else 1) and answer is expected

        return Query("member", ["member", "--case", label,
                                "--triple=" + ",".join(map(fmt_q, t))], 1, judge)

    def _solve(self, rng, big) -> Query:
        label = rng.choice(HARD_CASES)
        r1, r3 = self._q(rng, big), self._q(rng, big)
        shape = rng.random()
        if shape < 0.15:  # the r2 coefficient vanishes: ALL or NONE
            r1 = Fraction(0) if label == "13" else 2 * r3
        elif shape < 0.25:  # a documented precondition is broken
            r3 = Fraction(0)
        invalid = label in ("13", "14") and (
            r3 == 0 or (label == "13" and r1 == -r3) or (label == "14" and r1 == r3))

        def judge(fmt, rc, out):
            if invalid:
                return rc == 3 and out == ""
            if fmt == "json":
                doc = json.loads(out)
                result, r2 = doc["result"], doc["r2"]
            elif fmt == "csv":
                row = _csv_rows(out)[0]
                result, r2 = row["result"], row["r2"] or None
            else:
                line = _plain_lines(out)[0]
                result, r2 = ("unique", line[5:]) if line.startswith("r2 = ") else (line, None)
            if rc != 0:
                return False
            if result == "unique":
                return holds(label, (r1, parse_q(r2), r3))
            samples = (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3))
            verdicts = [holds(label, (r1, s, r3)) for s in samples]
            return r2 is None and verdicts == [result == "ALL"] * len(samples)

        return Query("solve", ["solve", "--case", label, "--r1=" + fmt_q(r1),
                               "--r3=" + fmt_q(r3)], 1, judge)

    def _generate(self, rng, big) -> Query:
        label = rng.choice(LABELS)
        family, params, valid = _family_params(rng, label, lambda: self._q(rng, big))
        text = ",".join(f"{k}={fmt_q(v) if isinstance(v, Fraction) else v}"
                        for k, v in params.items())

        def judge(fmt, rc, out):
            if not valid:
                return rc == 3 and out == ""
            (t,) = read_triples(fmt, out)
            if rc != 0 or t is None:
                return False
            # Components named by a parameter must come back unchanged.
            named = all(t[i] == params[k] for i, k in enumerate(("r1", "r2", "r3"))
                        if k in params)
            return named and holds(label, t)

        argv = ["generate", "--case", label, "--family", str(family)]
        if text:
            argv.append("--params=" + text)
        return Query("generate", argv, 1, judge)

    def _diophantine(self, rng, big) -> Query:
        pick = _big_int if big else (lambda r: r.randint(-40, 40))
        p, q, t = pick(rng), pick(rng), pick(rng)
        if p == 0 and q == 0:
            p = 1

        def judge(fmt, rc, out):
            if fmt == "json":
                doc = json.loads(out)
                empty = doc["empty"]
                base, step = doc["base"], doc["step"]
            elif fmt == "csv":
                row = _csv_rows(out)[0]
                empty = row["empty"] == "true"
                base = None if empty else (int(row["x0"]), int(row["y0"]))
                step = None if empty else (int(row["dx"]), int(row["dy"]))
            else:
                line = _plain_lines(out)[0]
                empty = line == "empty"
                nums = [int(n) for n in re.findall(r"-?\d+", line)]
                base, step = (None, None) if empty else (nums[:2], nums[2:])
            g = gcd(p, q)
            if rc != 0 or empty != (t % g != 0):
                return False
            if empty:
                return True
            (x0, y0), (dx, dy) = base, step
            lead, span = (x0, dx) if dx != 0 else (y0, dy)
            return (p * x0 + q * y0 == t and (dx, dy) == (q // g, -(p // g))
                    and 1 <= lead <= abs(span))

        return Query("diophantine", ["diophantine", f"--p={p}", f"--q={q}", f"--t={t}"],
                     1, judge)

    def _construct12(self, rng, big) -> Query:
        n1 = (_big_int(rng) if big else rng.randint(-25, 25)) | 1
        n2 = _big_int(rng) if big else rng.choice([n for n in range(-25, 26) if n])
        while gcd(n1, n2) != 1:
            n2 += 1
        invalid = rng.random() < 0.05
        if invalid:
            n1 = 2 * n1  # N1 must be odd
        listing = rng.random() < 0.4
        count = rng.randint(1, 30) if listing else 1
        delta = rng.randint(1, 50)

        def judge(fmt, rc, out):
            if invalid:
                return rc == 3 and out == ""
            triples = read_triples(fmt, out) if out.strip() else []
            if rc != 0 or len(triples) != count:
                return False
            if not listing and triples[0] is None:
                return _no_case12_triple(n1, n2, delta)
            return all(t is not None and holds("12", t) and _case12_shape(n1, n2, t)
                       for t in triples)

        argv = ["construct12", f"--n1={n1}", f"--n2={n2}"]
        argv += [f"--list={count}"] if listing else [f"--delta={delta}"]
        return Query("construct12", argv, count, judge)

    def _family5(self, rng, big) -> Query:
        pick = _big_int if big else (lambda r: r.choice([n for n in range(-30, 31) if n]))
        a = pick(rng)
        e = pick(rng)
        while e in (0, 1 - a, -a):
            e += 1
        f = 1
        # f > 1 is always rejected: e/f would be a rational, non-integer root
        # of the monic integer polynomial x^2 + (a-1)x + c.
        if rng.random() < 0.1:
            f = rng.choice((2, 3, 5))
        k = abs(2 * e + a - 1)
        sign = "+" if 2 * e + a - 1 >= 0 else "-"

        def judge(fmt, rc, out):
            if f != 1:
                return rc == 3 and out == ""
            (t,) = read_triples(fmt, out)
            return rc == 0 and t == (Fraction(a), Fraction(-e * (e + a - 1)), Fraction(e)) \
                and holds("13", t)

        return Query("family5", ["family5", f"--a={a}", f"--f={f}", f"--k={k}",
                                 f"--sign={sign}"], 1, judge)


def _same_verdict(row: dict, expected: Evaluation) -> bool:
    if row["verdict"] != expected.verdict:
        return False
    if row.get("undefined_site") != expected.site:
        return False
    for side in ("lhs", "rhs"):
        if side in row and parse_q(row[side]) != getattr(expected, side):
            return False
    return True


def _case12_shape(n1: int, n2: int, t) -> bool:
    """t = (delta*N1, delta*N2, N1*N3) with delta*(N1-N2) + N3*(2*N2-N1) = 1, N3 != 0."""
    r1, r2, r3 = t
    if r1.denominator != 1 or r3.denominator != 1 or r1.numerator % n1 or r3.numerator % n1:
        return False
    delta, n3 = r1.numerator // n1, r3.numerator // n1
    return (delta >= 1 and r2 == delta * n2 and n3 != 0
            and delta * (n1 - n2) + n3 * (2 * n2 - n1) == 1)


def _no_case12_triple(n1: int, n2: int, delta: int) -> bool:
    rest = 1 - delta * (n1 - n2)
    return rest % (2 * n2 - n1) != 0 or rest == 0


def _coprime_pair(rng: random.Random) -> tuple[int, int]:
    while True:
        e, f = rng.randint(-12, 12), rng.randint(1, 12)
        if e and gcd(e, f) == 1 and 2 * e != f and e != f:
            return e, f


def _family_params(rng: random.Random, label: str, q) -> tuple[int, dict, bool]:
    """(family index, params, whether the package must accept them).

    Valid parameters are drawn from each family's documented constraints;
    about one draw in eight breaks a constraint on purpose.
    """
    breaking = rng.random() < 0.125
    nonzero = lambda: next(v for v in iter(q, None) if v != 0)  # noqa: E731
    if label in ("1", "2", "5", "6"):
        return 1, {"r2": q(), "r3": q()}, True
    if label == "3":
        if rng.random() < 0.5:
            r = [q(), q(), q()]
            r[rng.randrange(3)] = Fraction(0) if not breaking else nonzero()
            valid = r[0] * r[1] * r[2] == 0
            return 1, {"r1": r[0], "r2": r[1], "r3": r[2]}, valid
        return 2, {"r2": q(), "r3": q()}, True
    if label == "4":
        r3 = Fraction(0) if breaking else nonzero()
        if rng.random() < 0.5:
            return 1, {"r1": nonzero(), "r3": r3}, not breaking
        return 2, {"r2": q(), "r3": r3}, not breaking
    if label in ("7", "8", "9", "10"):
        family = 2 if label == "8" and rng.random() < 0.5 else 1
        r2, r3 = nonzero(), Fraction(0) if breaking else nonzero()
        valid = (r3 != 0 and (label != "9" or r2 + r3 != 0)
                 and (label != "10" or r2 != r3))
        return family, {"r2": r2, "r3": r3}, valid
    if label == "11":
        return rng.choice((1, 2)), {"r2": q(), "r3": q()}, True
    if label == "12":
        family = rng.randint(1, 4)
        if family == 1:
            key = rng.choice(("r2", "r3"))
            params = {"r2": q(), "r3": q()} if breaking else {key: q()}
            return 1, params, not breaking
        if family in (2, 3):
            key = "r3" if family == 2 else "r2"
            value = Fraction(-1) if breaking else q()
            return family, {key: value}, value != -1
        delta = rng.randint(-3, 1) if breaking else rng.randint(2, 10**6)
        return 4, {"delta": delta}, delta >= 2
    if label == "13":
        family = rng.randint(1, 5)
        if family == 1:
            r3 = Fraction(0) if breaking else nonzero()
            return 1, {"r2": q(), "r3": r3}, not breaking
        if family == 2:
            r3 = Fraction(rng.choice((0, 1))) if breaking else q()
            return 2, {"r3": r3}, r3 not in (0, 1)
        if family == 3:
            a = rng.choice((0, -1)) if breaking else rng.randint(1, 10**6) * rng.choice((1, -1))
            if a == -1 and not breaking:
                a = 2
            return 3, {"a": a}, a not in (0, -1)
        if family == 4:
            c, d = rng.randint(-50, 50), rng.randint(1, 50)
            if breaking:
                c = 0
            elif c in (0, -d):
                c = d
            return 4, {"c": c, "d": d}, c != 0 and c != -d
        a = rng.choice([n for n in range(-20, 21) if n])
        e = rng.choice([n for n in range(-20, 21) if n and n not in (1 - a, -a)])
        k, sign = abs(2 * e + a - 1), "+" if 2 * e + a - 1 >= 0 else "-"
        return 5, {"a": a, "f": 2 if breaking else 1, "k": k, "sign": sign}, not breaking
    if label == "14":
        family = rng.randint(1, 3)
        if family == 3:
            e, f = _coprime_pair(rng)
            if breaking:
                e = 0
            return 3, {"e": e, "f": f}, not breaking
        r3 = Fraction(0) if breaking else nonzero()
        if family == 2 and r3 == -1:
            r3 = Fraction(2)
        return family, {"r3": r3}, not breaking
    return 1, {"r1": q(), "r2": q(), "r3": q()}, True  # L1, L2
