"""`generate` outcomes pinned on a fixed parameter domain, for every family.

Every family is run on every parameter record the domain below allows: each
parameter ranges over the values of its kind, and each subset of a family's
optional keys is tried. The outcome of a record is its triple, or
`DomainError`. `generate_outcomes.json` holds, per family, the number of
accepted and rejected records and a sha256 of the outcome lines, so any
change in which records are accepted or in the triples they give shows up.
Re-record only for an intended change, with

    PYTHONPATH=src python tests/test_generate_outcomes.py
"""

import hashlib
import json
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from distribq import DomainError
from distribq.catalog import FamilyId, families_for, generate
from distribq.identity import ALL_CASES, Triple, case_from_label

RECORDED = Path(__file__).with_name("generate_outcomes.json")

DOMAIN = {
    "rational": sorted({Fraction(n, k) for n in range(-3, 4) for k in range(1, 4)}),
    "int": [*range(-4, 6), Fraction(5, 2), True],
    "sign": [1, -1, 2],
    "bool": [False, True],
}


def _records(spec):
    for size in range(len(spec.optional) + 1):
        for chosen in combinations(sorted(spec.optional), size):
            names = [n for n in spec.params if n not in spec.optional or n in chosen]
            for values in product(*(DOMAIN[spec.params[n]] for n in names)):
                yield dict(zip(names, values))


def _outcomes(case, spec) -> dict:
    lines = []
    accepted = 0
    for params in _records(spec):
        try:
            t = generate(FamilyId(case, spec.index), params)
            outcome = ",".join(map(str, t))
            accepted += 1
        except DomainError:
            outcome = "DomainError"
        record = ",".join(f"{k}={v}" for k, v in params.items())
        lines.append(f"{record} -> {outcome}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    return {"accepted": accepted, "rejected": len(lines) - accepted, "sha256": digest}


def _families():
    return [(case, spec) for case in ALL_CASES for spec in families_for(case)]


def _key(case, spec) -> str:
    return f"{case.label}.{spec.index}"


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def test_recording_covers_every_family(recorded):
    assert sorted(recorded) == sorted(_key(case, spec) for case, spec in _families())


@pytest.mark.parametrize("case,spec", _families(),
                         ids=[_key(case, spec) for case, spec in _families()])
def test_generate_outcomes_match_the_recording(recorded, case, spec):
    assert _outcomes(case, spec) == recorded[_key(case, spec)]


def test_none_counts_as_an_absent_optional_key():
    family = FamilyId(case_from_label(12), 1)
    assert generate(family, {"r2": None, "r3": 2}) == Triple.of(0, 0, 2)


if __name__ == "__main__":
    table = {_key(case, spec): _outcomes(case, spec) for case, spec in _families()}
    RECORDED.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
