"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic; tolerances are equality. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import pytest

from distribq.catalog import SolveOutcome, member, solve_r2
from distribq.cli import main
from distribq.identity import Triple, Verdict, case_from_label, check
from distribq.number_theory import (
    case12_construct,
    case13_family5,
    solve_linear_diophantine,
)
from distribq.oracle import (
    SearchBounds,
    enumerate_rationals,
    search_solutions,
    verify_characterization,
)
from distribq import DomainError

T = Triple.of
FULL_GRID = SearchBounds(6, 3)


def _passed(line: str) -> None:
    print(f"PASS  {line}")


def test_criterion_01_base_laws_hold_on_the_full_grid():
    values = enumerate_rationals(FULL_GRID)
    start = time.perf_counter()
    for label in ("L1", "L2"):
        case = case_from_label(label)
        for r1 in values:
            for r2 in values:
                for r3 in values:
                    result = check(case, Triple(r1, r2, r3))
                    assert result.verdict is Verdict.HOLDS
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(
        "criterion 1: L1 and L2 hold for all "
        f"{len(values) ** 3} triples on the (6,3) grid ({elapsed:.2f}s single-threaded)"
    )


def test_criterion_02_easy_case_characterizations_are_exact():
    for number in range(1, 12):
        report = verify_characterization(case_from_label(number), FULL_GRID)
        assert report.missing_count == 0, number
        assert report.spurious_count == 0, number
    _passed("criterion 2: cases 1..11 have missing = spurious = 0 on the (6,3) grid")


def test_criterion_03_division_cases_force_r1_zero():
    for number in (9, 10):
        solutions = search_solutions(case_from_label(number), FULL_GRID)
        assert solutions, number
        assert all(t.r1 == 0 for t in solutions), number
    _passed("criterion 3: every case-9/10 solution on the grid has r1 = 0")


def test_criterion_04_case12_family4_holds_for_all_deltas():
    case = case_from_label(12)
    for delta in range(2, 201):
        t = T(3 * delta, 2 * delta, 3 * (1 - delta))
        assert check(case, t).verdict is Verdict.HOLDS, delta
    worked = check(case, T(6, 4, -3))
    assert worked.verdict is Verdict.HOLDS
    assert worked.lhs == worked.rhs == 18
    _passed("criterion 4: (3d, 2d, 3(1-d)) holds for d = 2..200; d=2 gives 18 = 18")


def test_criterion_05_diophantine_walk_regenerates_family4():
    sols = solve_linear_diophantine(1, 1, 1)
    assert sols.base == (1, 0) and sols.step == (1, -1)
    for k in range(100):
        delta, n3_factor = sols.at(k)
        assert delta == k + 1 and n3_factor == 1 - delta
        t = case12_construct(3, 2, delta, allow_degenerate=True)
        assert t == T(3 * delta, 2 * delta, 3 * (1 - delta))
        a, b, c = (int(q) for q in t)
        assert a * a - a * c - a * b + 2 * b * c - a == 0
    _passed(
        "criterion 5: base (1,0), step (1,-1); deltas 1..100 regenerate the family "
        "and satisfy the integer equation exactly"
    )


def test_criterion_06_family5_instances_and_rejection():
    case = case_from_label(13)
    expected = {
        (3, 1, 0, 1): T(3, 1, -1),
        (4, 1, 1, 1): T(4, 2, -1),
        (4, 1, 1, -1): T(4, 2, -2),
    }
    for params, t in expected.items():
        assert case13_family5(*params) == t
        assert check(case, t).verdict is Verdict.HOLDS
    with pytest.raises(DomainError, match="c must be nonzero"):
        case13_family5(2, 1, 1, 1)
    _passed(
        "criterion 6: (3,1,-1), (4,2,-1), (4,2,-2) all hold; (a=2,f=1,K=1) "
        "rejected for c = 0"
    )


def test_criterion_07_case14_family3_sign_correction():
    from distribq.catalog import FamilyId, generate

    case = case_from_label(14)
    family = FamilyId(case, 3)

    printed = generate(family, dict(e=1, f=3, printed_form=True))
    assert printed == T(1, "1/3", "1/3")
    printed_result = check(case, printed)
    assert printed_result.verdict is Verdict.FAILS
    assert (printed_result.lhs, printed_result.rhs) == (0, 1)

    corrected = generate(family, dict(e=1, f=3))
    assert corrected == T(1, "-1/3", "1/3")
    assert check(case, corrected).verdict is Verdict.HOLDS

    from math import gcd

    tested = 0
    for e in range(-10, 11):
        for f in range(1, 11):
            if e == 0 or gcd(abs(e), f) != 1 or 2 * e == f or e == f:
                continue
            t = generate(family, dict(e=e, f=f))
            assert check(case, t).verdict is Verdict.HOLDS, (e, f)
            tested += 1
    assert tested > 100
    _passed(
        "criterion 7: printed sign variant fails (lhs 0, rhs 1); corrected "
        f"denominator f*(2e-f) holds for all {tested} coprime (e, f) in range"
    )


def test_criterion_08_coverage_gaps_contain_the_witness_triple():
    witness = T(2, 5, 1)
    for number in (12, 14):
        report = verify_characterization(
            case_from_label(number), SearchBounds(6, 1), list_limit=None
        )
        assert report.missing_count == 0 and report.spurious_count == 0
        assert witness in report.coverage_gap, number
    _passed("criterion 8: (2, 5, 1) is a holding triple outside the listed "
            "families for cases 12 and 14")


def test_criterion_09_solve_r2_matches_brute_force_scanning():
    # Agreement protocol: ALL means every scanned r2 holds (>= 20 distinct);
    # NONE means no scanned r2 holds; a unique value v means the scanned
    # holders are exactly {v} intersected with the scan grid, and v itself
    # re-checks as HOLDS directly (v may fall outside the scan bounds).
    param_grid = enumerate_rationals(SearchBounds(4, 2))
    scan_grid = enumerate_rationals(SearchBounds(8, 4))
    scan_set = set(scan_grid)
    pairs_checked = 0
    for label in ("12", "13", "14"):
        case = case_from_label(label)
        for r1 in param_grid:
            for r3 in param_grid:
                try:
                    outcome = solve_r2(label, r1, r3)
                except DomainError:
                    continue
                pairs_checked += 1
                holders = [
                    r2
                    for r2 in scan_grid
                    if check(case, Triple(r1, r2, r3)).verdict is Verdict.HOLDS
                ]
                if outcome is SolveOutcome.ALL:
                    assert len(holders) >= 20
                    assert holders == scan_grid
                elif outcome is SolveOutcome.NONE:
                    assert holders == []
                else:
                    assert check(case, Triple(r1, outcome, r3)).verdict is Verdict.HOLDS
                    assert member(case, Triple(r1, outcome, r3))
                    expected = [outcome] if outcome in scan_set else []
                    assert holders == expected
    assert pairs_checked > 400
    _passed(
        f"criterion 9: solve verdicts agree with brute force on {pairs_checked} "
        "(r1, r3) pairs across cases 12, 13, 14"
    )


def test_criterion_10_search_output_is_deterministic_across_jobs(capsys):
    outputs = []
    for jobs in ("1", "8"):
        code = main(["search", "--case", "12", "--num-bound", "5",
                     "--den-bound", "2", "--jobs", jobs])
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        _passed("criterion 10: search output is byte-identical with --jobs 1 and --jobs 8")
