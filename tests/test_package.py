"""The package's public names: each module states its own, and the package
re-exports them all."""

import pytest

import distribq
from distribq import catalog, identity, number_theory, oracle

_PUBLIC = [
    "ALL_CASES", "BinOp", "CaseId", "CheckResult", "DiophantineSolutionSet", "DomainError",
    "FamilyId", "FamilySpec", "SearchBounds", "SolveOutcome", "Triple", "Verdict",
    "VerificationReport", "case12_construct", "case12_enumerate", "case13_family5",
    "case_from_label", "check", "enumerate_rationals", "families_for", "family_spec",
    "family_union_member", "generate", "member", "search_solutions",
    "solve_linear_diophantine", "solve_r2", "verify_characterization",
]


def test_the_package_exports_the_same_28_names():
    assert sorted(distribq.__all__) == _PUBLIC


@pytest.mark.parametrize("module", [identity, catalog, number_theory, oracle],
                         ids=lambda module: module.__name__)
def test_each_exported_name_is_its_module_s_own_object(module):
    for name in module.__all__:
        assert getattr(distribq, name) is getattr(module, name), name
