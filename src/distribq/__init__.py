"""Exact-arithmetic toolkit for generalized distributive identities over the rationals.

For each ordered pair of the four basic operations, the library decides
which triples (r1, r2, r3) satisfy

    r1 outer (r2 inner r3) == (r1 outer r2) inner (r1 outer r3),

generates the known parametric solution families, solves the polynomial
cases for the middle component in closed form, and exhaustively verifies
every characterization on bounded grids of canonical fractions.
"""

from .catalog import (
    FamilyId,
    FamilySpec,
    SolveOutcome,
    families_for,
    family_spec,
    family_union_member,
    generate,
    member,
    solve_r2,
)
from .identity import (
    ALL_CASES,
    BinOp,
    CaseId,
    CheckResult,
    DomainError,
    Triple,
    Verdict,
    case_from_label,
    check,
)
from .number_theory import (
    DiophantineSolutionSet,
    case12_construct,
    case12_enumerate,
    case13_family5,
    solve_linear_diophantine,
)
from .oracle import (
    SearchBounds,
    VerificationReport,
    enumerate_rationals,
    search_solutions,
    verify_characterization,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CASES",
    "BinOp",
    "CaseId",
    "CheckResult",
    "DiophantineSolutionSet",
    "DomainError",
    "FamilyId",
    "FamilySpec",
    "SearchBounds",
    "SolveOutcome",
    "Triple",
    "Verdict",
    "VerificationReport",
    "case12_construct",
    "case12_enumerate",
    "case13_family5",
    "case_from_label",
    "check",
    "enumerate_rationals",
    "families_for",
    "family_spec",
    "family_union_member",
    "generate",
    "member",
    "search_solutions",
    "solve_linear_diophantine",
    "solve_r2",
    "verify_characterization",
]
