"""Exact-arithmetic toolkit for generalized distributive identities over the rationals.

For each ordered pair of the four basic operations, the library decides
which triples (r1, r2, r3) satisfy

    r1 outer (r2 inner r3) == (r1 outer r2) inner (r1 outer r3),

generates the known parametric solution families, solves the polynomial
cases for the middle component in closed form, and exhaustively verifies
every characterization on bounded grids of canonical fractions.

`_EXPORTS` is the one list of the public names, by module: each module
sets its `__all__` from its own row, and the package re-exports them all
without importing a module itself. A name is looked up in its module on
first access (PEP 562), which imports that module alone, and is then kept
here. So `import distribq` and a command that needs only `identity` never
compile `catalog`, `number_theory` or `oracle`, while `from distribq import *`
binds all 28 names.
"""

import importlib

__version__ = "0.1.0"

# The public names, the only list of them: each module's row is its `__all__`,
# in the order the package lists them.
_EXPORTS = {
    "identity": ("ALL_CASES", "BinOp", "CaseId", "CheckResult", "DomainError", "Triple",
                 "Verdict", "case_from_label", "check"),
    "catalog": ("FamilyId", "FamilySpec", "SolveOutcome", "families_for", "family_spec",
                "family_union_member", "generate", "member", "solve_r2"),
    "number_theory": ("DiophantineSolutionSet", "case12_construct", "case12_enumerate",
                      "case13_family5", "solve_linear_diophantine"),
    "oracle": ("SearchBounds", "VerificationReport", "enumerate_rationals",
               "search_solutions", "verify_characterization"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """An exported name, or a module, imported on first access and kept."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
