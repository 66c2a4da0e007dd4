"""Exact-arithmetic toolkit for generalized distributive identities over the rationals.

For each ordered pair of the four basic operations, the library decides
which triples (r1, r2, r3) satisfy

    r1 outer (r2 inner r3) == (r1 outer r2) inner (r1 outer r3),

generates the known parametric solution families, solves the polynomial
cases for the middle component in closed form, and exhaustively verifies
every characterization on bounded grids of canonical fractions.
"""

from .catalog import *
from .identity import *
from .number_theory import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*identity.__all__, *catalog.__all__, *number_theory.__all__, *oracle.__all__]
