"""Torsion pairs, cotilting modules and the simple objects of HRS-tilt hearts,
computed exactly over bound quiver algebras on prime fields.

Everything is finite and exact: modules are quiver representations with
matrices over F_p, all closure properties are certified by brute-force
enumeration, and every fast criterion ships with a literal-definition oracle.
"""

from .exceptions import (
    AdmissibilityError,
    IncompleteUniverseError,
    NotCotiltingError,
    QuiverParseError,
    ResourceLimitError,
)

__all__ = [
    "AdmissibilityError",
    "IncompleteUniverseError",
    "NotCotiltingError",
    "QuiverParseError",
    "ResourceLimitError",
]

__version__ = "0.1.0"
