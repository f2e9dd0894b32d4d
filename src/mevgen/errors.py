"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError so callers can
distinguish bad numeric inputs from structural problems and infeasible
synthesis targets.
"""

from __future__ import annotations


class MevError(Exception):
    """Base error for this package."""


class DomainError(MevError, ValueError):
    """A numeric argument is outside its admissible domain."""


class ShapeError(MevError, ValueError):
    """An array argument has the wrong shape or an inconsistent dimension."""


class SpecValidationError(MevError, ValueError):
    """A model spec or target matrix violates its invariants.

    Carries the full list of violations in ``violations``.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class InfeasibleTargetError(MevError, ValueError):
    """The requested scale constant is below the minimum feasible value."""

    def __init__(self, c_requested: float, c_min: float):
        self.c_requested = c_requested
        self.c_min = c_min
        super().__init__(
            f"scale constant {c_requested!r} is infeasible; minimum is {c_min!r}"
        )


class ProvenanceError(MevError, RuntimeError):
    """A sample batch does not originate from the spec it is compared against."""


class FormatError(MevError, ValueError):
    """An input file cannot be read; the message names the file."""


class CsvFormatError(FormatError):
    """A sample CSV file is malformed; the message names the offending row."""
