"""Shared exception types, mapped to CLI exit codes by the front end."""

from __future__ import annotations


class HermsigError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HermsigError):
    """Bad input text; carries 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class ValidationError(HermsigError):
    """An algebra presentation or a form failed an exact axiom check."""


class AdmissibilityError(ValidationError):
    """An ordering point does not exist in the real spectrum of the base ring."""


class InconsistencyError(HermsigError):
    """An internal exact invariant failed; indicates a bug, never a data issue."""


class BudgetError(HermsigError):
    """A bounded search ran out of budget; the message names what is uncovered."""
