"""Exception hierarchy shared across the package."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SourceSpan:
    """Location of a construct in a surface file (1-based line/column)."""

    path: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class SitcalcError(Exception):
    """Base class for all errors raised by this package."""


class SortError(SitcalcError):
    """An object term appeared where an action term was required, or vice versa."""


class NonGroundOccurrence(SitcalcError):
    """A predicate scheduled for symbol forgetting occurs with variable arguments."""


class MalformedTransform(SitcalcError):
    """A transformed effect disjunct lacks an equality for some head variable."""


class MissingAxiom(SitcalcError):
    """An operation needed a declaration or axiom the theory does not contain."""


class BudgetExceeded(SitcalcError):
    """A model-enumeration or search budget ran out before a verdict was reached."""


class ParseError(SitcalcError):
    """Surface-syntax error with a source location."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.message = message
        self.span = span
        super().__init__(f"{span}: {message}" if span else message)
