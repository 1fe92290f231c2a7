"""Exception hierarchy shared by all workbench modules."""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class DomainMismatch(WorkbenchError):
    """A tuple is not defined on exactly the attribute set of its relation."""


class Incompatible(WorkbenchError):
    """A query or dependency references relations or attributes outside the schema."""


class PartialValuation(WorkbenchError):
    """A valuation does not cover every null of the table it is applied to."""


class UnsupportedPrecondition(WorkbenchError):
    """Schema-level analysis only supports structure-constraint preconditions."""


class UnsupportedClass(WorkbenchError):
    """The procedure falls outside the safe-scope / alter-schema classes."""


class NotSafeScope(WorkbenchError):
    """Operation requires a safe-scope procedure."""


class NotAlterSchema(WorkbenchError):
    """Operation requires an alter-schema procedure."""


class NotSafeSequence(WorkbenchError):
    """Operation requires a safe sequence of procedures."""


class MalformedParams(WorkbenchError):
    """Template parameters do not fit the requested template kind."""


class BudgetExceeded(WorkbenchError):
    """An enumeration outgrew its configured budget."""


class Meter:
    """Work charged against a hard cap, and the place (`at`) now charging.

    `what` names the search and `unit` what it counts, for the message
    `BudgetExceeded` carries when a charge does not fit.
    """

    def __init__(self, cap: int, what: str, unit: str):
        self.cap = cap
        self.what = what
        self.unit = unit
        self.used = 0
        self.at = ""

    def tick(self, n: int = 1) -> None:
        if self.used + n > self.cap:
            where = f" at {self.at}" if self.at else ""
            raise BudgetExceeded(
                f"{self.what} exceeds the hard cap of {self.cap}{where}: "
                f"{self.used} {self.unit} charged so far, and the next charge of {n} does not fit"
            )
        self.used += n


class WorkspaceSyntaxError(WorkbenchError):
    """Parse failure with source position information."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class ResolutionError(WorkbenchError):
    """A workspace construct references a name that is not declared."""


class SchemaConformance(WorkbenchError):
    """An instance tuple does not conform to its declared relation."""
