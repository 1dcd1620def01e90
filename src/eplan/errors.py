"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class EplanError(Exception):
    """Base class for all errors raised by this package."""


class VocabularyError(EplanError):
    """Unknown or duplicate atom/agent/object name."""


class VocabularyMismatchError(EplanError):
    """Two values built over different atom/agent tables were combined."""


class ConsistencyError(EplanError):
    """A literal conjunction mentions the same atom positively and negatively."""


class ModelError(EplanError):
    """Structurally invalid model, state, action, or task."""


class NotApplicableError(EplanError):
    """An action was applied in a state where it is not applicable.

    ``witness`` is the index of a designated world with no applicable
    designated event, for diagnosability.
    """

    def __init__(self, message: str, witness: int | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Diagnostic:
    """A parse/resolution problem located in a source document."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class TaskParseError(EplanError):
    """Raised when a task document cannot be fully resolved."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(str(d) for d in self.diagnostics[:5])
        if len(self.diagnostics) > 5:
            summary += f"; ... ({len(self.diagnostics)} problems)"
        super().__init__(summary)
