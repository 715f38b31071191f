"""Exception types shared across the package."""

from __future__ import annotations


class SopflowError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SopflowError):
    """A document, argument, or configuration value violates its invariants."""


class DimensionError(SopflowError):
    """Two embedding vectors have different dimensionality."""


class NotFoundError(SopflowError):
    """A referenced component, document, or metric does not exist."""


class ConfigError(SopflowError):
    """A configuration file or fixture reference is invalid."""


class BackendError(SopflowError):
    """A backend call failed: a remote request or reply, or a scripted
    backend with no entry matching the prompt. Retryable."""

    def __init__(self, message: str, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class GenerationParseError(SopflowError):
    """A backend reply could not be parsed into the expected structure."""


class ProgramValidationError(SopflowError):
    """A parsed tool program violates static invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))


class ProgramRuntimeError(SopflowError):
    """A tool program failed while executing."""

    def __init__(self, statement_index: int, detail: str):
        super().__init__(f"statement {statement_index}: {detail}")
        self.detail = detail


class ToolError(SopflowError):
    """A tool invocation failed. Surfaced to agents as an observation, not a crash."""


class UndefinedMetricError(SopflowError):
    """An accuracy metric was requested over an empty ground-truth set."""


class EpisodeAborted(SopflowError):
    """The episode had to stop because the backend failed twice in a row."""
