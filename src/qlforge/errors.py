"""Exception types shared across the qlforge pipeline."""


class QlforgeError(Exception):
    """Base class for all qlforge errors."""


class ConfigError(QlforgeError):
    """Configuration file or CLI arguments are invalid."""


class BackendUnavailable(QlforgeError):
    """The requested analyzer backend cannot run (missing binary, failed database build)."""


class RecordTooLarge(QlforgeError):
    """One or more records cannot fit a prompt within the token budget."""

    def __init__(self, message: str, record_ids=()):
        super().__init__(message)
        self.record_ids = tuple(record_ids)


class UnknownApiId(QlforgeError):
    """A group references an API id that is not in the record lookup."""


class TemplateError(QlforgeError):
    """A prompt template has a placeholder with no value, or is malformed."""


class WhollyMalformed(QlforgeError):
    """A model response has no recoverable structure at all."""


class BallotCountMismatch(QlforgeError):
    """An API id arrived at the tally with neither three ballots nor two that agree."""


class NothingToPair(QlforgeError):
    """Pairing was requested with zero sources or zero sinks."""


class CompilerUnavailable(QlforgeError):
    """The requested rule compiler cannot run: its binary is missing or hung."""


class ExecutionFailed(QlforgeError):
    """Executing rules ran and failed, or left results that cannot be read."""


class AuthFailure(QlforgeError):
    """The model provider rejected the credentials."""


class RateLimited(QlforgeError):
    """The model provider kept rate-limiting after all retries."""


class ProviderError(QlforgeError):
    """The model provider failed in a non-retryable way."""


class ArtifactCorrupt(QlforgeError, ValueError):
    """A run artifact on disk has an unsupported version or an unknown value."""


class UnwritableOutput(QlforgeError):
    """A report or artifact file could not be written."""


class StageFailure(QlforgeError):
    """A pipeline stage failed fatally."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage


class NothingToDo(QlforgeError):
    """The invocation had no work to perform (e.g. resuming a finished run)."""
