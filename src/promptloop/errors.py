"""Exception types shared across the package."""


class PromptloopError(Exception):
    """Base class for all promptloop errors."""


class ConfigError(PromptloopError):
    """Invalid or incomplete configuration."""


class BackendUnavailableError(PromptloopError):
    """Backend could not be reached after all retry attempts."""


class EmptyResponseError(PromptloopError):
    """A chat backend returned an empty completion."""


class ProtocolError(PromptloopError):
    """The backend answered with a malformed or inconsistent payload."""


class DegenerateInputError(PromptloopError):
    """An input carries no usable signal (empty text, zero embedding)."""


class DimensionMismatchError(PromptloopError):
    """Vector operands disagree on dimension."""


class CorpusError(PromptloopError):
    """Reference corpus file is unreadable, malformed, or empty."""


class LogError(PromptloopError):
    """Event log violates ordering, format, or replay constraints."""


class UnfinishedLogError(LogError):
    """A fresh start found its log holding an unfinished run, and kept it."""

    def __init__(self, path: str) -> None:
        super().__init__(f"{path} holds an unfinished run; continue it with --resume, or remove the file to start over")
        self.path = path


class DigestMismatchError(LogError):
    """Resume attempted with a config or corpus that does not match the log."""


class RunAbortedError(PromptloopError):
    """A backend failure aborted the run mid-flight; the log remains resumable."""


#: Backend-side failures: they abort a feedback round atomically and skip a
#: mutation step. A sample vector whose length differs from the corpus's is
#: one of them: the embedding backend answered it.
BACKEND_ERRORS = (BackendUnavailableError, EmptyResponseError, ProtocolError, DegenerateInputError,
                  DimensionMismatchError)
