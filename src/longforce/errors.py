"""Exception hierarchy shared by all longforce modules.

Two broad families matter to callers: input/protocol problems (bad files,
logs that violate a test protocol) and numerical problems (fits that cannot
be computed or give a surface that falls with the signal). The CLI maps the
first family to exit code 2 and the second to exit code 3.
"""


class LongforceError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(LongforceError, ValueError):
    """A parameter, setting or operating point is out of range or non-finite.

    Also a ``ValueError``, which callers that predate it catch.
    """


class SchemaError(LongforceError):
    """A config, CSV or model file does not match its expected schema."""


class ProtocolViolationError(LongforceError):
    """A drive log does not satisfy the preconditions of a test protocol.

    Carries the indices of the offending samples when they are known.
    """

    def __init__(self, message: str, indices: list[int] | None = None):
        super().__init__(message)
        self.indices = list(indices) if indices else []


class SegmentSplitRequired(LongforceError):
    """A log holds a non-constant command signal and must be split first."""


class EmptySeriesError(LongforceError):
    """No valid acceleration samples could be produced from a log."""


class FitError(LongforceError):
    """A curve or surface fit is underdetermined or violates a constraint."""


class EmptyReportError(LongforceError):
    """Validation was asked to compare an empty set of samples."""
