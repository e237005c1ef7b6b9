"""Exception types shared across the package."""


class MindmaskError(Exception):
    """Base class for all package errors."""


class StoryFormatError(MindmaskError):
    """A story document could not be parsed; the message names the bad line."""


class ValidationError(MindmaskError):
    """An input violates a documented invariant."""


class ExtractionError(MindmaskError):
    """A backend produced an empty or unusable extraction result."""


class BackendError(MindmaskError):
    """A state backend failed; carries the raw response when one exists."""

    def __init__(self, message: str, raw_response: str | None = None):
        super().__init__(message)
        self.raw_response = raw_response


class ProtocolError(MindmaskError):
    """A backend response violated the record protocol (e.g. bad event index)."""


class QuestionParseError(MindmaskError):
    """A question matched no supported template."""


class CacheFormatError(MindmaskError):
    """A record cache file holds a line that is not a state record; names the file and line."""
