"""Exception types shared across the package."""


class IconclassifyError(Exception):
    """Base class for all errors raised by this package."""


class MalformedCodeError(IconclassifyError):
    """A notation string does not parse as an Iconclass code."""


class MalformedLineError(IconclassifyError):
    """A line of a taxonomy or JSON-lines file could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateCodeError(IconclassifyError):
    """The same code appears more than once in a taxonomy source."""


class MissingAncestorError(IconclassifyError):
    """A hierarchical rendering needs ancestor entries that are absent."""

    def __init__(self, code: str, missing: list[str]):
        super().__init__(f"{code}: missing ancestor entries {missing}")
        self.code = code
        self.missing = missing


class DuplicateDocIdError(IconclassifyError):
    """The same document id appears more than once in an index build."""


class EmptyCorpusError(IconclassifyError):
    """An index build received no documents."""


class UnknownDocError(IconclassifyError):
    """A document id is not present in the index."""


class DimMismatchError(IconclassifyError):
    """Two vectors (or a vector and an index) disagree on dimension."""


class ZeroVectorError(IconclassifyError):
    """A vector with zero norm where a direction is required."""


class EmptyReferenceSetError(IconclassifyError):
    """Nearest-neighbour voting was asked to run with no references."""


class ProviderUnavailableError(IconclassifyError):
    """A remote call failed with a status it does not retry, or on every attempt."""


class EmptyResponseError(IconclassifyError):
    """A provider returned an empty or whitespace-only payload."""


class EmptyTextError(IconclassifyError):
    """Text too short (or empty) to embed."""


class MissingIndexError(IconclassifyError):
    """A persisted index directory is absent or incomplete."""


class MissingDescriptionError(IconclassifyError):
    """A text-based method was invoked for an image with no description."""


class ManifestParseError(IconclassifyError):
    """An image manifest file could not be parsed."""


class NoCandidatesError(IconclassifyError):
    """A search produced no candidates, so no prediction can be made."""
