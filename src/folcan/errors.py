"""The package's exceptions: each has a stable ``code`` and keyword ``context`` for structured CLI errors."""

from __future__ import annotations

from typing import Any


class FolcanError(Exception):
    """Base class for domain validation failures (CLI exit status 2)."""

    code = "validation_error"

    def __init__(self, message: str, **context: Any):
        super().__init__(message)
        self.context = context


class DimensionMismatch(FolcanError):
    code = "dimension_mismatch"


class SingularMatrix(FolcanError):
    code = "singular_matrix"


class NotNegativeDefinite(FolcanError):
    code = "not_negative_definite"


class InvalidInput(FolcanError):
    code = "invalid_input"


class InvalidOverride(FolcanError):
    code = "invalid_override"


class NotIntegral(FolcanError):
    code = "not_integral"


class NonPositiveVolume(FolcanError):
    code = "non_positive_volume"


class NonIntegralGenus(InvalidInput):
    code = "non_integral_genus"


class NegativeGenus(InvalidInput):
    code = "negative_genus"


class DocumentError(FolcanError):
    """Malformed input document (CLI exit status 1, not 2)."""

    code = "document_error"


class JsonParseError(DocumentError):
    """A document that does not parse: not UTF-8, not JSON, nested too deep or holding an over-long integer."""

    code = "json_parse_error"
