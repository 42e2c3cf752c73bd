"""Exception types shared across the package.

The CLI maps these onto exit codes, so the split matters: anything that is
wrong with the *input* (syntax, orders, tags, non-OSL formulas, bad arrays)
is a ValidationError or ParseError, while blowing the entry cap is its own
class because callers may want to retry with a bigger cap.
"""

from __future__ import annotations


class SftTensorError(Exception):
    """Base class for all errors raised by this package."""


class TagMismatchError(SftTensorError):
    """Two operands carry different semiring tags."""


class ShapeError(SftTensorError):
    """Matrix orders do not fit the requested operation."""


class ParseError(SftTensorError):
    """Malformed text input; carries the offset where scanning stopped."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ValidationError(SftTensorError):
    """Structurally well-formed input that violates a semantic contract."""


class CapExceededError(SftTensorError):
    """An intermediate matrix would exceed the configured entry cap."""

    def __init__(self, path: str, rows: int, cols: int, cap: int, subject: str = ""):
        super().__init__(
            f"{subject or 'subformula at ' + (path or 'root')} has order {rows}x{cols} "
            f"({rows * cols} entries), exceeding the cap of {cap}"
        )
        self.path = path
        self.rows = rows
        self.cols = cols
        self.cap = cap
