"""Exception types shared across the package."""

from __future__ import annotations


class StablecoreError(Exception):
    """Base class for all errors raised by stablecore."""


class NotATree(StablecoreError):
    """Edge set does not describe a tree (wrong count, duplicate, loop, disconnected)."""


class OutOfRange(StablecoreError):
    """A vertex or other integer argument is not an int or out of its range."""


class TooSmall(StablecoreError):
    """Parameter below the smallest supported value (trees need n >= 2)."""


class TooLarge(StablecoreError):
    """Parameter above a supported ceiling: exhaustive enumeration, a random
    tree's draws (more than a list can hold, or than memory can allocate),
    or the test oracles' subset scans."""


class EmptyResult(StablecoreError):
    """Operation would produce an empty graph."""


class NotStable(StablecoreError):
    """Vertex set contains two adjacent vertices."""


class NotPendant(StablecoreError):
    """Vertex set contains a vertex of degree != 1."""


class LimitExceeded(StablecoreError):
    """Enumeration would produce more results than the caller allowed.

    ``count`` carries the number of results that exist.
    """

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class ScaleExceeded(StablecoreError):
    """Claim check needs an exhaustive scan but the tree is too large for it.
    No check in stablecore raises it; it stays exported for code that
    catches it."""


class ParseError(StablecoreError):
    """Malformed or unreadable edge-list input. ``line`` is the 1-based
    offending line number, or None when the input cannot be read at all."""

    def __init__(self, message: str, line: int | None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
