"""Error types raised by the library, one class per CLI exit code.

Each class carries the exit code the CLI ends with when a command raises it:
malformed or ill-fitting input (2), nilpotency violations (3), order
violations (4) and scope violations (5). An error whose exit_code is None
signals a bug and ends in a traceback. Every check in the library raises one
of these classes; none raises ValueError or TypeError. as_int is the one
integer check they share.
"""

import operator


class Error(Exception):
    """Base class for all quiverdeg errors."""

    exit_code = None


class ParseError(Error):
    """The input is malformed or does not fit: a file or option that does not
    match its schema, a shape, length, rank or residue that does not fit the
    quiver or class it is used with, or a size above its cap."""

    exit_code = 2


class NotNilpotent(Error):
    """The representation is not nilpotent."""

    exit_code = 3


class NotADegeneration(Error):
    """The pair is not related in the degeneration order."""

    exit_code = 4


class OutOfScope(Error):
    """The input is outside the supported codimension range."""

    exit_code = 5


class Inconsistent(Error):
    """Internal structural assertion failed; signals a bug or corrupt input."""


def as_int(field: str, value) -> int:
    """value as an int (operator.index), never a truncated float or a parsed string."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParseError(f"{field} {value!r} is not an integer") from None
