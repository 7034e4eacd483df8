"""Error types raised by the library.

Each class carries the exit code the CLI ends with when a command raises it:
parse/shape problems (2), nilpotency violations (3), order violations (4)
and scope violations (5). An error whose exit_code is None signals a bug and
ends in a traceback.
"""


class Error(Exception):
    """Base class for all quiverdeg errors."""

    exit_code = None


class ParseError(Error):
    """A file or JSON object does not match the expected schema."""

    exit_code = 2


class ShapeMismatch(Error):
    """A matrix has the wrong shape for its arrow."""

    exit_code = 2


class QuiverMismatch(Error):
    """Two representations do not live over the same quiver."""

    exit_code = 2


class LengthMismatch(Error):
    """A dimension vector has the wrong number of components."""

    exit_code = 2


class NotCyclic(Error):
    """The quiver is not a cyclic quiver in the canonical orientation."""

    exit_code = 2


class NotNilpotent(Error):
    """The representation is not nilpotent."""

    exit_code = 3


class BadWindow(Error):
    """Window endpoints are inconsistent (i > j)."""

    exit_code = 2


class RankMismatch(Error):
    """Two cyclic-quiver objects have different ranks n."""

    exit_code = 2


class BadResidue(Error):
    """A selected residue is not available in the socle."""

    exit_code = 2


class Inconsistent(Error):
    """Internal structural assertion failed; signals a bug or corrupt input."""


class NotADegeneration(Error):
    """The pair is not related in the degeneration order."""

    exit_code = 4


class OutOfScope(Error):
    """The input is outside the supported codimension range."""

    exit_code = 5


class BadArity(Error):
    """A model-variety point has the wrong number of coordinates."""

    exit_code = 2
