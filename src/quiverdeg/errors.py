"""Error types raised by the library.

The CLI maps these onto its exit-code taxonomy: parse/shape problems (2),
nilpotency violations (3), order violations (4) and scope violations (5).
"""


class Error(Exception):
    """Base class for all quiverdeg errors."""


class ParseError(Error):
    """A file or JSON object does not match the expected schema."""


class ShapeMismatch(Error):
    """A matrix has the wrong shape for its arrow."""


class QuiverMismatch(Error):
    """Two representations do not live over the same quiver."""


class LengthMismatch(Error):
    """A dimension vector has the wrong number of components."""


class NotCyclic(Error):
    """The quiver is not a cyclic quiver in the canonical orientation."""


class NotNilpotent(Error):
    """The representation is not nilpotent."""


class BadWindow(Error):
    """Window endpoints are inconsistent (i > j)."""


class RankMismatch(Error):
    """Two cyclic-quiver objects have different ranks n."""


class BadResidue(Error):
    """A selected residue is not available in the socle or top."""


class Inconsistent(Error):
    """Internal structural assertion failed; signals a bug or corrupt input."""


class SocleNotEmbeddable(Error):
    """The socle of the degenerating class does not embed into the other socle."""


class TopNotLiftable(Error):
    """The top of the degenerating class does not lift to the other top."""


class NotADegeneration(Error):
    """The pair is not related in the degeneration order."""


class OutOfScope(Error):
    """The input is outside the supported codimension range."""


class BadArity(Error):
    """A model-variety point has the wrong number of coordinates."""
