"""Exception types shared across the package."""


class LoopforgeError(Exception):
    """Base class for all package-specific errors."""


class EnumerationUnsupported(LoopforgeError):
    """Raised when element enumeration is requested for an infinite field."""


class DimensionMismatch(LoopforgeError):
    """Vector or matrix dimensions are inconsistent with the ambient space."""


class LatinSquareViolation(LoopforgeError):
    def __init__(self, axis, index, value):
        self.axis = axis
        self.index = index
        self.value = value
        super().__init__(f"{axis} {index} repeats value {value}")


class MalformedCayley(LoopforgeError):
    """A Cayley document or table is malformed: it lacks the shape
    {"order", "elements": [...], "table": [[...]]}, names an element twice,
    or has a table that is not square or holds entries outside the integers
    0..n-1."""


class NoIdentityAtZero(LoopforgeError):
    """The table has no two-sided identity at index 0."""


class NotNormal(LoopforgeError):
    """The subloop is not normal.  ``witness`` is the least element that the
    normal closure of the subloop adds to it; a coset product that is not well
    defined on some pair (x, y) is reported with that pair."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subloop is not normal, witness {witness}")


class SeriesMismatch(LoopforgeError):
    """The two lower-central-series computations disagree under every alignment."""


class NotCommutativeMoufang(LoopforgeError):
    """Operation requires a commutative Moufang loop."""


class OrderBoundExceeded(LoopforgeError):
    """Loop order exceeds the fixed bound of this computation (loops.ORDER_BOUND
    for lattices, group type and radicals)."""


class UnknownName(LoopforgeError):
    """Unrecognised builtin construction name."""


class InputNotGroup(LoopforgeError):
    """The doubling construction needs an associative input loop."""


class GateFailed(LoopforgeError):
    def __init__(self, construction, reason, witness=None):
        self.construction = construction
        self.reason = reason
        self.witness = witness
        super().__init__(f"{construction} failed its gate oracle: {reason} (witness {witness})")


class DimensionBoundExceeded(LoopforgeError):
    """Requested algebra dimension exceeds a fixed bound of this computation."""


class IdealNotProper(LoopforgeError):
    """The unit lies inside the ideal, so no unital quotient exists."""


class IdealNotStable(LoopforgeError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subspace is not closed under multiplication, witness {witness}")


class AlternatorIdealFull(LoopforgeError):
    """The alternator ideal contains the unit; the alternative quotient would be zero."""


class SidedInverseMismatch(LoopforgeError):
    def __init__(self, element=None):
        self.element = element
        super().__init__("one-sided inverses exist but differ; input algebra is not alternative")


class NotQuasiregular(LoopforgeError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("carrier contains an element with no quasiinverse")


class NotNil(LoopforgeError):
    """Inputs are not nilpotent of the stated index."""


class UnsupportedRadical(LoopforgeError):
    """No supported strategy applies to this algebra's quasiregular radical."""


class CrossCheckMismatch(LoopforgeError):
    """Loop-side and algebra-side computations of the same fact disagree."""
