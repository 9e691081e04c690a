"""Exception types shared across the package."""


class EdgeRigidError(Exception):
    """Base class for all package-specific errors."""


class ParseError(EdgeRigidError):
    """Input is not a well-formed graph in the declared format."""


class NotSimpleError(EdgeRigidError):
    """Graph has a self-loop or a duplicate edge."""


class DisconnectedError(EdgeRigidError):
    """Graph is not connected."""


class TooSmallError(EdgeRigidError):
    """Graph has fewer than 2 vertices or no edges."""


class DimensionMismatchError(EdgeRigidError, ValueError):
    """An argument has the wrong shape or length for the graph."""


class LevelOutOfRangeError(EdgeRigidError, IndexError):
    """An eigenvalue group or level index is outside the graph's spectrum."""


class DisconnectingWeightsError(EdgeRigidError):
    """The weighted Laplacian has rank below n - 1."""


class ConvergenceFailureError(EdgeRigidError):
    """The underlying eigensolver failed to converge."""


class InternalInconsistencyError(EdgeRigidError):
    """Two deciders that are provably equivalent disagreed (a bug, not math)."""
