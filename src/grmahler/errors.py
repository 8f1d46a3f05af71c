"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: parse errors -> 2, domain errors -> 3,
resource caps -> 4.
"""


class GrmahlerError(Exception):
    """Base class for all package errors."""


class GroupMismatchError(GrmahlerError):
    """Operands belong to different groups, or an element does not fit its group."""


class InfiniteGroupError(GrmahlerError):
    """A finite group was required."""


class DomainError(GrmahlerError):
    """Parameter outside the admissible domain (lambda out of disc, branch cut, ...)."""


class SingularMatrixError(GrmahlerError):
    """Determinant vanished where a nonsingular matrix was required."""


class ResourceLimitError(GrmahlerError):
    """A resource cap was exceeded: the walk's support cap, the series term
    cap (which also bounds --n and --n-max), the free-word letter cap, the
    torus point cap or spectra.MAX_ORDER, the group-order cap of every
    finite route (the Cayley adjacency, the block spectrum and the character
    determinant)."""


class NonConvergenceError(GrmahlerError):
    """The Hermitian eigensolver failed to converge."""


class ParseError(GrmahlerError):
    """Syntax error in a polynomial or group-specifier string."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
