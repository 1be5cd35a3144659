"""Exception hierarchy shared across the package."""

from numbers import Integral


class QwalkError(Exception):
    """Base class for all package errors."""


# graph construction / serialization

class ParseError(QwalkError):
    pass


class ZeroWeight(QwalkError):
    pass


class DuplicateEdgeConflict(QwalkError):
    pass


class SelfLoop(QwalkError):
    pass


class SameVertex(QwalkError):
    pass


class MissingEdge(QwalkError):
    pass


# spectral evaluation

class TailsRequireTruncation(QwalkError):
    pass


class NonConvergent(QwalkError):
    pass


# partitions

class NotAPartition(QwalkError):
    pass


class SignInconsistency(QwalkError):
    pass


# twin structures

class StructureViolation(QwalkError):
    """A twin-structure invariant failed; the message names the first one."""


# signed graphs

class UnsupportedOverlap(QwalkError):
    pass


class CommuteError(QwalkError):
    pass


class EdgeOverlap(QwalkError):
    pass


# constructions

class AsymmetricConnection(QwalkError):
    pass


class IdentityInConnection(QwalkError):
    pass


class InvalidRoot(QwalkError):
    pass


class UnknownGadget(QwalkError):
    pass


class BadParam(QwalkError):
    pass


def require_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int; BadParam unless it is an integer (not a bool) of
    at least ``minimum``."""
    # a plain int skips the abstract-class check, which costs ~0.4 us
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, Integral)):
        raise BadParam(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise BadParam(f"{what} must be at least {minimum}, got {value}")
    return int(value)


# transfer detectors

class NoTransfer(QwalkError):
    """Raised when a claimed transfer does not hold; carries the achieved fidelity."""

    def __init__(self, fidelity: float, message: str = ""):
        self.fidelity = fidelity
        super().__init__(message or f"no transfer (fidelity {fidelity:.12g})")


class Unreached(QwalkError):
    """Raised when a fidelity target is not reached; carries the best value found."""

    def __init__(self, best_fidelity: float, message: str = ""):
        self.best_fidelity = best_fidelity
        super().__init__(message or f"target not reached (best fidelity {best_fidelity:.12g})")


# experiments

class NotATree(QwalkError):
    pass
