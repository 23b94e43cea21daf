"""Exception types shared across the package."""


class IsocycleError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(IsocycleError):
    """Raised when a graph description cannot be parsed."""


class NotSimple(IsocycleError):
    """Raised when a graph has a loop or a repeated edge."""


class InconsistentRotation(IsocycleError):
    """Raised when the rotation lists do not describe both ends of every edge."""


class NonPlanarEmbedding(IsocycleError):
    """Raised when the rotation system does not describe a sphere embedding."""


class NotCycle(IsocycleError):
    """Raised when a vertex sequence is not a cycle of the graph."""


class NotIsolating(IsocycleError):
    """Raised when a cycle leaves two adjacent vertices uncovered."""


class CycleTooShort(IsocycleError):
    """Raised when an audit needs a cycle of length at least six."""


class MinorOneFacePresent(IsocycleError):
    """Raised when a discharging audit meets a minor face with a single cycle edge."""


class DegenerateSide(IsocycleError):
    """Raised when an extension tree is requested for a side with no structure."""


class InvalidMove(IsocycleError):
    """Raised when an extension move does not satisfy the move contract."""


class ExtensionNotFound(IsocycleError):
    """Raised when no admissible extension move exists within the budget.

    Carries a diagnostics dict so callers can inspect what was tried.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class TooLarge(IsocycleError):
    """Raised when an exact oracle is asked about a graph beyond its size limit."""


class SizeTooSmall(IsocycleError):
    """Raised when a generator is asked for fewer vertices than it can produce."""


class BaseNotFourConnected(IsocycleError):
    """Raised when an insertion family is seeded with an unsuitable base graph."""


class UnknownName(IsocycleError):
    """Raised when a named graph is requested that this package does not know."""


class ContractViolation(IsocycleError):
    """Raised when an audit invariant that should always hold fails."""
