"""Exception types shared across the package.

Each type owns the exit code the command-line interface returns for it:
2 for invalid input (the default), 3 for a broken audit contract, and 4
when no extension exists.
"""


class IsocycleError(Exception):
    """Base class for all errors raised by this package.

    ``diagnostics`` says what was tried; the CLI adds it to the JSON report.
    """

    exit_code = 2

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


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

    exit_code = 3


class MinorOneFacePresent(IsocycleError):
    """Raised when a discharging audit meets a minor face with a single cycle edge."""

    exit_code = 3


class DegenerateSide(IsocycleError):
    """Raised when a side of the cycle has no structure: an extension tree of a
    side with one face, or a discharging ledger where the cycle alone bounds a
    face of H."""

    exit_code = 3


class InvalidMove(IsocycleError):
    """Raised when an extension move does not satisfy the move contract."""


class ExtensionNotFound(IsocycleError):
    """Raised when no admissible extension move exists within the budget."""

    exit_code = 4


class TooLarge(IsocycleError):
    """Raised when an exact oracle is asked about a graph beyond its size limit."""


class SizeTooSmall(IsocycleError):
    """Raised when a generator is asked for fewer vertices than it can produce,
    or a rotation system has no edge."""


class BaseNotFourConnected(IsocycleError):
    """Raised when an insertion family is seeded with an unsuitable base graph."""


class UnknownName(IsocycleError):
    """Raised when a named graph is requested that this package does not know."""


class ContractViolation(IsocycleError):
    """Raised when an audit invariant that should always hold fails."""

    exit_code = 3
