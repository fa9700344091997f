"""Exception hierarchy shared across the package.

Validation errors carry the first offending index where one exists, so
callers (and the CLI) can point at the exact spot in an input word.
Each class's builtin base sets its CLI exit code: a ``ValueError`` or
``KeyError`` is bad input (3, or 4 for ``CapExceededError``), a
``RuntimeError`` a failed internal check (5).
"""

from __future__ import annotations


class TreeGibbsError(Exception):
    """Base class for all errors raised by this package."""


class PathValidationError(TreeGibbsError, ValueError):
    """A raw symbol sequence is not a valid 2-Motzkin path."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (index {index})")
        self.index = index


class InvalidSymbolError(PathValidationError):
    """The word contains a character outside the U/H/I/D alphabet."""


class UnbalancedError(PathValidationError):
    """Up and down steps do not balance; index points at the first unmatched U."""


class NegativePrefixError(PathValidationError):
    """A prefix dips below the axis; index points at the offending D."""


class CapExceededError(TreeGibbsError, ValueError):
    """Requested size is beyond the configured exhaustive-machinery cap."""

    def __init__(self, what: str, requested: int, cap: int):
        super().__init__(f"{what}={requested} exceeds cap {cap}")
        self.requested = requested
        self.cap = cap


class EmptyTreeError(TreeGibbsError, ValueError):
    """Operation requires a tree with at least one edge."""


class UnbalancedParensError(TreeGibbsError, ValueError):
    """A parenthesis word does not describe a tree."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (index {index})")
        self.index = index


class InternalInvariantViolationError(TreeGibbsError, RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class UnknownParameterSetError(TreeGibbsError, KeyError):
    """Requested builtin thermodynamic parameter set does not exist."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class ConfigInvalidError(TreeGibbsError, ValueError):
    """A run configuration violates its preconditions."""


class LengthMismatchError(TreeGibbsError, ValueError):
    """Two objects that must have equal length do not."""


class BalanceViolationError(TreeGibbsError, RuntimeError):
    """Detailed balance or stationarity failed during model verification."""

    def __init__(self, message: str, worst_pair=None, magnitude: float = float("nan")):
        super().__init__(message)
        self.worst_pair = worst_pair
        self.magnitude = magnitude


class NoConvergenceError(TreeGibbsError, RuntimeError):
    """An iterative solver did not reach its tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class MassUnderflowError(TreeGibbsError, ValueError):
    """A state's Gibbs mass underflows to 0 in float64, so a spectral solve,
    which scales the kernel by 1/sqrt(pi), cannot be set up."""


class EmptyBlockError(TreeGibbsError, ValueError):
    """A restriction chain was requested over an empty block."""


class NotAPartitionError(TreeGibbsError, ValueError):
    """The supplied blocks do not partition the state space."""
