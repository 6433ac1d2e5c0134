"""Exception hierarchy shared by all modules.

Three broad families matter for the command line tool: malformed input
(ValidationError, exit 2), a precondition that the input data violates
(PreconditionError, exit 3), and enumeration budgets (BudgetExceeded,
exit 4).  Everything derives from PersuasionError so library callers can
catch one base class.
"""

from __future__ import annotations


class PersuasionError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PersuasionError):
    """Command line invoked incorrectly."""


class ValidationError(PersuasionError):
    """Malformed or inconsistent input data."""


class NonPositivePrior(ValidationError):
    """A prior probability is zero or negative."""


class PriorNotNormalized(ValidationError):
    """Prior probabilities do not sum to one."""


class MatrixShapeMismatch(ValidationError):
    """A matrix or utility table is dimensionally inconsistent."""


class BadEpsilon(ValidationError):
    """Accuracy parameter outside (0, 1)."""


class ReceiverCountMismatch(ValidationError):
    """Two structures being compared have different receiver counts."""


class DuplicateRows(ValidationError):
    """Operation requires a structure with pairwise distinct rows."""


class StateSpaceMismatch(ValidationError):
    """Objects refer to state spaces of different sizes."""


class GridMismatch(ValidationError):
    """A tabulated utility has no value for a requested grid point."""


class AlphabetTooSmall(ValidationError):
    """Modulus q is smaller than the number of labels to encode."""


class PreconditionError(PersuasionError):
    """Input is well formed but violates an operation's precondition."""


class NotAForest(PreconditionError):
    """Domination graph is not a forest."""


class InvariantViolation(PreconditionError):
    """A supposedly valid solution object fails its own invariants."""


class DominatedTarget(PreconditionError):
    """A receiver that must stay undominated is information-dominated."""


class NoCarrierChannel(PreconditionError):
    """A receiver that needs a payload observes no channel at all."""


class NoKeyChannel(PreconditionError):
    """No channel exists on which a key can be routed privately."""


class SuperiorityViolated(PreconditionError):
    """Transport requested toward a structure that is not superior."""


class BudgetExceeded(PersuasionError):
    """An enumeration would exceed the configured budget."""


class FileError(PersuasionError):
    """A file could not be read, parsed, or written."""
