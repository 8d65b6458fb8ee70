"""Exception types shared across the package."""


class XXRingError(Exception):
    """Base class for all xxring errors."""


class DegenerateAtCrossing(XXRingError):
    """The requested field sits on a level crossing; the ground state is two-fold
    degenerate there and callers must pick a side explicitly."""


class SizeLimit(XXRingError):
    """The requested chain size exceeds the dense-representation budget."""


class SingularPoint(XXRingError):
    """Evaluation was requested exactly at a singularity."""


class NoConvergence(XXRingError):
    """The eigensolver failed to deliver an eigenpair within tolerance."""


class DimensionMismatch(XXRingError):
    """Operands describe different numbers of sites."""
