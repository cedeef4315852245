"""Exception hierarchy shared by all gho modules."""


class GhoError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GhoError):
    """Scenario text is malformed (bad JSON, unknown kind, missing field)."""


class ValidationError(GhoError):
    """Scenario parsed but violates an invariant (M <= 0, t0 >= t1, ...)."""


class DegenerateBasis(ValidationError):
    """Homogeneous initial conditions are linearly dependent (Wronskian 0): an
    input error, as the cli's exit status 2 reports it."""


class IntegrationFailure(GhoError):
    """The ODE solver failed to produce a solution at the requested tolerance."""


class ZeroRho(GhoError):
    """u and v vanish simultaneously; the basis data is corrupted."""


class CausticEncountered(GhoError):
    """Kernel denominator vanished: the propagator is distributional here."""


class GridTooNarrow(GhoError):
    """A wave packet has significant amplitude at (or would leave) the grid edge."""


class GridMismatch(GhoError):
    """Two packets live on different grids or at different times."""


class LinearSolveFailure(GhoError):
    """The banded linear solve inside the grid evolver produced non-finite data."""
