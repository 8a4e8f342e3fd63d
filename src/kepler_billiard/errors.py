"""Exception hierarchy for the billiard package.

All domain errors derive from :class:`BilliardError` so callers (and the CLI)
can distinguish physics/numerics failures from programming errors.
"""


class BilliardError(Exception):
    """Base class for all domain-level failures."""


class ConfigError(BilliardError):
    """A run configuration is malformed or inconsistent."""


class Unbound(BilliardError):
    """The state has non-negative orbital energy (no bound ellipse)."""


class Degenerate(BilliardError):
    """Orbit too close to a degenerate conic (e near 1, r near 0, ...)."""


class NoConvergence(BilliardError):
    """An iterative solver exhausted its iteration budget."""


class DomainError(BilliardError):
    """An argument lies outside the mathematical domain of a formula."""


class NoCollision(BilliardError):
    """The orbit never reaches the wall."""


class GrazingContact(BilliardError):
    """Wall contact with (near-)zero normal velocity; continuation undefined."""


class NotOnWall(BilliardError):
    """Reflection requested for a state that is not on the wall."""


class EmptyRegion(BilliardError):
    """The energy surface does not intersect the wall."""


class EmptyLevelSet(BilliardError):
    """No point of the (x, lambda) rectangle carries the requested level."""


class GammaUndefined(BilliardError):
    """gamma has no value here: the angular-momentum root does not exist or
    its R-derivative is singular (branch point or a = 0); or the oracle
    ``delaunay.generating_integral`` missed its quadrature tolerance."""


class InsufficientData(BilliardError):
    """Not enough samples to compute the requested statistic."""


class StepFailure(BilliardError):
    """The ODE integrator failed (step rejection, singularity guard, escape)."""
