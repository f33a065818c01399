"""Exception types shared across the package."""


class PlanarSPError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(PlanarSPError):
    """Two fields that live on different grids were combined."""


class DomainError(PlanarSPError):
    """A profile or dilation does not fit inside the computational domain."""


class MassMismatchError(PlanarSPError):
    """A field violates the prescribed L2-mass constraint."""


class RegimeError(PlanarSPError):
    """A solver was invoked outside the parameter regime it is valid for."""


class ResolutionError(PlanarSPError):
    """The grid is too coarse for a field: it is more concentrated than the
    grid resolves."""


class ConvergenceError(PlanarSPError):
    """An iteration failed to converge. Carries the partial report when available."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CapBoundaryError(ConvergenceError):
    """The capped flow converged onto the kinetic cap instead of an interior point."""


class GuardFloorError(ConvergenceError):
    """A fiber flow's trial steps all broke the resolution guard: the
    iterate concentrates past what the grid resolves."""


class ShootingError(PlanarSPError):
    """The radial shooting solver failed: a state overflowed a float, the
    integrator gave up, no overshoot was bracketed, or the profile failed
    its Pohozaev check."""


class ThresholdError(PlanarSPError):
    """A closed-form threshold is not a positive finite float for the
    parameters."""


class ConfigError(PlanarSPError):
    """A run configuration is invalid."""
