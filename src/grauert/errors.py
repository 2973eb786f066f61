"""Exception taxonomy.

Every failure mode the numerical pipeline can diagnose gets its own class so
callers (and the CLI exit-code mapping) can branch on type rather than parse
messages. All carry a human-readable reason; some carry machine-usable
diagnostics as attributes.
"""

from __future__ import annotations

__all__ = [
    "GrauertError",
    "ChartDomainError",
    "SingularityError",
    "DegenerateFrameError",
    "TransversalityError",
    "ConjugatePointError",
    "PadeDegeneracyError",
    "PositivityError",
    "DivergenceError",
    "UnsupportedModelError",
    "UnknownModelError",
    "InvalidParamsError",
    "ConfigError",
]


class GrauertError(Exception):
    """Base class for all toolkit errors."""


class ChartDomainError(GrauertError):
    """A coordinate left the declared chart box or its imaginary-part margin."""

    def __init__(self, message, chart_id=None, coords=None):
        super().__init__(message)
        self.chart_id = chart_id
        self.coords = coords


class SingularityError(GrauertError):
    """Continuation broke down: step collapse or margin exit mid-flow.

    ``last_good_sigma`` is the last path parameter at which the state was
    still certified.
    """

    def __init__(self, message, last_good_sigma=None, reason=None):
        super().__init__(message)
        self.last_good_sigma = last_good_sigma
        self.reason = reason


class DegenerateFrameError(GrauertError):
    """Frame columns numerically rank-deficient."""


class TransversalityError(GrauertError):
    """A subspace meets its conjugate nontrivially (within threshold)."""


class ConjugatePointError(GrauertError):
    """The horizontal-generated Jacobi fields degenerate along the geodesic."""

    def __init__(self, message, sigma=None):
        super().__init__(message)
        self.sigma = sigma


class PadeDegeneracyError(GrauertError):
    """Rational fit cannot reproduce its samples, or the fitted denominator
    vanishes at the evaluation target."""


class PositivityError(GrauertError):
    """A matrix required to be positive definite is not."""


class DivergenceError(GrauertError):
    """A series shows sustained term growth instead of convergence."""


class UnsupportedModelError(GrauertError):
    """Operation not available for this model (e.g. no closed-form oracle)."""


class UnknownModelError(GrauertError):
    """Catalog lookup with an unknown model name."""


class InvalidParamsError(GrauertError):
    """Catalog model parameters fail validation."""


class ConfigError(GrauertError):
    """Malformed run configuration (unknown key, bad value, missing section)."""
