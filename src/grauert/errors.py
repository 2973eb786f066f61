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
    "DivergenceError",
    "UnsupportedModelError",
    "UnknownModelError",
    "InvalidParamsError",
    "ConfigError",
]


class GrauertError(Exception):
    """Base class for all toolkit errors."""


class ChartDomainError(GrauertError):
    """A real part lies outside the declared chart box, or the chart does not exist."""

    def __init__(self, message, chart_id=None, coords=None):
        super().__init__(message)
        self.chart_id = chart_id
        self.coords = coords


class SingularityError(GrauertError):
    """Continuation broke down mid-flow; ``reason`` names how.

    A flow lane stops by "step collapse", "non-finite series" (a vanishing
    constant term of a reciprocal, log or sqrt, or an overflow), "non-finite
    energy" (at its end), "chart box" or "step budget".
    ``last_good_sigma`` is the last path parameter at which the state was
    still certified. ``segments`` holds the dense output a flow lane accepted
    before the breakdown (empty when it broke down before its first step).
    """

    def __init__(self, message, last_good_sigma=None, reason=None, segments=()):
        super().__init__(message)
        self.last_good_sigma = last_good_sigma
        self.reason = reason
        self.segments = list(segments)


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
    """The rational (AAA) fit of a continuation misses its samples, a sample
    to fit is not finite, or the evaluation target sits on one of its poles."""


class DivergenceError(GrauertError):
    """A series shows sustained term growth instead of convergence."""


class UnsupportedModelError(GrauertError):
    """Operation not available for this model (e.g. no closed-form oracle)."""


class UnknownModelError(GrauertError):
    """Catalog lookup with an unknown model name."""


class InvalidParamsError(GrauertError):
    """Parameters of a catalog model or of a computation fail validation."""


class ConfigError(GrauertError):
    """Malformed run configuration (unknown key, bad value, missing section)."""
