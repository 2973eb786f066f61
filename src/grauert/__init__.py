"""Numerical toolkit for adapted complex structures on tangent-bundle tubes.

The pipeline: real-analytic metrics with holomorphically extended chart
evaluators (``geometry``, ``catalog``), analytic continuation of the geodesic
flow to complex time by a Taylor-series integrator with variational transport
(``flow``), complex Lagrangian frames and the induced fiberwise complex
structure (``lagrangian``), the spreading matrix along real geodesics, its
conjugate-point poles and its rational continuation to imaginary time
(``jacobi``), holomorphic extension of base functions by three independent
routes (``extend``), and an identity-verification battery plus tube-radius
estimation (``verify``). ``cli`` wraps the lot for batch runs. numpy is the
one runtime dependency.
"""

__version__ = "0.1.0"

from . import errors

__all__ = ["errors", "__version__"]
