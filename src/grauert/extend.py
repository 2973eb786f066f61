"""Holomorphic extension of functions on the base manifold to the tube.

A real-analytic function of position alone extends to a holomorphic function
of a tube point z = (x, v), and the same value can be reached three ways:

* ``extend_by_series``: sum the Taylor coefficients of the flow parameter,
  evaluated at parameter i. The k-th coefficient times k! is the k-fold
  derivative of the function along the energy field, so this route needs no
  complex arithmetic in the state itself.
* ``extend_by_flow``: transport the base point to complex time i and read the
  function's chart formula at the complex coordinates that come out.
* ``extend_by_exp``: for models with a closed-form exponential map, continue
  that map to the imaginary tangent vector and evaluate a declared closed-form
  extension there. Independent of the integrator entirely.

Pairwise agreement of the routes is the practical certificate that the
extension exists at the sampled points; ``crosscheck`` packages that. The
module also carries the derivative bookkeeping used by the verification
battery: fiber homogeneity of the flow-derivative coefficients, a slow
finite-difference oracle for the first few of them, strip identities for the
continued exponential, and holomorphy residuals of the extended values
against a computed complex structure.

Functions are declared, not sniffed: the constructors build evaluators from
structured coefficient data (trigonometric frequency tables, ambient linear
forms) whose analyticity is a property of the formula. A raw-callable escape
hatch exists, but the caller then owns the analyticity claim and must declare
the strip on which it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from . import jets
from .errors import ChartDomainError, DivergenceError, UnsupportedModelError
from .flow import DEFAULT_TOL, PhasePoint, SigmaPath, flow, hamiltonian_vector_field
from .flow import _taylor_series
from .geometry import metric_inv_matrix
from .jets import Jet, value
from .lagrangian import distribution_at, j_tensor_from_frame

__all__ = [
    "BaseFunction",
    "ExtensionResult",
    "torus_trig",
    "sphere_ambient",
    "from_chart_functions",
    "extend_by_series",
    "extend_by_flow",
    "extend_by_exp",
    "crosscheck",
    "flow_derivative_coefficients",
    "nested_flow_derivative_fd",
    "homogeneity_residuals",
    "strip_identity_residual",
    "holomorphy_residual",
]

DEFAULT_MAX_TERMS = 40

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@dataclass(frozen=True)
class BaseFunction:
    """A function of position with a holomorphic chart representation.

    ``chart_fns`` maps chart id to an evaluator over generic scalars (floats,
    complex numbers, jets all work); ``margin`` is the half-width of the
    imaginary strip per coordinate on which the formulas stay holomorphic;
    ``extension`` is an optional closed form on the complexified model, taking
    complex chart coordinates on flat models and an ambient complex point on
    embedded ones.
    """

    name: str
    chart_fns: Mapping[str, Callable]
    margin: float = np.inf
    extension: Callable | None = None

    def chart_eval(self, chart_id, coords):
        return self.chart_fns[chart_id](list(coords))


@dataclass(frozen=True)
class ExtensionResult:
    value: complex
    method: str
    error_estimate: float
    terms_used: int | None = None
    diagnostics: dict = field(default_factory=dict)


def torus_trig(name, coeffs):
    """Trigonometric polynomial sum_k c_k exp(i k.x) on a flat model.

    ``coeffs`` maps integer frequency tuples to complex amplitudes. Entire in
    every coordinate, so the declared strip is unbounded.
    """
    items = [(tuple(int(x) for x in k), complex(c)) for k, c in coeffs.items()]

    def ev(qs):
        acc = 0.0 + 0.0j
        for k, c in items:
            phase = 0.0
            for i, ki in enumerate(k):
                if ki:
                    phase = phase + ki * qs[i]
            acc = acc + c * jets.exp(1j * phase)
        return acc

    return BaseFunction(
        name=name,
        chart_fns={"main": ev},
        extension=lambda xc: complex(value(ev(list(np.asarray(xc, dtype=complex))))),
    )


def sphere_ambient(model, name, coeffs, offset=0.0):
    """Affine function of the ambient coordinates restricted to the sphere."""
    c = np.asarray(coeffs, dtype=complex)
    emb = model.embedding

    def make(cid):
        def ev(qs):
            w = emb.to_world(cid, qs)
            return c[0] * w[0] + c[1] * w[1] + c[2] * w[2] + offset

        return ev

    return BaseFunction(
        name=name,
        chart_fns={cid: make(cid) for cid in model.charts},
        extension=lambda Z: complex(c @ np.asarray(Z, dtype=complex) + offset),
    )


def from_chart_functions(name, chart_fns, margin, extension=None):
    """Wrap caller-supplied chart evaluators.

    Nothing here can verify that a black-box callable is holomorphic; the
    caller asserts it on |Im x_j| < margin by passing it in. Prefer the
    structured constructors when one fits.
    """
    return BaseFunction(name=name, chart_fns=dict(chart_fns), margin=float(margin),
                        extension=extension)


def _series_coefficients(model, f, z, max_terms):
    """Taylor coefficients of the flow parameter for f composed with the flow."""
    cid = z.chart_id
    q = model.chart(cid).wrap(z.q)
    model.require_inside(cid, q)
    n = model.dim
    coeffs = _taylor_series(model, cid, q[None], z.p[None], None, 1.0, max_terms)[0]
    qjets = [Jet(coeffs[i].copy()) for i in range(n)]
    out = f.chart_eval(cid, qjets)
    if isinstance(out, Jet):
        return np.asarray(out.c[0], dtype=complex)
    a = np.zeros(max_terms + 1, dtype=complex)
    a[0] = complex(out)
    return a


def extend_by_series(model, f, z, max_terms=DEFAULT_MAX_TERMS):
    """Sum the flow-parameter Taylor series of f at parameter i.

    Stops early once two consecutive terms drop below 1e-15 of the partial
    sum (two in a row so parity-sparse series do not truncate at an
    accidental zero). Raises :class:`DivergenceError` when term magnitudes
    keep setting new records past order 10: with complex or paired
    singularities the magnitudes oscillate while growing, so record highs are
    the robust growth signal rather than consecutive increases.
    """
    a = _series_coefficients(model, f, z, max_terms)
    total = 0.0 + 0.0j
    used = 0
    last = 0.0
    peak = 0.0
    records = 0
    tiny = 0
    for k in range(max_terms + 1):
        term = a[k] * _I_POWERS[k % 4]
        total += term
        used = k + 1
        last = abs(term)
        if k > 10 and last > peak:
            records += 1
            if records >= 5:
                raise DivergenceError(
                    f"{f.name}: series terms still growing at order {k} "
                    f"(|term| = {last:.3e}); point is outside the convergent tube "
                    "or too deep for the term budget"
                )
        peak = max(peak, last)
        if last < 1e-15 * max(1.0, abs(total)):
            tiny += 1
            if tiny >= 2:
                break
        else:
            tiny = 0
    return ExtensionResult(value=complex(total), method="series",
                           error_estimate=last, terms_used=used)


def extend_by_flow(model, f, z, path=None, tol=DEFAULT_TOL):
    """Evaluate f's chart formula at the complex-time-i transport of the base point.

    ``path`` defaults to the straight segment to i; any endpoint works and
    gives the continuation at that parameter instead.
    """
    if path is None:
        path = SigmaPath.straight(1j)
    res = flow(model, z, path=path, tol=tol)
    end = res.point
    im = float(np.max(np.abs(end.q.imag)))
    if im >= f.margin:
        raise ChartDomainError(
            f"{f.name}: flow endpoint has imaginary displacement {im:.3g}, "
            f"outside the declared strip {f.margin:.3g}",
            chart_id=end.chart_id,
            coords=end.q,
        )
    val = complex(value(f.chart_eval(end.chart_id, end.q)))
    return ExtensionResult(
        value=val,
        method="flow",
        error_estimate=tol,
        diagnostics={
            "chart": end.chart_id,
            "steps": res.diagnostics.steps,
            "transitions": res.diagnostics.transitions,
            "endpoint_q": end.q.copy(),
        },
    )


def extend_by_exp(model, f, z):
    """Closed-form route: declared extension at the continued exponential map."""
    orc = model.oracle
    if orc is None or not hasattr(orc, "exp_complex"):
        raise UnsupportedModelError(
            f"{model.name} has no closed-form exponential map"
        )
    if f.extension is None:
        raise UnsupportedModelError(
            f"{f.name} declares no closed-form extension"
        )
    cid = z.chart_id
    q = model.chart(cid).wrap(z.q)
    v = metric_inv_matrix(model, cid, q) @ z.p
    target = orc.exp_complex(cid, q, 1j * v)
    return ExtensionResult(value=complex(f.extension(target)), method="exp_map",
                           error_estimate=0.0, diagnostics={"target": np.asarray(target)})


def crosscheck(model, f, z, max_terms=DEFAULT_MAX_TERMS, tol=DEFAULT_TOL):
    """Run every applicable route and report pairwise deviations."""
    results = {
        "series": extend_by_series(model, f, z, max_terms=max_terms),
        "flow": extend_by_flow(model, f, z, tol=tol),
    }
    orc = model.oracle
    if orc is not None and hasattr(orc, "exp_complex") and f.extension is not None:
        results["exp_map"] = extend_by_exp(model, f, z)
    pairwise = {
        (m1, m2): abs(results[m1].value - results[m2].value)
        for m1, m2 in combinations(results, 2)
    }
    return {
        "values": {m: r.value for m, r in results.items()},
        "results": results,
        "pairwise": pairwise,
        "max_deviation": max(pairwise.values()),
    }


def flow_derivative_coefficients(model, f, z, max_order):
    """k-fold derivatives of f along the energy field, k = 0..max_order.

    These are k! times the flow-parameter Taylor coefficients; degree-k
    fiber homogeneity in the momentum is their structural invariant.
    """
    a = _series_coefficients(model, f, z, max_order)
    return np.array([math.factorial(k) * a[k] for k in range(max_order + 1)])


def _diff5(g, h):
    return (-g(2 * h) + 8 * g(h) - 8 * g(-h) + g(-2 * h)) / (12 * h)


def nested_flow_derivative_fd(model, f, z, k, h=0.05):
    """Slow oracle for the k-fold derivative along the energy field.

    Recursive five-point differencing of the directional derivative; each
    nesting level costs a factor of the stencil size and loses accuracy, so
    this is only worth comparing for small k.
    """
    cid = z.chart_id
    n = model.dim
    fn = f.chart_fns[cid]
    basis = np.eye(n)

    def make(level):
        if level == 0:
            return lambda q, p: complex(value(fn(list(q))))
        inner = make(level - 1)

        def out(q, p):
            dq, dp = hamiltonian_vector_field(model, cid, list(q), list(p))
            acc = 0.0 + 0.0j
            for j in range(n):
                ej = basis[j]
                acc += complex(value(dq[j])) * _diff5(lambda t: inner(q + t * ej, p), h)
                acc += complex(value(dp[j])) * _diff5(lambda t: inner(q, p + t * ej), h)
            return acc

        return out

    return make(k)(np.asarray(z.q, dtype=complex), np.asarray(z.p, dtype=complex))


def homogeneity_residuals(model, f, z, c, max_order=8):
    """Relative defect of degree-k momentum homogeneity for each derivative order."""
    base = flow_derivative_coefficients(model, f, z, max_order)
    scaled = PhasePoint(z.chart_id, z.q, c * z.p)
    sc = flow_derivative_coefficients(model, f, scaled, max_order)
    out = np.empty(max_order + 1)
    for k in range(max_order + 1):
        want = (c**k) * base[k]
        out[k] = abs(sc[k] - want) / max(1.0, abs(want))
    return out


def strip_identity_residual(model, z, sigma, tau, tol=DEFAULT_TOL):
    """Continued exponential at sigma + i tau vs the strip point it must equal.

    The left side continues the exponential map of the initial velocity to the
    complex parameter directly; the right side flows for real time sigma
    first, then continues by i tau from the transported base point. Both land
    in the model's complexified ambient coordinates.
    """
    orc = model.oracle
    if orc is None or not hasattr(orc, "exp_complex"):
        raise UnsupportedModelError(f"{model.name} has no closed-form exponential map")
    cid = z.chart_id
    q = model.chart(cid).wrap(z.q)
    v = metric_inv_matrix(model, cid, q) @ z.p
    left = np.asarray(orc.exp_complex(cid, q, (sigma + 1j * tau) * v))
    moved = flow(model, z, sigma=float(sigma), tol=tol).point
    v2 = metric_inv_matrix(model, moved.chart_id, moved.q) @ moved.p
    right = np.asarray(orc.exp_complex(moved.chart_id, moved.q, 1j * tau * v2))
    return float(np.max(np.abs(left - right)))


def holomorphy_residual(model, f, points, h=1e-4, method="flow",
                        max_terms=DEFAULT_MAX_TERMS, tol=DEFAULT_TOL):
    """Max defect of (X + iJX) applied to the extended values over sample points.

    X runs over the coordinate tangent basis of the phase space; derivatives
    of the extension are five-point central differences with step h, and J is
    computed at each point from the continued vertical distribution. Zero up
    to differencing error certifies the extension is holomorphic for the
    computed structure.
    """
    if method == "series":
        ev = lambda pt: extend_by_series(model, f, pt, max_terms=max_terms).value
    elif method == "flow":
        ev = lambda pt: extend_by_flow(model, f, pt, tol=tol).value
    else:
        raise ValueError("method must be 'series' or 'flow'")
    worst = 0.0
    for z in points:
        n = z.dim
        frame = distribution_at(model, z, 1j)
        J = j_tensor_from_frame(frame)
        grad = np.zeros(2 * n, dtype=complex)
        for a in range(2 * n):
            dq = np.zeros(n)
            dp = np.zeros(n)
            (dq if a < n else dp)[a % n] = 1.0
            along = lambda t: ev(PhasePoint(z.chart_id, z.q + t * dq, z.p + t * dp))
            grad[a] = _diff5(along, h)
        for a in range(2 * n):
            resid = abs(grad[a] + 1j * (grad @ J[:, a]))
            worst = max(worst, resid)
    return worst
