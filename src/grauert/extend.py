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

The series and flow routes take batches: ``extend_by_series_lanes`` builds
the series of all points in a chart with one lane-batched series call and
evaluates f once on their lane jets, and ``extend_by_flow_lanes`` sends all
points to time i as lanes of one :func:`~grauert.flow.flow_lanes` call. Each
lane keeps its own checks and its own error, and ``extend_by_series`` and
``extend_by_flow`` are one-point reads of them. The exp-map route runs point
by point, and no route is merged into another.

Pairwise agreement of the routes is the practical certificate that the
extension exists at the sampled points; ``crosscheck`` packages that for a
batch of points. The module also carries derivative bookkeeping that the
tests run (the verification battery calls none of it): fiber homogeneity of
the flow-derivative coefficients, a slow finite-difference oracle for the
first few of them, strip identities for the continued exponential, and
holomorphy residuals of the extended values against a computed complex
structure.

Functions are declared, not sniffed: the constructors build evaluators from
structured coefficient data (trigonometric frequency tables, ambient linear
forms) whose analyticity is a property of the formula. A raw-callable escape
hatch exists: build a :class:`BaseFunction` from chart evaluators directly.
The caller then owns the analyticity claim and must declare the strip on
which it holds as its ``margin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from . import jets
from .errors import ChartDomainError, DivergenceError, GrauertError, SingularityError
from .errors import UnsupportedModelError
from .flow import DEFAULT_TOL, STENCIL, PhasePoint, SigmaPath, diff5, flow, flow_lanes
from .flow import hamiltonian_vector_field, lane_result, stencil_points
from .flow import _admit, _retire_breakdowns, _taylor_series
from .geometry import metric_inv_matrix
from .jets import Jet, value
from .lagrangian import FrameRays, j_tensor_from_frame

__all__ = [
    "BaseFunction",
    "ExtensionResult",
    "torus_trig",
    "sphere_ambient",
    "extend_by_series",
    "extend_by_series_lanes",
    "extend_by_flow",
    "extend_by_flow_lanes",
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


def _series_coefficients(model, f, points, max_terms):
    """Taylor coefficients of the flow parameter for f composed with the flow, per point.

    Returns one entry per point: its coefficients, or the GrauertError that
    ended its lane (a ChartDomainError when the point lies outside its chart,
    a SingularityError when its series meets a vanishing constant term). The
    points of each chart build their series with one ``_taylor_series`` call,
    and ``f.chart_eval`` runs once on their lane jets, a single lane too.
    """
    groups, errors = _admit(model, points)
    out = [errors.get(i) for i in range(len(points))]
    n = model.dim
    for cid, (idx, q) in groups.items():
        p = np.array([points[i].p for i in idx])

        def build(k):
            coeffs = _taylor_series(model, cid, q[k], p[k], None, 1.0, max_terms)
            lanes = coeffs.transpose(1, 0, 2, 3)
            val = f.chart_eval(cid, [Jet(lanes[i].copy()) for i in range(n)])
            a = np.zeros((len(k), max_terms + 1), dtype=complex)
            if isinstance(val, Jet):
                a[:] = val.c[..., 0, :]
            else:
                a[:, 0] = complex(val)
            return a

        ok, a, broken = _retire_breakdowns(build, len(idx))
        for j, e in broken.items():
            out[idx[j]] = SingularityError(f"{f.name}: {e} at 0", last_good_sigma=0j,
                                           reason="singular series")
        for j, row in zip(ok, () if a is None else a):
            out[idx[j]] = row
    return out


def _then(outcomes, fn):
    """fn of each lane's result; a lane's error, or a GrauertError fn raises, stays its own."""
    out = []
    for x in outcomes:
        if not isinstance(x, Exception):
            try:
                x = fn(x)
            except GrauertError as e:
                x = e
        out.append(x)
    return out


def _sum_series(f, a, max_terms):
    """Sum one lane's coefficients a at parameter i; see :func:`extend_by_series`."""
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


def extend_by_series_lanes(model, f, points, max_terms=DEFAULT_MAX_TERMS):
    """The series route at every point of ``points`` at once, one lane per point.

    Returns one entry per point: its :class:`ExtensionResult`, or the
    :class:`~grauert.errors.GrauertError` that ended its lane. The lanes of
    each chart share one series build and one evaluation of f on their jets;
    each lane sums its own terms, stops early and tests for divergence as
    :func:`extend_by_series` describes.
    """
    return _then(_series_coefficients(model, f, points, max_terms),
                 lambda a: _sum_series(f, a, max_terms))


def extend_by_series(model, f, z):
    """Sum the flow-parameter Taylor series of f at parameter i.

    A one-point read of :func:`extend_by_series_lanes`. Stops early once two
    consecutive terms drop below 1e-15 of the partial sum (two in a row so
    parity-sparse series do not truncate at an accidental zero). Raises
    :class:`DivergenceError` when term magnitudes keep setting new records
    past order 10: with complex or paired singularities the magnitudes
    oscillate while growing, so record highs are the robust growth signal
    rather than consecutive increases. Raises a :class:`SingularityError`
    when the series meets a vanishing constant term.
    """
    return lane_result(extend_by_series_lanes(model, f, [z])[0])


def _flow_value(f, res, tol):
    """f's chart formula at one lane's flow endpoint, inside f's declared strip."""
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


def extend_by_flow_lanes(model, f, points, path=None, tol=DEFAULT_TOL):
    """The flow route at every point of ``points`` at once: one lane-batched flow.

    Returns one entry per point: its :class:`ExtensionResult`, or the
    :class:`~grauert.errors.GrauertError` that ended its lane (its flow's, or
    the margin check's at its endpoint).
    """
    if path is None:
        path = SigmaPath.straight(1j)
    return _then(flow_lanes(model, points, path=path, tol=tol),
                 lambda res: _flow_value(f, res, tol))


def extend_by_flow(model, f, z, path=None):
    """Evaluate f's chart formula at the complex-time-i transport of the base point.

    A one-point read of :func:`extend_by_flow_lanes`. ``path`` defaults to
    the straight segment to i; any endpoint works and gives the continuation
    at that parameter instead.
    """
    return lane_result(extend_by_flow_lanes(model, f, [z], path=path)[0])


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


def crosscheck(model, f, points, tol=DEFAULT_TOL):
    """Run every applicable route at every point and report pairwise deviations.

    Returns one report per point. The series and flow routes each run all
    points as lanes of one batch; the exp-map route runs point by point. A
    failure raises what a point-by-point pass would: the error of the first
    failing point, and for that point the series route's before the flow
    route's.
    """
    series = extend_by_series_lanes(model, f, points)
    flows = extend_by_flow_lanes(model, f, points, tol=tol)
    orc = model.oracle
    exp_route = orc is not None and hasattr(orc, "exp_complex") and f.extension is not None
    reports = []
    for z, s, fl in zip(points, series, flows):
        results = {"series": lane_result(s), "flow": lane_result(fl)}
        if exp_route:
            results["exp_map"] = extend_by_exp(model, f, z)
        pairwise = {
            (m1, m2): abs(results[m1].value - results[m2].value)
            for m1, m2 in combinations(results, 2)
        }
        reports.append({
            "values": {m: r.value for m, r in results.items()},
            "results": results,
            "pairwise": pairwise,
            "max_deviation": max(pairwise.values()),
        })
    return reports


def _derivatives(a, max_order):
    return np.array([math.factorial(k) * a[k] for k in range(max_order + 1)])


def flow_derivative_coefficients(model, f, z, max_order):
    """k-fold derivatives of f along the energy field, k = 0..max_order.

    These are k! times the flow-parameter Taylor coefficients; degree-k
    fiber homogeneity in the momentum is their structural invariant.
    """
    return _derivatives(lane_result(_series_coefficients(model, f, [z], max_order)[0]), max_order)


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
                acc += complex(value(dq[j])) * diff5([inner(q + t * h * ej, p)
                                                      for t in STENCIL], h)
                acc += complex(value(dp[j])) * diff5([inner(q, p + t * h * ej)
                                                      for t in STENCIL], h)
            return acc

        return out

    return make(k)(np.asarray(z.q, dtype=complex), np.asarray(z.p, dtype=complex))


def homogeneity_residuals(model, f, z, c, max_order=8):
    """Relative defect of degree-k momentum homogeneity for each derivative order."""
    scaled = PhasePoint(z.chart_id, z.q, c * z.p)
    base, sc = (_derivatives(lane_result(a), max_order)
                for a in _series_coefficients(model, f, [z, scaled], max_order))
    out = np.empty(max_order + 1)
    for k in range(max_order + 1):
        want = (c**k) * base[k]
        out[k] = abs(sc[k] - want) / max(1.0, abs(want))
    return out


def strip_identity_residual(model, z, sigma, tau):
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
    moved = flow(model, z, sigma=float(sigma)).point
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
    computed structure. The frames of all points come from one
    :class:`~grauert.lagrangian.FrameRays`, and the stencil points of all
    points run as lanes of one call of the chosen route; errors are raised
    in the order a point-by-point pass meets them.
    """
    if method == "series":
        route = lambda pts: extend_by_series_lanes(model, f, pts, max_terms=max_terms)
    elif method == "flow":
        route = lambda pts: extend_by_flow_lanes(model, f, pts, tol=tol)
    else:
        raise ValueError("method must be 'series' or 'flow'")
    n = model.dim
    values = iter(route([w for z in points for w in stencil_points(z, h)]))
    frames = FrameRays(model, points, [1j], tol=tol)
    worst = 0.0
    for k in range(len(points)):
        J = j_tensor_from_frame(frames.at(1j, k))
        grad = np.zeros(2 * n, dtype=complex)
        for a in range(2 * n):
            grad[a] = diff5([lane_result(next(values)).value for _ in STENCIL], h)
        for a in range(2 * n):
            resid = abs(grad[a] + 1j * (grad @ J[:, a]))
            worst = max(worst, resid)
    return worst
