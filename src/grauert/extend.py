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

Every route takes batches. ``extend_by_series_lanes`` builds the series of
all points in a chart with one series call and evaluates f once on their lane
jets, ``extend_by_flow_lanes`` sends all points to time i in one
:func:`~grauert.flow.flow_lanes` call, and ``extend_by_exp_lanes`` makes one
oracle call per chart and evaluates the extension once on its lane arrays.
Each lane keeps its own checks and error; the one-point routes are reads of
these, and no route is merged into another.

Pairwise agreement of the routes is the practical certificate that the
extension exists at the sampled points; ``crosscheck`` packages that for a
batch of points.

Functions are declared, not sniffed: the constructors build evaluators from
structured coefficient data (trigonometric frequency tables, ambient linear
forms) whose analyticity is a property of the formula. A raw-callable escape
hatch exists: build a :class:`BaseFunction` from chart evaluators directly.
The caller then owns the analyticity claim and must declare the strip on
which it holds as its ``margin``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from . import jets
from .errors import ChartDomainError, DivergenceError, GrauertError, SingularityError
from .errors import UnsupportedModelError
from .flow import DEFAULT_TOL, SigmaPath, flow_lanes, lane_result
from .flow import _admit, _lane_series
from .geometry import metric_inv_matrix
from .jets import Jet, value

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
    "extend_by_exp_lanes",
    "crosscheck",
]

DEFAULT_MAX_TERMS = 40

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@dataclass(frozen=True)
class BaseFunction:
    """A function of position with a holomorphic chart representation.

    ``chart_fns`` maps chart id to an evaluator over generic scalars (floats,
    complex numbers, jets all work); ``margin`` is the half-width of the
    imaginary strip per coordinate on which the formulas stay holomorphic;
    ``extension`` is an optional closed form on the complexified model. It
    takes lane arrays: a sequence of coordinates, each an array with one
    complex value per lane (chart coordinates on flat models, ambient ones on
    embedded models), and returns one value per lane or a constant.
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

    # on a flat model the complexified coordinates are the chart's own
    return BaseFunction(name=name, chart_fns={"main": ev}, extension=ev)


def sphere_ambient(model, name, coeffs, offset=0.0):
    """Affine function of the ambient coordinates restricted to the sphere."""
    c = np.asarray(coeffs, dtype=complex)
    emb = model.embedding

    def ambient(w):
        return c[0] * w[0] + c[1] * w[1] + c[2] * w[2] + offset

    def make(cid):
        return lambda qs: ambient(emb.to_world(cid, qs))

    return BaseFunction(
        name=name,
        chart_fns={cid: make(cid) for cid in model.charts},
        extension=ambient,
    )


def _series_coefficients(model, f, points, max_terms):
    """Taylor coefficients of the flow parameter for f composed with the flow, per point.

    Returns one entry per point: its coefficients, or the GrauertError that
    ended its lane (a ChartDomainError when the point lies outside its chart,
    a SingularityError when its state or value series is not finite, as a
    vanishing constant term of a reciprocal, log or sqrt makes it). The
    points of each chart build their series with one ``_lane_series`` call,
    and ``f.chart_eval`` runs once on their lane jets, a single lane too.
    """
    groups, errors = _admit(model, points)
    out = [errors.get(i) for i in range(len(points))]
    n = model.dim
    for cid, (idx, q) in groups.items():
        p = np.array([points[i].p for i in idx])
        coeffs, finite = _lane_series(model, cid, q, p, None, 1.0, max_terms)
        lanes = coeffs.transpose(1, 0, 2, 3)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = f.chart_eval(cid, [Jet(lanes[i].copy()) for i in range(n)])
        a = np.zeros((len(idx), max_terms + 1), dtype=complex)
        if isinstance(val, Jet):
            a[:] = val.c[..., 0, :]
        else:
            a[:, 0] = complex(val)
        finite &= np.isfinite(a).all(axis=1)
        for i, row, fin in zip(idx, a, finite):
            out[i] = row if fin else SingularityError(
                f"{f.name}: non-finite series at 0", last_good_sigma=0j,
                reason="non-finite series")
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
    when the state or value series is not finite (a vanishing constant term
    of a reciprocal, log or sqrt, or an overflow).
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


def extend_by_exp_lanes(model, f, points):
    """The exp-map route at every point of ``points`` at once, one lane per point.

    Returns one entry per point: its :class:`ExtensionResult`, or the
    :class:`~grauert.errors.ChartDomainError` of a point outside its chart's
    box or in no chart of the model. The points are admitted as the other
    routes admit them, and the points of each chart share one evaluation of
    g^-1, one call of the oracle's ``exp_complex`` and one of ``f.extension``.
    """
    orc = model.oracle
    if orc is None or not hasattr(orc, "exp_complex"):
        raise UnsupportedModelError(f"{model.name} has no closed-form exponential map")
    if f.extension is None:
        raise UnsupportedModelError(f"{f.name} declares no closed-form extension")
    groups, errors = _admit(model, points)
    out = [errors.get(i) for i in range(len(points))]
    for cid, (idx, q) in groups.items():
        p = np.array([points[i].p for i in idx])
        v = (metric_inv_matrix(model, cid, q) @ p[:, :, None])[:, :, 0]
        targets = orc.exp_complex(cid, q, 1j * v)
        values = np.broadcast_to(f.extension(list(targets.T)), len(idx))
        for i, target, val in zip(idx, targets, values):
            out[i] = ExtensionResult(value=complex(val), method="exp_map",
                                     error_estimate=0.0, diagnostics={"target": target})
    return out


def extend_by_exp(model, f, z):
    """Closed-form route: the declared extension at the continued exponential map, one point."""
    return lane_result(extend_by_exp_lanes(model, f, [z])[0])


def crosscheck(model, f, points, tol=DEFAULT_TOL):
    """Run every applicable route at every point and report pairwise deviations.

    Returns one report per point. Each route runs all points as lanes of one
    batch. A failure raises what a point-by-point pass would: the error of
    the first failing point, and for that point the series route's before the
    flow route's. The exp-map route runs once those two have passed at every
    point, so its arithmetic never meets a point they reject.
    """
    series = extend_by_series_lanes(model, f, points)
    flows = extend_by_flow_lanes(model, f, points, tol=tol)
    results = [{"series": lane_result(s), "flow": lane_result(fl)} for s, fl in zip(series, flows)]
    try:
        exps = extend_by_exp_lanes(model, f, points)
    except UnsupportedModelError:
        exps = ()
    for res, ex in zip(results, exps):
        res["exp_map"] = lane_result(ex)
    reports = []
    for res in results:
        pairwise = {(m1, m2): abs(res[m1].value - res[m2].value) for m1, m2 in combinations(res, 2)}
        reports.append({"values": {m: r.value for m, r in res.items()}, "results": res,
                        "pairwise": pairwise, "max_deviation": max(pairwise.values())})
    return reports
