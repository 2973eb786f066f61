"""Built-in model catalog: flat space, flat torus, round sphere, surface of revolution.

Every entry returns a fully wired :class:`~grauert.geometry.MetricModel`. A
model supplies its atlas (chart boxes and transitions) and, per chart, one
evaluator returning the metric and its first derivative, written over the
jets facade so the same closed forms serve real evaluation, holomorphic
extension in the coordinates, and exact differentiation through derivative
channels; everything else is derived from those.

The curved entries are two-dimensional. The sphere carries a two-chart atlas
(spherical coordinates in two frames rotated by a quarter turn about the y
axis, so the coordinate singularities of one chart sit in the deep interior
of the other) with transitions computed through the ambient embedding using
principal inverse branches seeded from the current value. No chart bounds
the imaginary displacement: a continuation runs until the flow's step rule
meets a singularity of the metric closed forms or its real part leaves the
atlas.

Models with a known geodesic flow in closed form also carry an ``oracle``
exposing that flow, the diagonal form of the tangent/normal spreading
matrix, and the analytically continued exponential map where one exists.
These are the reference answers the numerical pipeline is tested against.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import jets
from .errors import InvalidParamsError, UnknownModelError
from .geometry import Chart, MetricModel, metric_inv_matrix, metric_matrix
from .jets import value

__all__ = [
    "catalog",
    "flat_space",
    "flat_torus",
    "round_sphere",
    "surface_of_revolution",
    "SphereEmbedding",
    "FlatOracle",
    "SphereOracle",
]

_SPHERE_FRAMES = {
    "a": np.eye(3),
    # quarter turn about the y axis: pole of chart b sits at world +-x
    "b": np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),
}


# -- embeddings ---------------------------------------------------------------


class SphereEmbedding:
    """Round sphere of radius a in 3-space, one orthonormal frame per chart."""

    def __init__(self, radius):
        self.radius = radius

    def to_world(self, chart_id, qs):
        theta, phi = qs
        st, ct = jets.sincos(theta)
        sp, cp = jets.sincos(phi)
        x = [st * cp, st * sp, ct]
        F = _SPHERE_FRAMES[chart_id]
        return [
            self.radius * (F[k, 0] * x[0] + F[k, 1] * x[1] + F[k, 2] * x[2])
            for k in range(3)
        ]

    def world_to_chart(self, chart_id, w):
        F = _SPHERE_FRAMES[chart_id]
        ws = [
            (F[0, k] * w[0] + F[1, k] * w[1] + F[2, k] * w[2]) / self.radius
            for k in range(3)
        ]
        # theta = -i log(cos theta + i sin theta), not arccos(w2): arccos
        # loses about half the digits of theta where w2 is near +-1
        st = jets.sqrt(ws[0] * ws[0] + ws[1] * ws[1])
        theta = -1j * jets.log(ws[2] + 1j * st)
        u = (ws[0] + 1j * ws[1]) / st
        seed = cmath.phase(complex(value(u)))
        phi = seed - 1j * jets.log(u * cmath.exp(-1j * seed))
        if isinstance(theta, jets.Jet) or isinstance(phi, jets.Jet):
            return [theta, phi]
        return np.array([theta, phi], dtype=complex)

    def transition(self, from_chart, to_chart, qs):
        return self.world_to_chart(to_chart, self.to_world(from_chart, qs))


# -- oracles ------------------------------------------------------------------


class FlatOracle:
    """Closed-form answers for the Euclidean metric (plane or torus alike)."""

    def __init__(self, model):
        self.model = model

    def state_flow(self, chart_id, q, p, sigma):
        q = np.asarray(q, dtype=complex)
        p = np.asarray(p, dtype=complex)
        return chart_id, q + sigma * p, p.copy()

    def f_matrix(self, chart_id, q, p, sigma):
        return sigma * np.eye(self.model.dim, dtype=complex)

    def exp_complex(self, chart_id, q, w):
        return np.asarray(q, dtype=complex) + np.asarray(w, dtype=complex)


def _entire_cos_sinc(s):
    """cos(sqrt(s)) and sin(sqrt(s))/sqrt(s), elementwise; even in sqrt(s), so entire in s."""
    s = np.asarray(s, dtype=complex)
    small = np.abs(s) < 1e-24
    r = np.sqrt(np.where(small, 1.0, s))
    return np.where(small, 1.0 - s / 2.0, np.cos(r)), np.where(small, 1.0 - s / 6.0, np.sin(r) / r)


class SphereOracle:
    """Geodesics, spreading matrix, and complexified exponential on the round sphere."""

    def __init__(self, model):
        self.model = model
        self.radius = model.params["radius"]
        self.emb = model.embedding

    def _push(self, chart_id, q, w):
        """World point of q and image of w there, lanes (..., n) to (..., 3), by one jet pass."""
        qw = np.stack([np.asarray(q, dtype=complex), np.asarray(w, dtype=complex)], -1)
        args = [jets.Jet(c) for c in np.ascontiguousarray(np.moveaxis(qw, -2, 0))[..., None]]
        world = self.emb.to_world(chart_id, args)
        return tuple(np.stack([x.c[..., r, 0] for x in world], -1) for r in (0, 1))

    def _world_state(self, chart_id, q, p):
        q = np.asarray(q, dtype=complex)
        p = np.asarray(p, dtype=complex)
        v = metric_inv_matrix(self.model, chart_id, q) @ p
        return *self._push(chart_id, q, v), p @ v  # third slot: 2E = |v|^2

    def state_flow(self, chart_id, q, p, sigma):
        """(chart, q, p) on the geodesic cos(rho sigma/a) P0 + (a/rho) sin(rho sigma/a) V0.

        Exact in world coordinates only: far off the real slice the principal branches of
        world_to_chart miss (from (1, 0.5), (3, 4), a = 1: 6.4e-2 off at 3i, 1.0 at 10i).
        """
        a = self.radius
        P0, V0, vv = self._world_state(chart_id, q, p)
        rho = np.sqrt(complex(vv))
        c, s = np.cos(rho * sigma / a), np.sin(rho * sigma / a)
        P = c * P0 + (a / rho) * s * V0
        V = -(rho / a) * s * P0 + c * V0
        cid = self._pick_chart(P)
        q_new = self.emb.world_to_chart(cid, P)
        _, J = self._push(cid, [q_new, q_new], np.eye(2))  # row k: the image of e_k
        v_new = np.linalg.lstsq(J.T, V, rcond=None)[0]
        return cid, q_new, metric_matrix(self.model, cid, q_new) @ v_new

    def _pick_chart(self, P):
        best, depth = None, -1.0
        for cid in self.model.charts:
            qc = self.emb.world_to_chart(cid, P)
            d = self.model.chart(cid).depth(np.asarray(qc).real)
            if d > depth:
                best, depth = cid, d
        return best

    def f_matrix(self, chart_id, q, p, sigma):
        """Spreading matrix in the (unit tangent, unit normal) basis: diag(sigma, (a/rho) tan(rho sigma / a))."""
        a = self.radius
        _, _, vv = self._world_state(chart_id, q, p)
        rho = np.sqrt(complex(vv)).real
        return np.diag([sigma, (a / rho) * np.tan(rho * sigma / a)]).astype(complex)

    def f_matrix_at_i(self, chart_id, q, p):
        a = self.radius
        _, _, vv = self._world_state(chart_id, q, p)
        rho = np.sqrt(complex(vv)).real
        return np.diag([1j, 1j * (a / rho) * np.tanh(rho / a)])

    def conjugate_sigma(self, chart_id, q, p):
        """First real flow parameter where nearby geodesics refocus."""
        a = self.radius
        _, _, vv = self._world_state(chart_id, q, p)
        rho = np.sqrt(complex(vv)).real
        return (math.pi / 2.0) * a / rho

    def exp_complex(self, chart_id, q, w):
        """Analytic continuation of the exponential map to complex tangent vectors.

        Returns the ambient quadric point; built from even entire functions
        of the complex squared length, so no branch choice is involved. q and
        w are one point (n,) or lanes of points (..., n); the result is (..., 3).
        """
        a = self.radius
        P0, W = self._push(chart_id, q, w)
        s = (W[..., None, :] @ W[..., :, None])[..., 0, 0] / a**2
        c, snc = _entire_cos_sinc(s)
        return c[..., None] * P0 + snc[..., None] * W


# -- catalog entries ----------------------------------------------------------


def _flat(name, params, lo, hi, periodic):
    dim = len(lo)
    chart = Chart(
        id="main",
        lo=np.asarray(lo, dtype=float),
        hi=np.asarray(hi, dtype=float),
        periodic=np.full(dim, periodic),
    )
    eye = [[1.0 if j == k else 0.0 for k in range(dim)] for j in range(dim)]
    zeros3 = [[[0.0] * dim for _ in range(dim)] for _ in range(dim)]
    model = MetricModel(
        name=name,
        dim=dim,
        params=params,
        charts=[chart],
        default_chart="main",
        metric_fns={"main": lambda qs: (eye, zeros3)},
    )
    model.oracle = FlatOracle(model)
    return model


def flat_space(dim=2):
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidParamsError("flat_space needs a positive integer dim")
    dim = int(dim)
    return _flat("flat_space", {"dim": dim}, [-20.0] * dim, [20.0] * dim, False)


def flat_torus(periods=(2.0 * math.pi, 2.0 * math.pi)):
    periods = tuple(float(p) for p in np.atleast_1d(periods))
    if len(periods) < 1 or not all(0 < p < math.inf for p in periods):
        raise InvalidParamsError("flat_torus needs finite positive periods")
    return _flat("flat_torus", {"periods": periods},
                 [-p / 2.0 for p in periods], [p / 2.0 for p in periods], True)


def round_sphere(radius=1.0, dim=2):
    if dim != 2:
        raise InvalidParamsError("round_sphere is implemented for dim == 2")
    radius = float(radius)
    if not 0 < radius < math.inf:
        raise InvalidParamsError("round_sphere needs a finite radius > 0")
    a2 = radius * radius
    if not 0 < a2 < math.inf:
        # the metric holds radius**2; zero or infinite, every evaluator degenerates
        raise InvalidParamsError(f"round_sphere needs radius**2 positive and finite, got {a2}")
    cut = 0.15

    def metric_fn(qs):
        s, c = jets.sincos(qs[0])
        z = 0.0
        g = [[a2, z], [z, a2 * s * s]]
        dg = [
            [[z, z], [z, 2.0 * a2 * s * c]],
            [[z, z], [z, z]],
        ]
        return g, dg

    charts = [
        Chart(
            id=cid,
            lo=np.array([cut, -math.pi]),
            hi=np.array([math.pi - cut, math.pi]),
            periodic=np.array([False, True]),
        )
        for cid in ("a", "b")
    ]
    model = MetricModel(
        name="round_sphere",
        dim=2,
        params={"radius": radius},
        charts=charts,
        default_chart="a",
        metric_fns={"a": metric_fn, "b": metric_fn},
        # chart changes do not depend on the radius; at radius 1 the
        # embedding's scaling adds no roundoff near the poles
        transition_fn=SphereEmbedding(1.0).transition,
        embedding=SphereEmbedding(radius),
    )
    model.oracle = SphereOracle(model)
    return model


def surface_of_revolution(base=2.0, amp=1.0):
    base, amp = float(base), float(amp)
    if not 0 <= amp < base < math.inf:
        raise InvalidParamsError("surface_of_revolution needs a finite base > amp >= 0")
    # the profile r runs from base - amp to base + amp, and the metric holds r**2
    r_min, r_max = base - amp, base + amp
    if not (r_min * r_min > 0 and r_max * r_max < math.inf):
        raise InvalidParamsError("surface_of_revolution needs (base - amp)**2 positive and "
                                 "(base + amp)**2 finite")

    # profile r(u) = base + amp cos u; metric diag(1 + r'(u)^2, r(u)^2)
    def metric_fn(qs):
        s, c = jets.sincos(qs[0])
        r = base + amp * c
        rp = -amp * s
        rpp = -amp * c
        z = 0.0
        g = [[1.0 + rp * rp, z], [z, r * r]]
        dg = [
            [[2.0 * rp * rpp, z], [z, 2.0 * r * rp]],
            [[z, z], [z, z]],
        ]
        return g, dg

    chart = Chart(
        id="main",
        lo=np.array([-math.pi, -math.pi]),
        hi=np.array([math.pi, math.pi]),
        periodic=np.array([True, True]),
    )
    return MetricModel(
        name="surface_of_revolution",
        dim=2,
        params={"base": base, "amp": amp},
        charts=[chart],
        default_chart="main",
        metric_fns={"main": metric_fn},
    )


_BUILDERS = {
    "flat_space": flat_space,
    "flat_torus": flat_torus,
    "round_sphere": round_sphere,
    "surface_of_revolution": surface_of_revolution,
}


def catalog(name, **params):
    """Build a catalog model by name; unknown names and bad parameters raise."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {sorted(_BUILDERS)}"
        )
    return builder(**params)
