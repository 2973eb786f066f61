"""Charts, metric models, and pointwise geometric evaluators.

A model is an atlas of box charts plus, per chart, the metric and its first
derivative written over the generic scalar namespace in :mod:`grauert.jets`;
the inverse metric, the energy and the Christoffel symbols are derived from
those two. Because the same code path runs on floats, complex numbers, dual
jets, and truncated series, every evaluator is simultaneously a real
evaluator, a holomorphic extension, and a derivative generator. Each chart
declares how far into the imaginary directions its evaluators remain
trustworthy (the margin); leaving the margin is a domain error, not a
numerical accident.

Index conventions used throughout:

* ``g(chart, q)[j][k]`` is the metric g_jk, ``ginv`` its inverse g^jk,
* ``dg(chart, q)[l][j][k]`` is the partial derivative d g_jk / d q^l,
* ``christoffel(...)[i][j][k]`` is Gamma^i_jk.

Phase-space conventions: momenta are covectors, the canonical one-form is
p dq, the symplectic form acts as omega(a + b, a' + b') = a.b' - b.a' on
(dq, dp) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ChartDomainError
from .jets import value

__all__ = [
    "Chart",
    "MetricModel",
    "energy",
    "christoffel",
    "metric_matrix",
    "metric_inv_matrix",
    "transition_phase",
    "push_through",
]


@dataclass(frozen=True)
class Chart:
    """A coordinate box with per-axis periodicity and imaginary margins."""

    id: str
    lo: np.ndarray
    hi: np.ndarray
    periodic: np.ndarray
    margin: np.ndarray
    safe_frac: float = 0.8

    @property
    def dim(self):
        return self.lo.shape[0]

    def width(self):
        return self.hi - self.lo

    def contains_re(self, q_re, slack=0.0):
        ok = True
        for i in range(self.dim):
            if self.periodic[i]:
                continue
            ok = ok and (self.lo[i] - slack <= q_re[i] <= self.hi[i] + slack)
        return ok

    def in_safe_interior(self, q_re):
        pad = 0.5 * (1.0 - self.safe_frac) * self.width()
        for i in range(self.dim):
            if self.periodic[i]:
                continue
            if not (self.lo[i] + pad[i] <= q_re[i] <= self.hi[i] - pad[i]):
                return False
        return True

    def depth(self, q_re):
        """Normalized distance of the real part to the box boundary (periodic axes ignored)."""
        d = 1.0
        for i in range(self.dim):
            if self.periodic[i]:
                continue
            w = self.hi[i] - self.lo[i]
            d = min(d, (q_re[i] - self.lo[i]) / w, (self.hi[i] - q_re[i]) / w)
        return d

    def margin_ok(self, q_im, factor=1.0):
        return bool(np.all(np.abs(q_im) <= factor * self.margin))

    def wrap(self, q):
        """Fold the real part of periodic axes back into the box; imaginary parts pass through."""
        q = np.asarray(q, dtype=complex).copy()
        for i in range(self.dim):
            if self.periodic[i]:
                w = self.hi[i] - self.lo[i]
                q[i] = self.lo[i] + (q[i].real - self.lo[i]) % w + 1j * q[i].imag
        return q


class MetricModel:
    """Atlas plus metric evaluators for one catalog entry.

    ``g_fns`` and ``dg_fns`` map chart ids to functions of a coordinate
    sequence returning the metric and its first derivative; entries may be
    any scalar the jets facade accepts. The inverse metric is derived from
    ``g``: by the adjugate on two-dimensional charts, which works on plain
    numbers and jets alike, and by ``numpy.linalg.inv`` on plain numbers in
    other dimensions.
    """

    def __init__(
        self,
        name,
        dim,
        params,
        charts,
        default_chart,
        g_fns,
        dg_fns,
        transition_fn=None,
        embedding=None,
        oracle=None,
    ):
        self.name = name
        self.dim = dim
        self.params = dict(params)
        self.charts = {c.id: c for c in charts}
        self.default_chart = default_chart
        self._g = g_fns
        self._dg = dg_fns
        self._transition = transition_fn
        self.embedding = embedding
        self.oracle = oracle

    # -- chart plumbing ----------------------------------------------------
    def chart(self, chart_id):
        try:
            return self.charts[chart_id]
        except KeyError:
            raise ChartDomainError(f"model {self.name!r} has no chart {chart_id!r}", chart_id)

    def require_inside(self, chart_id, q, slack=0.0, margin_factor=1.0):
        ch = self.chart(chart_id)
        q = np.asarray(q, dtype=complex)
        if not ch.contains_re(q.real, slack=slack):
            raise ChartDomainError(
                f"real part {q.real} outside chart {chart_id!r} box of {self.name}",
                chart_id,
                q,
            )
        if not ch.margin_ok(q.imag, factor=margin_factor):
            raise ChartDomainError(
                f"imaginary part {q.imag} exceeds chart {chart_id!r} margin {ch.margin}",
                chart_id,
                q,
            )

    def has_transitions(self):
        return self._transition is not None and len(self.charts) > 1

    # -- evaluators ---------------------------------------------------------
    def g(self, chart_id, q):
        return self._g[chart_id](q)

    def ginv(self, chart_id, q):
        g = self.g(chart_id, q)
        if self.dim != 2:
            return np.linalg.inv(np.array(g, dtype=complex)).tolist()
        (a, b), (c, d) = g
        det = a * d - b * c
        r = det.reciprocal() if isinstance(det, jets.Jet) else 1.0 / det
        return [[d * r, -b * r], [-c * r, a * r]]

    def dg(self, chart_id, q):
        return self._dg[chart_id](q)

    def transition_coords(self, from_chart, to_chart, q_scalars):
        if self._transition is None:
            raise ChartDomainError(f"model {self.name!r} has a single chart", from_chart)
        return self._transition(from_chart, to_chart, q_scalars)

    def best_chart(self, chart_id, q):
        """Chart whose box holds the real part of q most deeply; ties keep current."""
        if not self.has_transitions():
            return chart_id
        q = np.asarray(q, dtype=complex)
        best, best_depth = chart_id, self.chart(chart_id).depth(q.real)
        for cid in self.charts:
            if cid == chart_id:
                continue
            q_new = np.array(
                [value(x) for x in self.transition_coords(chart_id, cid, list(q))],
                dtype=complex,
            )
            d = self.chart(cid).depth(q_new.real)
            if d > best_depth + 0.05:
                best, best_depth = cid, d
        return best


# -- pointwise operations ---------------------------------------------------


def metric_matrix(model, chart_id, q):
    rows = model.g(chart_id, list(q))
    return np.array([[value(x) for x in row] for row in rows], dtype=complex)


def metric_inv_matrix(model, chart_id, q):
    rows = model.ginv(chart_id, list(q))
    return np.array([[value(x) for x in row] for row in rows], dtype=complex)


def energy(model, chart_id, q, p, check_domain=True):
    """Fiberwise quadratic energy (half the squared momentum norm)."""
    if check_domain:
        model.require_inside(chart_id, q)
    gi = model.ginv(chart_id, list(q))
    n = model.dim
    acc = 0.0
    for j in range(n):
        for k in range(n):
            acc = acc + gi[j][k] * p[j] * p[k]
    return 0.5 * acc


def christoffel(model, chart_id, q):
    """Levi-Civita symbols Gamma^i_jk from the closed-form metric derivatives."""
    n = model.dim
    gi = model.ginv(chart_id, list(q))
    dg = model.dg(chart_id, list(q))
    out = []
    for i in range(n):
        row_i = []
        for j in range(n):
            row_j = []
            for k in range(n):
                acc = 0.0
                for l in range(n):
                    acc = acc + gi[i][l] * (dg[j][l][k] + dg[k][j][l] - dg[l][j][k])
                row_j.append(0.5 * acc)
            row_i.append(row_j)
        out.append(row_i)
    return out


def push_through(fn, q, vectors):
    """Differential of a coordinate map applied to given tangent vectors.

    ``fn`` maps a scalar sequence to a scalar sequence; derivative channels
    carry the pushforward. Returns (values, pushed) as complex arrays, with
    pushed[:, a] the image of vectors[:, a].
    """
    q = np.asarray(q, dtype=complex)
    vecs = np.asarray(vectors, dtype=complex)
    if vecs.ndim == 1:
        vecs = vecs[:, None]
    n, m = vecs.shape
    args = []
    for i in range(n):
        c = np.zeros((1 + m, 1), dtype=complex)
        c[0, 0] = q[i]
        c[1:, 0] = vecs[i, :]
        args.append(jets.Jet(c))
    out = fn(args)
    vals = np.array([value(x) for x in out], dtype=complex)
    pushed = np.array(
        [x.c[1:, 0] if isinstance(x, jets.Jet) else np.zeros(m, dtype=complex) for x in out]
    )
    return vals, pushed


def transition_phase(model, from_chart, to_chart, q, p, jac=None):
    """Re-express a phase point (and optionally a tracked jacobian) in another chart.

    Coordinates map by the holomorphic transition T, momenta by the inverse
    transpose of its derivative M = dT/dq (the cotangent lift), and a tracked
    jacobian by the full phase-space derivative of the lift. The second
    derivatives of T needed for the momentum row are extracted exactly by
    series-axis seeding, so the transported jacobian stays symplectic to
    machine precision.
    """
    n = model.dim
    q = np.asarray(q, dtype=complex)
    p = np.asarray(p, dtype=complex)
    fn = lambda qs: model.transition_coords(from_chart, to_chart, qs)
    q_new, M = push_through(fn, q, np.eye(n))
    Minv = np.linalg.inv(M)
    p_new = Minv.T @ p
    if jac is None:
        return q_new, p_new, None
    # dM[b][a][c] = d^2 T_a / dq_c dq_b via one series pass per direction b
    S = np.zeros((2 * n, 2 * n), dtype=complex)
    S[:n, :n] = M
    S[n:, n:] = Minv.T
    for b in range(n):
        args = []
        for i in range(n):
            c = np.zeros((1 + n, 2), dtype=complex)
            c[0, 0] = q[i]
            c[0, 1] = 1.0 if i == b else 0.0  # series direction e_b
            c[1 + i, 0] = 1.0
            args.append(jets.Jet(c))
        out = fn(args)
        dMb = np.array([x.c[1:, 1] for x in out])  # dMb[a, c] = d^2 T_a / dq_c dq_b
        # d p'_a / dq_b = -[Minv.T dMb.T Minv.T p]_a
        S[n:, b] = -Minv.T @ dMb.T @ (Minv.T @ p)
    return q_new, p_new, S @ jac
