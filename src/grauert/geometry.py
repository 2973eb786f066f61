"""Charts, metric models, and pointwise geometric evaluators.

A model is an atlas of box charts plus, per chart, one metric evaluator
written over the generic scalar namespace in :mod:`grauert.jets`: it returns
the metric and its first derivative from one pass over shared intermediates.
The inverse metric, the energy and the Christoffel symbols are derived from
those two. Because the same code path runs on floats, complex numbers, dual
jets, and truncated series, every evaluator is simultaneously a real
evaluator, a holomorphic extension, and a derivative generator. Each chart
declares how far into the imaginary directions its evaluators remain
trustworthy (the margin); leaving the margin is a domain error, not a
numerical accident.

Index conventions used throughout, with ``g, ginv, dg = model.metric(chart, q)``:

* ``g[j][k]`` is the metric g_jk, ``ginv[j][k]`` its inverse g^jk,
* ``dg[l][j][k]`` is the partial derivative d g_jk / d q^l,
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
from .jets import is_plain_zero, value

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

# central fraction of a chart box, per axis, inside which a flow keeps its chart
SAFE_FRAC = 0.8


@dataclass(frozen=True)
class Chart:
    """A coordinate box with per-axis periodicity and imaginary margins."""

    id: str
    lo: np.ndarray
    hi: np.ndarray
    periodic: np.ndarray
    margin: np.ndarray

    @property
    def dim(self):
        return self.lo.shape[0]

    def width(self):
        return self.hi - self.lo

    def contains_re(self, q_re):
        return self.depth(q_re) >= 0

    def in_safe_interior(self, q_re):
        return self.depth(q_re) >= 0.5 * (1.0 - SAFE_FRAC)

    def depth(self, q_re):
        """Normalized distance of the real part to the box boundary (periodic axes ignored)."""
        gap = np.minimum(q_re - self.lo, self.hi - q_re) / self.width()
        return gap.min(where=~self.periodic, initial=1.0)

    def margin_ok(self, q_im):
        return bool(np.all(np.abs(q_im) <= self.margin))

    def wrap(self, q):
        """Fold the real part of periodic axes back into the box; imaginary parts pass through."""
        q = np.asarray(q, dtype=complex).copy()
        for i in range(self.dim):
            if self.periodic[i]:
                w = self.hi[i] - self.lo[i]
                q[i] = self.lo[i] + (q[i].real - self.lo[i]) % w + 1j * q[i].imag
        return q


class MetricModel:
    """Atlas plus one metric evaluator per chart for one catalog entry.

    ``metric_fns`` maps chart ids to functions of a coordinate sequence
    returning ``(g, dg)``, the metric and its first derivative; entries may
    be any scalar the jets facade accepts. The inverse metric is derived from
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
        metric_fns,
        transition_fn=None,
        embedding=None,
    ):
        self.name = name
        self.dim = dim
        self.params = dict(params)
        self.charts = {c.id: c for c in charts}
        self.default_chart = default_chart
        self._metric = metric_fns
        self._transition = transition_fn
        self.embedding = embedding
        # closed-form reference answers; the catalog sets one where it has them
        self.oracle = None

    # -- chart plumbing ----------------------------------------------------
    def chart(self, chart_id):
        try:
            return self.charts[chart_id]
        except KeyError:
            raise ChartDomainError(f"model {self.name!r} has no chart {chart_id!r}", chart_id)

    def require_inside(self, chart_id, q):
        ch = self.chart(chart_id)
        q = np.asarray(q, dtype=complex)
        if not ch.contains_re(q.real):
            raise ChartDomainError(
                f"real part {q.real} outside chart {chart_id!r} box of {self.name}",
                chart_id,
                q,
            )
        if not ch.margin_ok(q.imag):
            raise ChartDomainError(
                f"imaginary part {q.imag} exceeds chart {chart_id!r} margin {ch.margin}",
                chart_id,
                q,
            )

    def has_transitions(self):
        return self._transition is not None and len(self.charts) > 1

    # -- evaluators ---------------------------------------------------------
    def metric(self, chart_id, q):
        """(g, g^-1, dg) at q from one call of the chart's evaluator."""
        g, dg = self._metric[chart_id](q)
        if self.dim != 2:
            return g, np.linalg.inv(np.array(g, dtype=complex)).tolist(), dg
        (a, b), (c, d) = g
        det = a * d - b * c
        r = det.reciprocal() if isinstance(det, jets.Jet) else 1.0 / det
        off = lambda x: 0.0 if is_plain_zero(x) else -x * r
        return g, [[d * r, off(b)], [off(c), a * r]], dg

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
    rows, _, _ = model.metric(chart_id, list(q))
    return np.array([[value(x) for x in row] for row in rows], dtype=complex)


def metric_inv_matrix(model, chart_id, q):
    _, rows, _ = model.metric(chart_id, list(q))
    return np.array([[value(x) for x in row] for row in rows], dtype=complex)


def energy(model, chart_id, q, p):
    """Fiberwise quadratic energy (half the squared momentum norm).

    The entries of q and p may be numbers, jets, or arrays holding one value
    per lane. q is not checked against the chart: the flow kernel checks its
    lanes' states itself.
    """
    _, gi, _ = model.metric(chart_id, list(q))
    n = model.dim
    acc = 0.0
    for j in range(n):
        for k in range(n):
            acc = acc + gi[j][k] * p[j] * p[k]
    return 0.5 * acc


def christoffel(model, chart_id, q):
    """Levi-Civita symbols Gamma^i_jk from the closed-form metric derivatives."""
    n = model.dim
    _, gi, dg = model.metric(chart_id, list(q))
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
    carry the pushforward of the (n, m) block ``vectors``. Returns (values,
    pushed) as complex arrays, with pushed[:, a] the image of vectors[:, a].
    """
    q = np.asarray(q, dtype=complex)
    vecs = np.asarray(vectors, dtype=complex)
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
