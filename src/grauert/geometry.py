"""Charts, metric models, and pointwise geometric evaluators.

A model is an atlas of box charts plus, per chart, one metric evaluator
written over the generic scalar namespace in :mod:`grauert.jets`: it returns
the metric and its first derivative from one pass over shared intermediates.
The inverse metric, the energy and the Christoffel symbols are derived from
those two. Because the same code path runs on floats, complex numbers, dual
jets, and truncated series, every evaluator is simultaneously a real
evaluator, a holomorphic extension, and a derivative generator. A chart
bounds only the real part of its coordinates; how far a continuation may go
into the imaginary directions is not declared but found by the flow, whose
step rule feels the singularities of the evaluators.

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
    """A box for the real part of the coordinates, with per-axis periodicity.

    The checks and ``wrap`` take one point (n,) or a stack of points (..., n)
    and answer for each point.
    """

    id: str
    lo: np.ndarray
    hi: np.ndarray
    periodic: np.ndarray

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
        return gap.min(axis=-1, where=~self.periodic, initial=1.0)

    def wrap(self, q):
        """Fold the real part of periodic axes back into the box; imaginary parts pass through."""
        q = np.array(q, dtype=complex)
        per = self.periodic
        lo, x = self.lo[per], q[..., per]
        q[..., per] = lo + (x.real - lo) % self.width()[per] + 1j * x.imag
        return q


class MetricModel:
    """Atlas plus one metric evaluator per chart for one catalog entry.

    ``metric_fns`` maps chart ids to functions of a coordinate sequence
    returning ``(g, dg)``, the metric and its first derivative; entries may
    be any scalar the jets facade accepts. The inverse metric is derived from
    ``g`` by Gauss-Jordan elimination over those scalars, in any dimension
    (``_inverse``): plain zeros are skipped and plain entries stay plain.
    ``evaluator_key`` maps each chart id to the id of the first chart with
    the same function object; one evaluation serves all charts of one key.
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
        self.evaluator_key = {c: next(d for d in self.charts if metric_fns[d] is metric_fns[c])
                              for c in self.charts}
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

    def has_transitions(self):
        return self._transition is not None and len(self.charts) > 1

    # -- evaluators ---------------------------------------------------------
    def metric(self, chart_id, q):
        """(g, g^-1, dg) at q from one call of the chart's evaluator."""
        g, dg = self._metric[chart_id](q)
        return g, _inverse(g), dg

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


def _inverse(g):
    """Inverse of the square matrix ``g`` (nested lists) of generic scalars.

    Gauss-Jordan elimination in place, without pivoting, on plain numbers,
    lane arrays and jets alike. Every product or difference with a plain
    zero is skipped, so a diagonal g costs one reciprocal per diagonal entry
    and no product, a plain entry stays plain and a plain zero stays a plain
    zero. The pivots are the ratios of successive leading principal minors,
    positive on the real slice for a metric. A pivot that is a series with
    vanishing constant term gives a non-finite inverse in its lane, the
    flow's "non-finite series", as a vanishing determinant does; off the real
    slice a pivot of a non-diagonal g can vanish where the determinant does
    not.
    """
    n = len(g)
    a = [list(row) for row in g]
    for k in range(n):
        r = a[k][k].reciprocal() if isinstance(a[k][k], jets.Jet) else 1.0 / a[k][k]
        a[k][k] = r
        cols = [j for j in range(n) if j != k and not is_plain_zero(a[k][j])]
        for j in cols:
            a[k][j] = a[k][j] * r
        for i in range(n):
            f = a[i][k]
            if i == k or is_plain_zero(f):
                continue
            for j in cols:
                a[i][j] = a[i][j] - f * a[k][j]
            a[i][k] = -f * r
    return a


def _metric_rows(model, chart_id, q, which):
    """Entry ``which`` of ``model.metric`` at one point q (n,) or lanes of points (lanes, n)."""
    q = np.asarray(q)
    rows = model.metric(chart_id, list(q.T))[which]
    out = np.empty(q.shape[:-1] + (len(rows), len(rows)), dtype=complex)
    for j, row in enumerate(rows):
        for k, x in enumerate(row):
            out[..., j, k] = value(x)
    return out


def metric_matrix(model, chart_id, q):
    return _metric_rows(model, chart_id, q, 0)


def metric_inv_matrix(model, chart_id, q):
    return _metric_rows(model, chart_id, q, 1)


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
    series-axis seeding, one pass per coordinate, so the transported jacobian
    stays symplectic to machine precision; the first pass also gives T(q) and
    M at order 0, so a jacobian costs n evaluations of T and a point alone 1.
    """
    n = model.dim
    q = np.asarray(q, dtype=complex)
    p = np.asarray(p, dtype=complex)
    fn = lambda qs: model.transition_coords(from_chart, to_chart, qs)
    if jac is None:
        q_new, M = push_through(fn, q, np.eye(n))
        return q_new, np.linalg.inv(M).T @ p, None
    # coefficient [a, 1 + c, 1] of pass b is d^2 T_a / dq_c dq_b
    passes = []
    for b in range(n):
        args = []
        for i in range(n):
            c = np.zeros((1 + n, 2), dtype=complex)
            c[0, 0] = q[i]
            c[0, 1] = 1.0 if i == b else 0.0  # series direction e_b
            c[1 + i, 0] = 1.0
            args.append(jets.Jet(c))
        passes.append(np.array([x.c for x in fn(args)]))
    q_new, M = passes[0][:, 0, 0], passes[0][:, 1:, 0]
    MinvT = np.linalg.inv(M).T
    p_new = MinvT @ p
    S = np.zeros((2 * n, 2 * n), dtype=complex)
    S[:n, :n] = M
    S[n:, n:] = MinvT
    for b, c in enumerate(passes):
        # d p'_a / dq_b = -[Minv.T dMb.T Minv.T p]_a with dMb[a, c] = d^2 T_a / dq_c dq_b
        S[n:, b] = -MinvT @ c[:, 1:, 1].T @ p_new
    return q_new, p_new, S @ jac
