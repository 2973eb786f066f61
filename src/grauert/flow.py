"""Geodesic flow at complex time by Taylor continuation along paths in the time plane.

The generator is the Hamiltonian vector field of the fiberwise quadratic
energy, X(q, p) = (dE/dp, -dE/dq). Real time gives the geodesic flow; the
adapted structure comes from following the same field along paths that leave
the real axis. A path is piecewise linear in the complex time parameter, and
on each leg the trajectory solves dz/dt = u X(z) with u the unit leg
direction, t arc length.

Each step builds the Taylor series of the solution at the current state by
Newton doubling (Brent-Kung): one field evaluation in truncated series
arithmetic on the coefficients known so far gives the field's series and its
jacobian series along them, and a linear recurrence in those doubles the
number of known coefficients. The metric depends on q alone, so only the n
position coordinates carry derivative channels, seeded with the identity:
they give the q-columns of the jacobian, and its p-columns come by the chain
rule through dq = g^-1 p, as products of value series; a state-only pass
computes only the orders of the jacobian it reads. An order-16 step takes
4 field evaluations (5 with the jacobian), not 16. The step size comes from
the tail of the computed series, so a shrinking radius of convergence is felt
directly: when the admissible step falls below the floor the flow reports a
singularity with the last trustworthy time. No chart bounds the imaginary
part of the state: the breakdowns of :func:`flow_lanes` find where it stops.

With ``variational=True`` the series of the phase-space jacobian of the flow
map follows from the field's jacobian series by the linear recurrence of
the first variational equation, so the jacobian is transported exactly
alongside the state, through chart transitions included.

There is one flow kernel, :func:`flow_lanes`, which integrates a batch of
trajectories as lanes (the batch mode of Taylor integrators such as heyoka,
Biscani and Izzo, MNRAS 2021). The state of a batch is held as arrays over
its lanes: phase point, jacobian, place on the path, chart and step counts.
The jets carry a leading lane axis, so one field evaluation builds the
series of every lane on one metric evaluator, whatever its chart, and the
state update and the wrap and box checks run as array operations on them.
The step rule takes its powers on Python floats, one lane at a time, since
numpy's array power can differ from the scalar one in the last bit. Each
lane keeps its own step size, chart and dense output (its accepted step
polynomials), and leaves the batch when it finishes or breaks down. Beyond
the step rule and its dense output, Python runs for a single lane only at
its events: a breakdown, whose :class:`SingularityError` takes the lane's
dense output, and a step out of its chart's safe interior, where it may
change chart.
:func:`flow` is a one-lane call of the kernel.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartDomainError, GrauertError, SingularityError
from .geometry import energy, transition_phase
from .jets import Jet, eval_poly, is_plain_zero

__all__ = [
    "PhasePoint",
    "SigmaPath",
    "Segment",
    "FlowDiagnostics",
    "FlowResult",
    "segment_at",
    "stencil_points",
    "diff5",
    "hamiltonian_vector_field",
    "flow",
    "flow_lanes",
    "lane_result",
]

STEP_FLOOR = 1e-8
MAX_STEPS = 10000
SAFETY = 0.8
DEFAULT_ORDER = 16
DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class PhasePoint:
    chart_id: str
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=complex))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=complex))

    @property
    def dim(self):
        return self.q.shape[0]


@dataclass(frozen=True)
class SigmaPath:
    """Piecewise-linear path in the complex time plane, starting at 0."""

    waypoints: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=complex)
        if w.ndim != 1 or w.shape[0] < 2 or w[0] != 0:
            raise ValueError("path needs waypoints starting at 0")
        object.__setattr__(self, "waypoints", w)

    @classmethod
    def straight(cls, sigma):
        return cls(np.array([0.0, sigma], dtype=complex))

    @classmethod
    def via(cls, *waypoints):
        return cls(np.array([0.0, *waypoints], dtype=complex))

    @property
    def endpoint(self):
        return self.waypoints[-1]


@dataclass(frozen=True)
class Segment:
    """One accepted step: state series valid for local parameter in [0, dt]."""

    chart_id: str
    sigma0: complex
    direction: complex
    dt: float
    t0_global: float
    coeffs: np.ndarray  # (2n, R, order+1)

    def state_at(self, t_local):
        out = eval_poly(self.coeffs, t_local)
        n = out.shape[0] // 2
        return out[:n, 0], out[n:, 0]


@dataclass
class FlowDiagnostics:
    steps: int = 0
    transitions: int = 0
    min_step: float = np.inf
    energy_initial: complex = 0.0
    energy_final: complex = 0.0

    @property
    def energy_drift(self):
        return abs(self.energy_final - self.energy_initial)


@dataclass
class FlowResult:
    point: PhasePoint
    sigma: complex
    jacobian: np.ndarray | None
    diagnostics: FlowDiagnostics
    segments: list = field(default_factory=list)

    def sample(self, num):
        """num states evenly spaced in arc length along the whole path."""
        if not self.segments:
            raise ValueError("the flow took no step")
        total = self.segments[-1].t0_global + self.segments[-1].dt
        out = []
        for t in np.linspace(0.0, total, num):
            seg, tl = segment_at(self.segments, t)
            q, p = seg.state_at(tl)
            out.append((seg.sigma0 + seg.direction * tl, PhasePoint(seg.chart_id, q, p)))
        return out


# offsets of the five-point stencil in units of its step h (the centre left out)
STENCIL = (2.0, 1.0, -1.0, -2.0)


def stencil_points(z, h):
    """The 4 * 2n points z + t h e_a of a five-point stencil around the phase point z.

    Coordinate by coordinate (q, then p), and for each at t = 2, 1, -1, -2.
    """
    n = z.dim
    out = []
    for a in range(2 * n):
        e = np.zeros(2 * n)
        e[a] = h
        out += [PhasePoint(z.chart_id, z.q + t * e[:n], z.p + t * e[n:]) for t in STENCIL]
    return out


def diff5(values, h):
    """Five-point central difference of step h from the values at 2h, h, -h, -2h."""
    at2, at1, atm1, atm2 = values
    return (-at2 + 8 * at1 - 8 * atm1 + atm2) / (12 * h)


def segment_at(segments, t):
    """The dense-output segment holding arc length t, and t's local parameter on it.

    At a step boundary the earlier segment is taken; t outside the covered
    arc length is clamped to it.
    """
    k = bisect.bisect_left(segments, t, key=lambda s: s.t0_global + s.dt + 1e-14)
    seg = segments[min(k, len(segments) - 1)]
    return seg, min(max(t - seg.t0_global, 0.0), seg.dt)


def hamiltonian_vector_field(model, chart_id, qs, ps):
    """(dq, dp) components of the energy field over generic scalars.

    dq = g^-1 p and dp_l = 1/2 v^T (d_l g) v with v = dq, which equals
    -1/2 p^T (d_l g^-1) p, so only the metric and its derivative are needed.
    """
    _, gi, dg = model.metric(chart_id, qs)
    return _field_from_metric(gi, dg, ps)


def _field_from_metric(gi, dg, ps):
    """(dq, dp) of the energy field from g^-1, dg and p: the one place the field is written.

    Terms whose metric factor is a plain (non-jet) zero are skipped: they are
    exact zeros, and most entries of dg are.
    """
    n = len(ps)
    dq = []
    for j in range(n):
        acc = 0.0
        for k in range(n):
            if not is_plain_zero(gi[j][k]):
                acc = acc + gi[j][k] * ps[k]
        dq.append(acc)
    dp = []
    for l in range(n):
        acc = 0.0
        for j in range(n):
            for k in range(n):
                if not is_plain_zero(dg[l][j][k]):
                    acc = acc + dg[l][j][k] * dq[j] * dq[k]
        dp.append(0.5 * acc)
    return dq, dp


def _value_series(x, orders):
    """A jet's value series to ``orders`` orders, without channels; a plain number as itself."""
    return Jet(x.c[..., :1, :orders]) if isinstance(x, Jet) else x


def _momentum_columns(gi, dg, dq, orders):
    """d(dq, dp)/dp as value series, by the chain rule through dq = g^-1 p.

    d dq_j / d p_m = g^jm, and from dp_l = 1/2 sum_jk dg_ljk dq_j dq_k,
    d dp_l / d p_m = 1/2 sum_jk dg_ljk (g^jm dq_k + dq_j g^km)
                   = 1/2 sum_j t_lj g^jm,  t_lj = sum_k (dg_ljk + dg_lkj) dq_k.
    This is exact for the field as written, whether or not dg is the
    derivative of g; it does not use dp_p = -(dq_q)^T, which assumes it is.
    Returns the 2n rows of the (2n, n) block, entries jets or plain numbers.
    """
    n = len(dq)
    gv = [[_value_series(x, orders) for x in row] for row in gi]
    qv = [_value_series(x, orders) for x in dq]
    rows = []
    for l in range(n):
        t = []
        for j in range(n):
            acc = 0.0
            for k in range(n):
                d = _value_series(dg[l][j][k], orders) + _value_series(dg[l][k][j], orders)
                if not is_plain_zero(d):
                    acc = acc + d * qv[k]
            t.append(acc)
        row = []
        for m in range(n):
            acc = 0.0
            for j in range(n):
                if not (is_plain_zero(t[j]) or is_plain_zero(gv[j][m])):
                    acc = acc + t[j] * gv[j][m]
            row.append(0.5 * acc)
        rows.append(row)
    return gv + rows


def _field_series(model, chart_id, z, L, N, exact=None):
    """Field series X (B, N, 2n) and reversed jacobian blocks along each lane's polynomial.

    The polynomials have the state coefficients z[:, :L] (z is (B, order+1, 2n),
    one row per order); they are evaluated as lane jets of length N. The
    metric depends on q alone, so only the n position jets carry channels,
    seeded with the identity; the momentum jets are value series. The
    channels of the field give the q-columns of A = DX, and the p-columns
    come from the value series of g^-1, dg and dq by the chain rule
    (:func:`_momentum_columns`), so A_j[i, a], coefficient j of dX_i/dz_a,
    comes out for every lane, for j < ``exact`` (all N orders by default;
    zeros above). It is returned as Ahat (B, 2n, N*2n), the
    blocks A_{N-1}, ..., A_1, A_0 side by side, so that every sum
    sum_j A_j w_{k-j} of the recurrences is one matmul of a trailing block
    range with the stacked w. A single lane is evaluated on jets without a
    lane axis: the same operations on smaller arrays, which numpy runs with
    less overhead.
    """
    B, _, m = z.shape
    n = m // 2
    c = np.zeros((m, B, 1 + n, N), dtype=complex)
    c[:, :, 0, :L] = z[:, :L].transpose(2, 0, 1)
    for a in range(n):
        c[a, :, 1 + a, 0] = 1.0
    if B == 1:
        c = c[:, 0]
    K = N if exact is None else exact
    _, gi, dg = model.metric(chart_id, [Jet(c[a], K) for a in range(n)])
    dq, dp = _field_from_metric(gi, dg, [Jet(c[a, ..., :1, :]) for a in range(n, m)])
    X = np.zeros((B, N, m), dtype=complex)
    Ahat = np.zeros((B, m, N, m), dtype=complex)
    for i, x in enumerate(dq + dp):
        if not isinstance(x, Jet):
            X[:, 0, i] = x
            continue
        X[:, :, i] = x.c[..., 0, :]
        if x.R > 1:
            Ahat[:, i, :, :n] = x.c[..., 1:, ::-1].swapaxes(-1, -2)
    for i, row in enumerate(_momentum_columns(gi, dg, dq, K)):
        for a, x in enumerate(row):
            if isinstance(x, Jet):
                Ahat[:, i, N - K :, n + a] = x.c[..., 0, ::-1]
            else:
                Ahat[:, i, N - 1, n + a] = x
    return X, Ahat.reshape(B, m, N * m)


def _taylor_series(model, chart_id, q, p, D, direction, order):
    """Taylor coefficients (B, 2n, R, order+1) of dz/dt = u X(z) at z(0) = (q, p), per lane.

    q and p are (B, n), one lane per row; ``direction`` is one unit number for
    every lane or one per lane. Row 0 of the third axis is the state. Without
    D, R = 1; with D (B, 2n, 2n), rows 1..2n are the state's jacobian,
    starting from D (R = 1 + 2n). Each doubling pass is one field evaluation
    for all lanes.

    The state series is built by Newton doubling. With z_0..z_{L-1} known,
    one field evaluation at length N gives X and A = DX along that
    polynomial, and since z minus it is O(t^L), X(z) = X + A (z - z_<L) +
    O(t^2L), so orders up to 2L - 1 of X(z) are exact and

        (k+1) z_{k+1} = u (X_k + sum_{j <= k-L} A_j z_{k-j}),  k = L-1 .. N-1.

    The jacobian Phi solves dPhi/dt = u A Phi,
    (k+1) Phi_{k+1} = u sum_{j <= k} A_j Phi_{k-j}, which needs A_0..A_{order-1}
    exact; A of a pass is exact for j < L only. Without D the passes take
    N = min(2L, order), lengths 2, 6, 14, 16: 4 field evaluations for order
    16. They read A_j for j < N - L only and compute no more orders of A:
    1, 3, 7 and 1 at order 16, 1, 3, 7, 15 and 9 at order 40. With D they
    take N = min(2L - 1, order), lengths 1, 3, 7, 15, 16, so the last pass
    starts at L = order and its A, all N orders in every pass, serves Phi:
    5 evaluations. When the last pass started from L < order (longer
    series) the field is evaluated once more on the whole polynomial.
    """
    B, n = q.shape
    m = 2 * n
    u = np.reshape(direction, (-1, 1))
    z = np.zeros((B, order + 1, m), dtype=complex)
    z[:, 0, :n] = q
    z[:, 0, n:] = p
    L = 1
    while L <= order:
        N = min(2 * L - (D is not None), order)
        X, Ahat = _field_series(model, chart_id, z, L, N, N if D is not None else N - L)
        for k in range(L - 1, N):
            rhs = X[:, k]
            if k >= L:
                # A_{k-L}, ..., A_0 against z_L, ..., z_k
                w = z[:, L : k + 1].reshape(B, (k + 1 - L) * m, 1)
                rhs = rhs + (Ahat[:, :, (N - 1 - k + L) * m :] @ w)[..., 0]
            z[:, k + 1] = u * rhs / (k + 1)
        L_last, L = L, N + 1
    state = z.transpose(0, 2, 1)[:, :, None, :]
    if D is None:
        return state.copy()
    if L_last < order:
        _, Ahat = _field_series(model, chart_id, z, order, order)
    phi = np.zeros((B, order + 1, m, m), dtype=complex)
    phi[:, 0] = D
    u = u[..., None]
    for k in range(order):
        # A_k, ..., A_0 against Phi_0, ..., Phi_k
        w = phi[:, : k + 1].reshape(B, (k + 1) * m, m)
        phi[:, k + 1] = u * (Ahat[:, :, (order - 1 - k) * m :] @ w) / (k + 1)
    return np.concatenate([state, phi.transpose(0, 2, 3, 1)], axis=2)


def _last_inside(coeffs, dt, n, pred):
    """Largest local parameter in [0, dt] at which pred still holds of the real part of q.

    The accepted step's series is trusted as the solution on the step, so the
    exit point is localized by bisection on the polynomial itself.
    """
    q_of = lambda t: eval_poly(coeffs[:n, 0, :], t).real
    if not pred(q_of(0.0)):
        return 0.0
    lo, hi = 0.0, float(dt)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if pred(q_of(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def _step_sizes(mags, tol):
    """Step of each lane from the largest coefficient magnitude mags[:, k] of each order k.

    h = SAFETY * min((tol * max(1, mags[:, 0]) / mags[:, k]) ** (1 / k)) over the
    last two orders k whose magnitude exceeds 1e-280; inf when neither does.
    Each power is taken on a Python float: numpy's array power can differ
    from the scalar pow in the last bit, and a step that moves by one ulp
    moves every output. The rest of the rule runs in the same loop, which
    costs no more than array quotients at 200 lanes and less at a few.
    """
    order = mags.shape[1] - 1
    ks = (order, order - 1)
    h = []
    for a0, *tail in mags[:, (0, *ks)].tolist():
        scale = tol * (a0 if a0 > 1.0 else 1.0)
        cands = [(scale / a) ** (1.0 / k) for a, k in zip(tail, ks) if a > 1e-280]
        h.append(SAFETY * min(cands) if cands else np.inf)
    return np.array(h)


def _lane_series(model, chart_id, q, p, D, direction, order):
    """:func:`_taylor_series` of lanes, and per lane whether its coefficients are all finite.

    The one Taylor build of the flow and the series route. A lane whose series
    breaks down, by a vanishing constant term of a reciprocal, log or sqrt (a
    pivot of g) or by overflow, gets non-finite coefficients in that lane only.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coeffs = _taylor_series(model, chart_id, q, p, D, direction, order)
    return coeffs, np.isfinite(coeffs).all(axis=(1, 2, 3))


def _admit(model, points):
    """The start points of a batch that lie in their charts, wrapped, grouped by chart.

    Returns (groups, errors): groups maps each chart id to the indices of its
    admitted points and their wrapped q (k, n); errors maps the index of each
    other point (outside its chart's box, or in no chart of the model) to
    the :class:`~grauert.errors.ChartDomainError` that
    :meth:`~grauert.geometry.MetricModel.require_inside` raises for it. The
    points of a chart are wrapped and checked as one stack.
    """
    by_chart = {}
    for i, z in enumerate(points):
        by_chart.setdefault(z.chart_id, []).append(i)
    groups, errors = {}, {}
    for cid, idx in by_chart.items():
        idx = np.array(idx)
        q = np.array([points[i].q for i in idx])
        if cid in model.charts:
            ch = model.chart(cid)
            q = ch.wrap(q)
            inside = ch.contains_re(q.real)
        else:
            inside = np.zeros(len(idx), dtype=bool)
        for k in np.flatnonzero(~inside):
            try:
                model.require_inside(cid, q[k])
            except ChartDomainError as e:
                errors[int(idx[k])] = e
        if inside.any():
            groups[cid] = (idx[inside], q[inside])
    return groups, errors


def _energies(model, st, lanes):
    """Energy of the states of ``lanes`` (an index array), one metric evaluation per evaluator."""
    e = np.zeros(len(st.chart), dtype=complex)
    keys = st.key[st.chart[lanes]]
    for k in np.unique(keys):
        g = lanes[keys == k]
        # a lane started on a singular metric, or ended where it overflows,
        # has no finite energy
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            e[g] = energy(model, st.charts[k], st.q[g].T, st.p[g].T)
    return e


class _Lanes:
    """The state of a :func:`flow_lanes` call, one row per lane.

    Lane i's path runs through the waypoints w[i]: its legs are
    s0[i, j] + u[i, j] t, 0 <= t <= length[i, j], where a leg too short to
    move the state has length 0. ``leg`` is the current leg, ``t_done`` the
    arc length done on it, ``t_global`` the arc length done in all, and
    ``chart`` the index of the lane's chart in ``charts``.
    """

    def __init__(self, model, p, w, variational):
        B, n = p.shape
        d = w[:, 1:] - w[:, :-1]
        length = np.hypot(d.real, d.imag)  # equals abs of each leg to the bit
        kept = length >= 1e-200  # a shorter leg has no representable effect on the state
        self.s0, self.length = w[:, :-1], np.where(kept, length, 0.0)
        self.u = np.divide(d, length, out=np.zeros_like(d), where=kept)
        self.charts, self.chart = list(model.charts), np.zeros(B, dtype=int)
        # per chart, the index in charts of the chart whose evaluator it shares
        self.key = np.array([self.charts.index(model.evaluator_key[c]) for c in self.charts])
        self.q, self.p = np.zeros((B, n), dtype=complex), p
        self.D = np.tile(np.eye(2 * n, dtype=complex), (B, 1, 1)) if variational else None
        self.leg, self.t_done, self.t_global = np.zeros(B, dtype=int), np.zeros(B), np.zeros(B)
        self.sigma_now = np.zeros(B, dtype=complex)
        self.steps, self.transitions = np.zeros(B, dtype=int), np.zeros(B, dtype=int)
        self.min_step = np.full(B, np.inf)
        self.segments = [[] for _ in range(B)]

    def on_path(self, lanes):
        """Move ``lanes`` past finished legs; the ones whose path is not done."""
        while True:
            lanes = lanes[self.leg[lanes] < self.length.shape[1]]
            k = self.leg[lanes]
            over = ~(self.t_done[lanes] < self.length[lanes, k] * (1.0 - 1e-15))
            if not over.any():
                return lanes
            self.leg[lanes[over]] += 1
            self.t_done[lanes[over]] = 0.0

    def breakdown(self, i, message, sigma, reason):
        return SingularityError(message, last_good_sigma=sigma, reason=reason,
                                segments=self.segments[i])


def _step_group(model, lanes, st, outcomes, tol):
    """One accepted step of ``lanes`` (an index array, on one evaluator); the lanes that go on.

    The series (built in the first lane's chart), the state update and the
    wrap and box checks (chart by chart) are array operations on the group;
    the step rule runs per lane on Python floats. Beyond that, a lane runs
    Python of its own only where it has an event: a breakdown, which puts
    its SingularityError (or the GrauertError of a failed transition) in
    ``outcomes``, or a step out of its chart's safe interior, where
    best_chart decides whether it changes chart. A lane whose series is not
    finite breaks down before its step is chosen. Its segment, checks and
    exit point are of its own chart.
    """
    n = model.dim
    cids = st.chart[lanes]  # each lane's chart before its step
    k = st.leg[lanes]
    s0, u, length = st.s0[lanes, k], st.u[lanes, k], st.length[lanes, k]
    coeffs, finite = _lane_series(model, st.charts[cids[0]], st.q[lanes], st.p[lanes],
                                  None if st.D is None else st.D[lanes], u, DEFAULT_ORDER)
    h = _step_sizes(np.max(np.abs(coeffs[:, :, 0, :]), axis=1), tol)
    left = length - st.t_done[lanes]
    dt = np.where(left < h, left, h)
    collapsed = (dt < STEP_FLOOR) & (left > STEP_FLOOR)
    for j in np.flatnonzero(~finite | collapsed):
        i, s = lanes[j], st.sigma_now[lanes[j]]
        outcomes[i] = (
            st.breakdown(i, f"series step collapsed to {h[j]:.3e} at {s}", s, "step collapse")
            if finite[j] else st.breakdown(i, f"non-finite series at {s}", s, "non-finite series"))
    go = finite & ~collapsed
    if not go.all():
        lanes, cids, coeffs, s0, u, dt = lanes[go], cids[go], coeffs[go], s0[go], u[go], dt[go]
    t_done = st.t_done[lanes]
    sigma0 = s0 + u * t_done
    for j, (i, c) in enumerate(zip(lanes, cids.tolist())):
        st.segments[i].append(Segment(st.charts[c], sigma0[j], u[j], dt[j], st.t_global[i],
                                      coeffs[j]))
    state = eval_poly(coeffs, dt[:, None, None])
    t_done = t_done + dt
    st.t_done[lanes] = t_done
    st.t_global[lanes] += dt
    st.sigma_now[lanes] = s0 + u * t_done
    st.steps[lanes] += 1
    st.min_step[lanes] = np.where(dt < st.min_step[lanes], dt, st.min_step[lanes])
    q, p = state[:, :n, 0], state[:, n:, 0]
    D = None if st.D is None else state[:, :, 1:]
    in_box, safe = np.empty((2, len(lanes)), dtype=bool)
    for c in np.unique(cids):
        g, box = cids == c, model.chart(st.charts[c])
        q[g] = box.wrap(q[g])
        in_box[g], safe[g] = box.contains_re(q[g].real), box.in_safe_interior(q[g].real)
    good = np.ones(len(lanes), dtype=bool)
    if model.has_transitions():
        for j in np.flatnonzero(~safe):
            cid = st.charts[cids[j]]
            try:
                best = model.best_chart(cid, q[j])
                if best == cid:
                    continue
                q_j, p_j, D_j = transition_phase(model, cid, best, q[j], p[j],
                                                 jac=None if D is None else D[j])
            except GrauertError as e:
                outcomes[lanes[j]] = e
                good[j] = False
                continue
            q[j], p[j] = model.chart(best).wrap(q_j), p_j
            if D is not None:
                D[j] = D_j
            st.chart[lanes[j]] = st.charts.index(best)
            st.transitions[lanes[j]] += 1
            in_box[j] = model.chart(best).contains_re(q[j].real)
    for j in np.flatnonzero(good & ~in_box):
        t_ok = _last_inside(coeffs[j], dt[j], n, model.chart(st.charts[cids[j]]).contains_re)
        s_ok = s0[j] + u[j] * (t_done[j] - dt[j] + t_ok)
        outcomes[lanes[j]] = st.breakdown(
            lanes[j], f"real part left the chart box near {s_ok}", s_ok, "chart box")
    good &= in_box
    on = lanes[good]
    st.q[on], st.p[on] = q[good], p[good]
    if D is not None:
        st.D[on] = D[good]
    return on


def flow_lanes(
    model,
    points,
    sigma=None,
    path=None,
    tol=DEFAULT_TOL,
    variational=False,
):
    """Continue the geodesic flow of ``model`` from every point of ``points`` at once.

    Each point is a lane. Exactly one of ``sigma`` (straight paths; one
    value for every lane or one per lane) or ``path`` (for every lane) must
    be given. Returns a list with one entry per lane: its
    :class:`FlowResult`, or the :class:`~grauert.errors.GrauertError` that
    ended it (a :class:`SingularityError` when its series step collapses
    below the floor, its series is not finite, as a vanishing constant term
    of a reciprocal, log or sqrt makes it in that lane only, its end energy
    is not finite, or its real part exits the atlas; a
    :class:`~grauert.errors.ChartDomainError` when its real part starts
    outside its chart's box). A result keeps the lane's accepted segments as
    dense output, and so does a SingularityError, whose segments are
    trustworthy up to its ``last_good_sigma``.

    Lanes run in lockstep, each with its own step size, chart and checks, so
    every lane takes the steps it would take alone. The state of the lanes
    is held as arrays; each step builds the series of all lanes on one
    metric evaluator, in every chart that shares it, with one field
    evaluation per doubling pass, and takes and checks their steps as array
    operations. Lanes that finish or break down leave the batch.
    """
    if (sigma is None) == (path is None):
        raise ValueError("pass exactly one of sigma or path")
    B, n = len(points), model.dim
    if path is None:
        ends = np.broadcast_to(np.asarray(sigma, dtype=complex), (B,))
        w = np.stack([np.zeros(B, dtype=complex), ends], axis=1)
    else:
        ends = np.full(B, path.endpoint)
        w = np.broadcast_to(path.waypoints, (B, path.waypoints.shape[0]))
    st = _Lanes(model, np.array([z.p for z in points], dtype=complex).reshape(B, n), w,
                variational)
    groups, errors = _admit(model, points)
    for cid, (idx, q) in groups.items():
        st.chart[idx], st.q[idx] = st.charts.index(cid), q
    outcomes = [errors.get(i) for i in range(B)]
    admitted = np.flatnonzero([x is None for x in outcomes])
    e0 = _energies(model, st, admitted)
    running = admitted
    while True:
        running = st.on_path(running)
        spent = st.steps[running] >= MAX_STEPS
        for i in running[spent]:
            outcomes[i] = st.breakdown(i, f"step budget exhausted at {st.sigma_now[i]}",
                                       st.sigma_now[i], "step budget")
        running = running[~spent]
        if not running.size:
            break
        # the groups are fixed before any steps: a lane that changes chart
        # takes its next step in the next pass
        keys = st.key[st.chart[running]]
        running = np.concatenate([_step_group(model, running[keys == e], st, outcomes, tol)
                                  for e in np.unique(keys)])
    done = np.array([i for i in admitted if outcomes[i] is None], dtype=int)
    e1 = _energies(model, st, done)
    finite = np.isfinite(e1)
    for i in done:
        if not finite[i]:
            # the metric overflows at the end: no step from there could be built
            s = st.segments[i][-1].sigma0 if st.segments[i] else 0j
            outcomes[i] = st.breakdown(i, f"non-finite energy at {ends[i]}", s,
                                       "non-finite energy")
            continue
        outcomes[i] = FlowResult(
            point=PhasePoint(st.charts[st.chart[i]], st.q[i], st.p[i]),
            sigma=ends[i],
            jacobian=None if st.D is None else st.D[i],
            diagnostics=FlowDiagnostics(int(st.steps[i]), int(st.transitions[i]),
                                        st.min_step[i], complex(e0[i]), complex(e1[i])),
            segments=st.segments[i],
        )
    return outcomes


def flow(
    model,
    point,
    sigma=None,
    path=None,
    tol=DEFAULT_TOL,
    variational=False,
):
    """Continue the geodesic flow of ``model`` from ``point`` along a complex-time path.

    A one-lane call of :func:`flow_lanes`. Exactly one of ``sigma`` (straight
    path) or ``path`` must be given. Returns a :class:`FlowResult`; raises the
    lane's :class:`SingularityError` when the series step collapses below the
    floor, the series or the end energy is not finite, or its real part exits
    the atlas. The error keeps the accepted segments, which are trustworthy
    up to its ``last_good_sigma``.
    """
    (out,) = flow_lanes(model, [point], sigma=sigma, path=path, tol=tol,
                        variational=variational)
    return lane_result(out)


def lane_result(out):
    """A lane's result from a batch call, or raise the error that ended the lane."""
    if isinstance(out, Exception):
        raise out
    return out
