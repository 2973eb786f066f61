"""Geodesic flow at complex time by Taylor continuation along paths in the time plane.

The generator is the Hamiltonian vector field of the fiberwise quadratic
energy, X(q, p) = (dE/dp, -dE/dq). Real time gives the geodesic flow; the
adapted structure comes from following the same field along paths that leave
the real axis. A path is piecewise linear in the complex time parameter, and
on each leg the trajectory solves dz/dt = u X(z) with u the unit leg
direction, t arc length.

Each step builds the Taylor series of the solution at the current state by
Newton doubling (Brent-Kung): one field evaluation in truncated series
arithmetic, with derivative channels seeded with the identity, on the
coefficients known so far gives the field's series and its jacobian series
along them, and a linear recurrence in those doubles the number of known
coefficients. An order-16 step takes 5 field evaluations, not 16. The step
size comes from the tail of the computed series, so a shrinking radius of
convergence is felt directly: when the admissible step falls below the floor
the flow reports a singularity with the last trustworthy time.

With ``variational=True`` the series of the phase-space jacobian of the flow
map follows from the field's jacobian series by the linear recurrence of
the first variational equation, so the jacobian is transported exactly
alongside the state, through chart transitions included.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularityError
from .geometry import energy, transition_phase
from .jets import Jet, eval_poly, is_plain_zero

__all__ = [
    "PhasePoint",
    "SigmaPath",
    "Segment",
    "FlowDiagnostics",
    "FlowResult",
    "segment_at",
    "hamiltonian_vector_field",
    "flow",
    "phase_residual",
    "flow_group_residual",
    "scaling_conjugation_residual",
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

    def legs(self):
        w = self.waypoints
        return [(w[i], w[i + 1]) for i in range(w.shape[0] - 1)]

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

    def jacobian_at(self, t_local):
        out = eval_poly(self.coeffs, t_local)
        return out[:, 1:]


@dataclass
class FlowDiagnostics:
    steps: int = 0
    transitions: int = 0
    min_step: float = np.inf
    tol: float = DEFAULT_TOL
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
            raise ValueError("flow was run without dense output")
        total = self.segments[-1].t0_global + self.segments[-1].dt
        out = []
        for t in np.linspace(0.0, total, num):
            seg, tl = segment_at(self.segments, t)
            q, p = seg.state_at(tl)
            out.append((seg.sigma0 + seg.direction * tl, PhasePoint(seg.chart_id, q, p)))
        return out


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
    Terms whose metric factor is a plain (non-jet) zero are skipped: they are
    exact zeros, and most entries of dg are.
    """
    n = model.dim
    _, gi, dg = model.metric(chart_id, qs)
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


def _field_series(model, chart_id, z, L, N):
    """Field series X (N, 2n) and jacobian series A (N, 2n, 2n) along a polynomial.

    The polynomial has the state coefficients z[:L] (z is (order+1, 2n), one
    row per order); it is evaluated as jets of length N whose 2n channels are
    seeded with the identity, so A_j[i, a] is coefficient j of dX_i/dz_a.
    """
    m = z.shape[1]
    n = m // 2
    zs = []
    for a in range(m):
        c = np.zeros((1 + m, N), dtype=complex)
        c[0, :L] = z[:L, a]
        c[1 + a, 0] = 1.0
        zs.append(Jet(c))
    dq, dp = hamiltonian_vector_field(model, chart_id, zs[:n], zs[n:])
    X = np.zeros((N, m), dtype=complex)
    A = np.zeros((N, m, m), dtype=complex)
    for i, x in enumerate(dq + dp):
        if not isinstance(x, Jet):
            X[0, i] = x
            continue
        X[:, i] = x.c[0]
        if x.R > 1:
            A[:, i, :] = x.c[1:].T
    return X, A


def _taylor_series(model, chart_id, q, p, D, direction, order):
    """Taylor coefficients (2n, R, order+1) of dz/dt = u X(z) at z(0) = (q, p).

    Row 0 of the middle axis is the state. Without D, R = 1; with D, rows
    1..2n are the state's jacobian, starting from D (R = 1 + 2n).

    The state series is built by Newton doubling. With z_0..z_{L-1} known,
    one field evaluation at length N = min(2L - 1, order) gives X and
    A = DX along that polynomial, and since z minus it is O(t^L),
    X(z) = X + A (z - z_<L) + O(t^2L), so

        (k+1) z_{k+1} = u (X_k + sum_{j <= k-L} A_j z_{k-j}),  k = L-1 .. N-1.

    Passes have lengths 1, 3, 7, 15, ... The jacobian Phi solves
    dPhi/dt = u A Phi, (k+1) Phi_{k+1} = u sum_{j <= k} A_j Phi_{k-j}, which
    needs A_0..A_{order-1} exact: A of a pass is exact for j < L only, so when
    the last pass started from L < order the field is evaluated once more on
    the whole polynomial.
    """
    n = q.shape[0]
    m = 2 * n
    z = np.zeros((order + 1, m), dtype=complex)
    z[0, :n] = q
    z[0, n:] = p
    L = 1
    while L <= order:
        N = min(2 * L - 1, order)
        X, A = _field_series(model, chart_id, z, L, N)
        for k in range(L - 1, N):
            rhs = X[k]
            if k >= L:
                rhs = rhs + np.einsum("jab,jb->a", A[: k - L + 1], z[k : L - 1 : -1])
            z[k + 1] = direction * rhs / (k + 1)
        L_last, L = L, N + 1
    state = z.T[:, None, :]
    if D is None:
        return state.copy()
    if L_last < order:
        _, A = _field_series(model, chart_id, z, order, order)
    phi = np.zeros((order + 1, m, m), dtype=complex)
    phi[0] = D
    for k in range(order):
        phi[k + 1] = direction * np.einsum("jab,jbc->ac", A[: k + 1], phi[k::-1]) / (k + 1)
    return np.concatenate([state, phi.transpose(1, 2, 0)], axis=1)


def _last_inside(coeffs, dt, n, pred):
    """Largest local parameter in [0, dt] whose state still satisfies pred.

    The accepted step's series is trusted as the solution on the step, so the
    exit point is localized by bisection on the polynomial itself.
    """
    q_of = lambda t: eval_poly(coeffs[:n, 0, :], t)
    if not pred(q_of(0.0)):
        return 0.0
    lo, hi = 0.0, dt
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if pred(q_of(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def _choose_step(value_coeffs, order, tol):
    a = np.max(np.abs(value_coeffs), axis=0)
    scale = tol * max(1.0, a[0])
    cands = []
    for kk in (order, order - 1):
        if a[kk] > 1e-280:
            cands.append((scale / a[kk]) ** (1.0 / kk))
    if not cands:
        return np.inf
    return SAFETY * min(cands)


def flow(
    model,
    point,
    sigma=None,
    path=None,
    tol=DEFAULT_TOL,
    variational=False,
    dense=False,
):
    """Continue the geodesic flow of ``model`` from ``point`` along a complex-time path.

    Exactly one of ``sigma`` (straight path) or ``path`` must be given.
    Returns a :class:`FlowResult`; raises :class:`SingularityError` when the
    series step collapses below the floor, the state leaves the chart's
    imaginary margin, or its real part exits the atlas. With ``dense=True``
    the error keeps the accepted segments, which are trustworthy up to its
    ``last_good_sigma``.
    """
    if (sigma is None) == (path is None):
        raise ValueError("pass exactly one of sigma or path")
    if path is None:
        path = SigmaPath.straight(sigma)
    n = model.dim
    m = 2 * n
    cid = point.chart_id
    ch = model.chart(cid)
    q = ch.wrap(point.q)
    p = point.p.copy()
    model.require_inside(cid, q)
    D = np.eye(m, dtype=complex) if variational else None
    diag = FlowDiagnostics(tol=tol)
    diag.energy_initial = complex(energy(model, cid, q, p, check_domain=False))
    segments = []
    t_global = 0.0
    sigma_now = 0.0 + 0.0j
    for s0, s1 in path.legs():
        leg = s1 - s0
        leg_len = abs(leg)
        if leg_len < 1e-200:  # no representable effect on the state
            continue
        u = leg / leg_len
        t_done = 0.0
        while t_done < leg_len * (1.0 - 1e-15):
            if diag.steps >= MAX_STEPS:
                raise SingularityError(
                    f"step budget exhausted at {sigma_now}",
                    last_good_sigma=sigma_now,
                    reason="step budget",
                    segments=segments,
                )
            coeffs = _taylor_series(model, cid, q, p, D, u, DEFAULT_ORDER)
            h = _choose_step(coeffs[:, 0, :], DEFAULT_ORDER, tol)
            dt = min(h, leg_len - t_done)
            if dt < STEP_FLOOR and leg_len - t_done > STEP_FLOOR:
                raise SingularityError(
                    f"series step collapsed to {h:.3e} at {sigma_now}",
                    last_good_sigma=sigma_now,
                    reason="step collapse",
                    segments=segments,
                )
            if dense:
                segments.append(Segment(cid, s0 + u * t_done, u, dt, t_global, coeffs))
            state = eval_poly(coeffs, dt)
            q, p = state[:n, 0], state[n:, 0]
            if variational:
                D = state[:, 1:]
            t_done += dt
            t_global += dt
            prev_sigma, sigma_now = sigma_now, s0 + u * t_done
            diag.steps += 1
            diag.min_step = min(diag.min_step, dt)
            ch = model.chart(cid)
            q = ch.wrap(q)
            if not ch.margin_ok(q.imag):
                t_ok = _last_inside(coeffs, dt, n, lambda qq: ch.margin_ok(qq.imag))
                s_ok = s0 + u * (t_done - dt + t_ok)
                raise SingularityError(
                    f"imaginary part left the chart margin near {s_ok}",
                    last_good_sigma=s_ok,
                    reason="imaginary margin",
                    segments=segments,
                )
            if model.has_transitions() and not ch.in_safe_interior(q.real):
                best = model.best_chart(cid, q)
                if best != cid:
                    q, p, D = transition_phase(model, cid, best, q, p, jac=D)
                    q = model.chart(best).wrap(q)
                    cid = best
                    diag.transitions += 1
            if not model.chart(cid).contains_re(q.real):
                t_ok = _last_inside(coeffs, dt, n, lambda qq: ch.contains_re(qq.real))
                s_ok = s0 + u * (t_done - dt + t_ok)
                raise SingularityError(
                    f"real part left the chart box near {s_ok}",
                    last_good_sigma=s_ok,
                    reason="chart box",
                    segments=segments,
                )
    diag.energy_final = complex(energy(model, cid, q, p, check_domain=False))
    return FlowResult(
        point=PhasePoint(cid, q, p),
        sigma=path.endpoint,
        jacobian=D,
        diagnostics=diag,
        segments=segments,
    )


def phase_residual(model, a, b):
    """Sup distance between two phase points, transitioning b into a's chart if needed."""
    if a.chart_id != b.chart_id:
        qb, pb, _ = transition_phase(model, b.chart_id, a.chart_id, b.q, b.p)
    else:
        qb, pb = b.q, b.p
    ch = model.chart(a.chart_id)
    dq = a.q - qb
    for i in range(ch.dim):
        if ch.periodic[i]:
            w = ch.hi[i] - ch.lo[i]
            re = (dq[i].real + w / 2.0) % w - w / 2.0
            dq[i] = re + 1j * dq[i].imag
    return float(max(np.max(np.abs(dq)), np.max(np.abs(a.p - pb))))


def flow_group_residual(model, point, s1, s2, **kw):
    """Deviation of flowing s1 then s2 from flowing s1 + s2 directly."""
    mid = flow(model, point, sigma=s1, **kw)
    two = flow(model, mid.point, sigma=s2, **kw)
    direct = flow(model, point, sigma=s1 + s2, **kw)
    return phase_residual(model, direct.point, two.point)


def scaling_conjugation_residual(model, point, c, sigma, **kw):
    """Fiber dilation by c > 0 conjugates time-sigma flow into time-(c sigma) flow."""
    scaled = PhasePoint(point.chart_id, point.q, c * point.p)
    left = flow(model, scaled, sigma=sigma, **kw).point
    right = flow(model, point, sigma=c * sigma, **kw).point
    right_scaled = PhasePoint(right.chart_id, right.q, c * right.p)
    return phase_residual(model, left, right_scaled)
