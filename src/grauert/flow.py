"""Geodesic flow at complex time by Taylor continuation along paths in the time plane.

The generator is the Hamiltonian vector field of the fiberwise quadratic
energy, X(q, p) = (dE/dp, -dE/dq). Real time gives the geodesic flow; the
adapted structure comes from following the same field along paths that leave
the real axis. A path is piecewise linear in the complex time parameter, and
on each leg the trajectory solves dz/dt = u X(z) with u the unit leg
direction, t arc length.

Each step builds the Taylor series of the solution at the current state by
the standard recurrence (coefficient k+1 of the state is coefficient k of
the right side divided by k+1), evaluated in truncated series arithmetic.
The step size comes from the tail of the computed series, so a shrinking
radius of convergence is felt directly: when the admissible step falls below
the floor the flow reports a singularity with the last trustworthy time.

With ``variational=True`` every series carries derivative channels seeded
with the identity, so the full phase-space jacobian of the flow map is
transported exactly alongside the state, through chart transitions included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularityError
from .geometry import energy, transition_phase
from .jets import Jet, eval_poly

__all__ = [
    "PhasePoint",
    "SigmaPath",
    "Segment",
    "FlowDiagnostics",
    "FlowResult",
    "hamiltonian_vector_field",
    "flow",
    "phase_residual",
    "flow_group_residual",
    "scaling_conjugation_residual",
]

STEP_FLOOR = 1e-8
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

    def total_length(self):
        return float(np.sum(np.abs(np.diff(self.waypoints))))


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
    order: int = DEFAULT_ORDER
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
        taus = np.linspace(0.0, total, num)
        out = []
        k = 0
        for t in taus:
            while (
                k + 1 < len(self.segments)
                and t > self.segments[k].t0_global + self.segments[k].dt + 1e-14
            ):
                k += 1
            seg = self.segments[k]
            tl = min(max(t - seg.t0_global, 0.0), seg.dt)
            q, p = seg.state_at(tl)
            out.append((seg.sigma0 + seg.direction * tl, PhasePoint(seg.chart_id, q, p)))
        return out


def hamiltonian_vector_field(model, chart_id, qs, ps):
    """(dq, dp) components of the energy field over generic scalars.

    dq = g^-1 p and dp_l = 1/2 v^T (d_l g) v with v = dq, which equals
    -1/2 p^T (d_l g^-1) p, so only the metric and its derivative are needed.
    """
    n = model.dim
    gi = model.ginv(chart_id, qs)
    dg = model.dg(chart_id, qs)
    dq = []
    for j in range(n):
        acc = 0.0
        for k in range(n):
            acc = acc + gi[j][k] * ps[k]
        dq.append(acc)
    dp = []
    for l in range(n):
        acc = 0.0
        for j in range(n):
            for k in range(n):
                acc = acc + dg[l][j][k] * dq[j] * dq[k]
        dp.append(0.5 * acc)
    return dq, dp


def _coeff_block(x, k, R):
    out = np.zeros(R, dtype=complex)
    if isinstance(x, Jet):
        if x.R == R:
            out[:] = x.c[:, k]
        elif x.R == 1:
            out[0] = x.c[0, k]
        else:
            raise ValueError("channel count mismatch in field evaluation")
    elif k == 0:
        out[0] = complex(x)
    return out


def _taylor_series(model, chart_id, q, p, D, direction, order, R):
    n = q.shape[0]
    m = 2 * n
    coeffs = np.zeros((m, R, order + 1), dtype=complex)
    coeffs[:n, 0, 0] = q
    coeffs[n:, 0, 0] = p
    if R > 1:
        coeffs[:, 1:, 0] = D
    for k in range(order):
        L = k + 1
        qs = [Jet(coeffs[i, :, :L].copy()) for i in range(n)]
        ps = [Jet(coeffs[n + i, :, :L].copy()) for i in range(n)]
        dq, dp = hamiltonian_vector_field(model, chart_id, qs, ps)
        for i in range(n):
            coeffs[i, :, k + 1] = direction * _coeff_block(dq[i], k, R) / (k + 1)
            coeffs[n + i, :, k + 1] = direction * _coeff_block(dp[i], k, R) / (k + 1)
    return coeffs


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
    order=DEFAULT_ORDER,
    tol=DEFAULT_TOL,
    variational=False,
    dense=False,
    max_steps=10000,
):
    """Continue the geodesic flow of ``model`` from ``point`` along a complex-time path.

    Exactly one of ``sigma`` (straight path) or ``path`` must be given.
    Returns a :class:`FlowResult`; raises :class:`SingularityError` when the
    series step collapses below the floor, the state leaves the chart's
    imaginary margin, or its real part exits the atlas.
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
    R = 1 + m if variational else 1
    D = np.eye(m, dtype=complex) if variational else None
    diag = FlowDiagnostics(order=order, tol=tol)
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
            if diag.steps >= max_steps:
                raise SingularityError(
                    f"step budget exhausted at {sigma_now}",
                    last_good_sigma=sigma_now,
                    reason="step budget",
                )
            coeffs = _taylor_series(model, cid, q, p, D, u, order, R)
            h = _choose_step(coeffs[:, 0, :], order, tol)
            dt = min(h, leg_len - t_done)
            if dt < STEP_FLOOR and leg_len - t_done > STEP_FLOOR:
                raise SingularityError(
                    f"series step collapsed to {h:.3e} at {sigma_now}",
                    last_good_sigma=sigma_now,
                    reason="step collapse",
                )
            if dense:
                segments.append(Segment(cid, s0 + u * t_done, u, dt, t_global, coeffs))
            state = eval_poly(coeffs, dt)
            q, p = state[:n, 0], state[n:, 0]
            if R > 1:
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
