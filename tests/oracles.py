"""Test oracles: the routes that no command runs, which only the tests call.

Each reaches a result the product computes another way, or checks an
identity the product does not report: hand-seeded jets, the flow's group law
and fiber-scaling conjugation, the spreading matrix by parallel transport
(scipy's ``solve_ivp``; no flow jacobian inverted), the structure tensor
from a spreading matrix, derivatives of a base function along the energy
field, the strip identity, the holomorphy residual of extended values, and
the battery at a tighter integrator tolerance.
"""

import math

import numpy as np

from grauert.errors import SingularityError, UnsupportedModelError
from grauert.extend import DEFAULT_MAX_TERMS, _series_coefficients
from grauert.extend import extend_by_flow_lanes, extend_by_series_lanes
from grauert.flow import DEFAULT_TOL, STENCIL, PhasePoint, diff5, flow, hamiltonian_vector_field
from grauert.flow import lane_result, segment_at, stencil_points
from grauert.geometry import christoffel, metric_inv_matrix, transition_phase
from grauert.jets import Jet, value
from grauert.lagrangian import FrameRays, f_matrix_from_frame, j_tensor_from_frame
from grauert.lagrangian import lifted_basis, orthonormal_tangent_basis
from grauert.verify import run_battery


# -- jet seeds ---------------------------------------------------------------


def constant(x, L=1):
    c = np.zeros((1, L), dtype=complex)
    c[0, 0] = x
    return Jet(c)


def variable(x, channel, n_channels):
    """Dual-seeded scalar: value x, unit sensitivity in one channel."""
    c = np.zeros((1 + n_channels, 1), dtype=complex)
    c[0, 0] = x
    c[1 + channel, 0] = 1.0
    return Jet(c)


# -- flow identities ---------------------------------------------------------


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


# -- Jacobi transport --------------------------------------------------------


def _parallel_transport(model, geo, V0, tau):
    """Transport the columns of V0 along the dense real geodesic to time tau."""
    from scipy.integrate import solve_ivp

    n = model.dim
    segs = geo.segments
    cid = segs[0].chart_id
    for s in segs[1:]:
        if s.chart_id != cid:
            raise SingularityError(
                "parallel transport across chart transitions is not supported here",
                reason="chart transition",
            )

    def q_of(t):
        seg, t_local = segment_at(segs, t)
        return seg.state_at(t_local)

    sgn = geo.sigma.real / abs(geo.sigma.real)

    def rhs(t, y):
        q, p = q_of(t)
        G = christoffel(model, cid, list(q))
        v, _ = hamiltonian_vector_field(model, cid, list(q), list(p))
        V = y.reshape(2, n, n)  # real and imaginary parts stacked
        Vc = V[0] + 1j * V[1]
        out = np.empty_like(Vc)
        for col in range(n):
            for i in range(n):
                out[i, col] = -sgn * sum(
                    G[i][j][k] * v[j] * Vc[k, col] for j in range(n) for k in range(n)
                )
        return np.concatenate([out.real.ravel(), out.imag.ravel()])

    y0 = np.concatenate([V0.real.ravel(), V0.imag.ravel()])
    T = abs(tau)
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-12, atol=1e-13)
    y = sol.y[:, -1].reshape(2, n, n)
    return y[0] + 1j * y[1]


def f_by_jacobi_transport(model, z, tau):
    """Spreading matrix at real time tau without inverting any flow jacobian.

    Flows backward (state only, dense), parallel-transports the momentum-led
    basis to the backward point with an independent ODE solver, seeds its
    vertical lifts there, flows them forward variationally, and reads the
    slope at z.
    """
    if tau == 0:
        return np.zeros((model.dim, model.dim), dtype=complex)
    n = model.dim
    basis = orthonormal_tangent_basis(model, z.chart_id, z.q, z.p)
    back = flow(model, z, sigma=-complex(tau))
    w = back.point
    V_w = _parallel_transport(model, back, basis, -tau)
    Eta_w = lifted_basis(model, w, V_w)[:, n:]
    fwd = flow(model, w, sigma=complex(tau), variational=True)
    if fwd.point.chart_id != z.chart_id:
        raise SingularityError(
            "forward leg did not return to the base chart", reason="chart transition"
        )
    return f_matrix_from_frame(lifted_basis(model, z, basis), fwd.jacobian @ Eta_w)


def j_tensor_from_f(model, z, f):
    """Real structure tensor rebuilt from a spreading matrix at z.

    Columns Xi f + Eta of the lifted basis frame span the distribution the
    spreading matrix encodes; the tensor then follows as for any frame.
    """
    L = lifted_basis(model, z)
    n = model.dim
    return j_tensor_from_frame(L[:, :n] @ f + L[:, n:])


# -- extension bookkeeping ---------------------------------------------------


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


# -- the battery, tightened --------------------------------------------------


def tightening_comparison(model, checks=None, n_samples=20, seed=0,
                          flow_tol=1e-12, factor=10.0):
    """Each check at the working integrator tolerance and at factor x tighter.

    Returns per-check records with both residuals, their ratio, and whether
    the verdict moved; residuals dominated by integration error would blow
    past ratio 2 here.
    """
    loose = run_battery(model, checks=checks, n_samples=n_samples, seed=seed,
                        flow_tol=flow_tol)
    tight = run_battery(model, checks=checks, n_samples=n_samples, seed=seed,
                        flow_tol=flow_tol / factor)
    out = []
    floor = 1e-13  # below this both runs sit on roundoff noise; ratios there are meaningless
    for a, b in zip(loose, tight):
        ratio = (b.max_residual + floor) / (a.max_residual + floor)
        out.append({
            "check": a.check,
            "residual": a.max_residual,
            "residual_tight": b.max_residual,
            "ratio": ratio,
            "verdict_changed": a.verdict != b.verdict,
        })
    return out
