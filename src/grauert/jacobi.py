"""Spreading matrices along real geodesics and their rational continuation.

The spreading matrix f(tau) at a phase point relates configuration spread to
covariant momentum spread of the shifted-vertical frame, sampled here along
REAL flow times only. Its entries are meromorphic in the time parameter with
poles at conjugate-point times, so values on a real window continue to
imaginary time by rational (Pade) fitting; comparing that continuation with
a direct imaginary-time flow is the central two-route consistency check of
the package.

Two independent extraction routes are provided. ``f_samples`` reuses the
backward-flow frame (one linear solve per sample). ``f_by_jacobi_transport``
instead integrates the parallel-transport equation with an off-the-shelf
ODE solver, seeds the vertical lifts of the transported frame at the
backward point, and pushes them forward with a second variational flow; no
jacobian is ever inverted. Agreement of the two is a strong end-to-end test
of the variational machinery.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    ConjugatePointError,
    DegenerateFrameError,
    PadeDegeneracyError,
    SingularityError,
)
from .flow import PhasePoint, flow, hamiltonian_vector_field
from .geometry import christoffel
from .lagrangian import (
    LagrangianFrame,
    distribution_at,
    f_matrix_from_frame,
    j_tensor_from_frame,
    lift_coefficients,
    lifted_frames,
    orthonormal_tangent_basis,
)

__all__ = [
    "f_samples",
    "f_by_jacobi_transport",
    "frame_vertical_det",
    "first_f_singularity",
    "pade_fit",
    "pade_eval",
    "pade_poles",
    "continue_f_to_i",
    "j_tensor_from_f",
]


def frame_vertical_det(model, z, sigma, basis=None, order=16, tol=1e-12):
    """det of the vertical coefficient block of the frame at z; zeros mark f poles."""
    fr = distribution_at(model, z, sigma, order=order, tol=tol)
    _, c = lift_coefficients(model, fr, basis=basis)
    return complex(np.linalg.det(c))


def f_samples(model, z, taus, basis=None, order=16, tol=1e-12):
    """Spreading matrices at the given real times, all in one fixed basis at z.

    Raises :class:`ConjugatePointError` if a sample sits numerically on a
    conjugate-point pole.
    """
    if basis is None:
        basis = orthonormal_tangent_basis(model, z.chart_id, z.q, z.p)
    out = np.empty((len(taus), model.dim, model.dim), dtype=complex)
    for i, tau in enumerate(taus):
        fr = distribution_at(model, z, complex(tau), order=order, tol=tol)
        try:
            out[i] = f_matrix_from_frame(model, fr, basis=basis)
        except DegenerateFrameError as e:
            raise ConjugatePointError(
                f"spreading matrix pole at real time {tau}", sigma=tau
            ) from e
    return out


def _parallel_transport(model, geo, V0, tau):
    """Transport the columns of V0 along the dense real geodesic to time tau."""
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
        for s in segs:
            if t <= s.t0_global + s.dt + 1e-14:
                return s.state_at(min(max(t - s.t0_global, 0.0), s.dt))
        return segs[-1].state_at(segs[-1].dt)

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


def f_by_jacobi_transport(model, z, tau, order=16, tol=1e-12):
    """Spreading matrix at real time tau without inverting any flow jacobian.

    Flows backward (state only, dense), parallel-transports the momentum-led
    basis to the backward point with an independent ODE solver, seeds its
    vertical lifts there, flows them forward variationally, and reads the
    slope at z.
    """
    if tau == 0:
        return np.zeros((model.dim, model.dim), dtype=complex)
    basis = orthonormal_tangent_basis(model, z.chart_id, z.q, z.p)
    back = flow(model, z, sigma=-complex(tau), dense=True, order=order, tol=tol)
    w = back.point
    V_w = _parallel_transport(model, back, basis, -tau)
    _, Eta_w = lifted_frames(model, w.chart_id, w.q, w.p, V_w)
    fwd = flow(model, w, sigma=complex(tau), variational=True, order=order, tol=tol)
    if fwd.point.chart_id != z.chart_id:
        raise SingularityError(
            "forward leg did not return to the base chart", reason="chart transition"
        )
    cols = fwd.jacobian @ Eta_w
    fr = LagrangianFrame(
        chart_id=z.chart_id,
        q=z.q.copy(),
        p=z.p.copy(),
        sigma=complex(tau),
        columns=cols,
        backward_chart=w.chart_id,
    )
    return f_matrix_from_frame(model, fr, basis=basis)


def first_f_singularity(model, z, tau_max=3.0, coarse=0.1, refine=1e-6, order=16, tol=1e-12):
    """Smallest |tau| with a spreading-matrix pole on the real axis, or None.

    Poles are located as sign changes of the real part of the vertical-block
    determinant, which decays through zero linearly at a conjugate point;
    each bracket is polished by root finding. Scans both time directions.
    """
    basis = orthonormal_tangent_basis(model, z.chart_id, z.q, z.p)
    hits = []
    d0 = frame_vertical_det(model, z, 0.0, basis=basis, order=order, tol=tol).real
    for sgn in (1.0, -1.0):
        d = lambda t: frame_vertical_det(model, z, sgn * t, basis=basis, order=order, tol=tol).real
        t_prev, d_prev = 0.0, d0
        t = coarse
        while t <= tau_max + 1e-12:
            try:
                d_cur = d(t)
            except SingularityError:
                break  # flow itself broke down first (left the atlas)
            if d_cur == 0.0:
                hits.append(t)
                break
            if np.sign(d_cur) != np.sign(d_prev):
                hits.append(brentq(d, t_prev, t, xtol=refine))
                break
            t_prev, d_prev = t, d_cur
            t += coarse
    return min(hits) if hits else None


# -- rational continuation ------------------------------------------------------


def pade_fit(xs, ys, num_degree=8, den_degree=8):
    """Least-squares rational fit p/q with q(0) = 1 on the given samples.

    Returns (p, q) as ascending coefficient arrays. Raises
    :class:`PadeDegeneracyError` when the fit cannot reproduce the samples,
    which is what non-rational (e.g. kinked) data produces.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    m = len(xs)
    n_unknown = num_degree + 1 + den_degree
    if m < n_unknown:
        raise PadeDegeneracyError("not enough samples for the requested degrees")
    # p(x) - y q(x) = y  with q = 1 + x qtail; parity of the data can make this
    # rank deficient without harm, so fitness is judged by the residual alone
    A = np.zeros((m, n_unknown), dtype=complex)
    for k in range(num_degree + 1):
        A[:, k] = xs**k
    for k in range(1, den_degree + 1):
        A[:, num_degree + k] = -ys * xs**k
    sol = np.linalg.lstsq(A, ys, rcond=None)[0]
    scale = max(1.0, float(np.max(np.abs(ys))))
    resid = float(np.max(np.abs(A @ sol - ys)))
    if resid > 1e-6 * scale:
        raise PadeDegeneracyError(
            f"rational fit does not reproduce the samples (residual {resid:.3e})"
        )
    p = sol[: num_degree + 1]
    q = np.concatenate([[1.0 + 0.0j], sol[num_degree + 1 :]])
    return p, q


def pade_eval(p, q, x):
    num = np.polyval(p[::-1], x)
    den = np.polyval(q[::-1], x)
    if abs(den) < 1e-12 * max(1.0, float(np.max(np.abs(q)))):
        raise PadeDegeneracyError(f"rational denominator vanishes at {x}")
    return num / den


def pade_poles(q):
    qq = np.trim_zeros(np.asarray(q), "b")
    if len(qq) < 2:
        return np.array([], dtype=complex)
    return np.roots(qq[::-1])


def continue_f_to_i(model, z, window, n_samples=21, num_degree=8, den_degree=8,
                    order=16, tol=1e-12):
    """Continue the spreading matrix from a real sample window to time i.

    Samples each entry on a Chebyshev grid over [-window, window] (scaled to
    [-1, 1] for conditioning), fits a rational function per entry, and
    evaluates at the scaled image of i. Returns (f_at_i, diagnostics) where
    diagnostics holds the per-entry pole sets mapped back to the time plane.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    nodes = np.cos(np.pi * np.arange(n_samples) / (n_samples - 1))  # [-1, 1]
    taus = window * nodes
    fs = f_samples(model, z, taus, order=order, tol=tol)
    n = model.dim
    f_i = np.empty((n, n), dtype=complex)
    poles = {}
    fits = {}
    target = 1j / window
    for a in range(n):
        for b in range(n):
            p, q = pade_fit(nodes, fs[:, a, b], num_degree, den_degree)
            f_i[a, b] = pade_eval(p, q, target)
            poles[(a, b)] = pade_poles(q) * window
            fits[(a, b)] = (p, q)
    return f_i, {"poles": poles, "fits": fits, "window": window, "taus": taus}


def j_tensor_from_f(model, z, f, basis=None):
    """Real structure tensor rebuilt from a spreading matrix at z.

    Columns Xi f + Eta of the lifted basis frame span the distribution the
    spreading matrix encodes; the tensor then follows as for any frame.
    """
    if basis is None:
        basis = orthonormal_tangent_basis(model, z.chart_id, z.q, z.p)
    Xi, Eta = lifted_frames(model, z.chart_id, z.q, z.p, basis)
    cols = Xi @ f + Eta
    fr = LagrangianFrame(
        chart_id=z.chart_id,
        q=np.asarray(z.q, dtype=complex),
        p=np.asarray(z.p, dtype=complex),
        sigma=1j,
        columns=cols,
        backward_chart=z.chart_id,
    )
    return j_tensor_from_frame(fr)
