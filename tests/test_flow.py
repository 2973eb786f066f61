"""Complex-time flow: exactness on flat models, oracle agreement, invariants, breakdown."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import grauert.flow as flow_module
from grauert import jets
from grauert.catalog import catalog
from grauert.errors import ChartDomainError, SingularityError
from grauert.geometry import Chart, MetricModel, energy, metric_inv_matrix, push_through
from grauert.flow import PhasePoint, SigmaPath, flow, flow_lanes, hamiltonian_vector_field
from oracles import flow_group_residual, phase_residual, scaling_conjugation_residual, variable


def _meridian_singular_time():
    """tau* = int_0^{asinh 1} sqrt(1 - sinh^2 y) dy, where a unit meridian of the surface stops.

    On surface_of_revolution (r = 2 + cos u) the meridian u = 0, p = (1, 0)
    continued toward i runs along u = i y with y' = 1 / sqrt(1 - sinh^2 y),
    and meets the zero u = i asinh 1 of g_11 = 1 + sin^2 u at tau*. With
    sinh y = sin t the integrand is smooth: int_0^{pi/2} cos^2 t / sqrt(1 + sin^2 t) dt.
    """
    x, w = np.polynomial.legendre.leggauss(40)
    t = (x + 1.0) * math.pi / 4.0
    return math.pi / 4.0 * float(np.sum(w * np.cos(t) ** 2 / np.sqrt(1.0 + np.sin(t) ** 2)))


MERIDIAN_TAU = _meridian_singular_time()


def meridian(speed):
    """The meridian of surface_of_revolution through its widest parallel, at the given speed."""
    return PhasePoint("main", [0.0, 0.0], [speed, 0.0])


OMEGA4 = np.block(
    [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
).astype(complex)


def test_field_is_hamiltonian_field_of_energy():
    # (dE/dp, -dE/dq) by dual channels through the energy, against the field
    q = np.array([1.1 + 0.1j, 0.4 - 0.2j])
    p = np.array([0.3 + 0.05j, -0.7 + 0.1j])
    cases = [
        (catalog("round_sphere", radius=1.3), "a"),
        (catalog("round_sphere", radius=1.3), "b"),
        (catalog("surface_of_revolution"), "main"),
    ]
    for model, cid in cases:
        qs = [variable(q[i], i, 4) for i in range(2)]
        ps = [variable(p[i], 2 + i, 4) for i in range(2)]
        grad = energy(model, cid, qs, ps).c[1:, 0]
        dq, dp = hamiltonian_vector_field(model, cid, list(q), list(p))
        assert np.max(np.abs(np.array(dq) - grad[2:])) < 1e-13
        assert np.max(np.abs(np.array(dp) + grad[:2])) < 1e-13


def _series_by_order(model, cid, q, p, D, u, order, R):
    # reference: coefficient k+1 is coefficient k of the field on the series
    # known through order k, one field evaluation per order
    n = q.shape[0]
    c = np.zeros((2 * n, R, order + 1), dtype=complex)
    c[:n, 0, 0], c[n:, 0, 0] = q, p
    if R > 1:
        c[:, 1:, 0] = D
    for k in range(order):
        zs = [jets.Jet(c[i, :, : k + 1].copy()) for i in range(2 * n)]
        dq, dp = hamiltonian_vector_field(model, cid, zs[:n], zs[n:])
        for i, x in enumerate(dq + dp):
            if isinstance(x, jets.Jet):
                c[i, : x.R, k + 1] = u * x.c[:, k] / (k + 1)
            elif k == 0:
                c[i, 0, 1] = u * x
    return c


def test_series_build_matches_order_by_order_recurrence():
    rng = np.random.default_rng(3)
    u = np.exp(0.7j)
    p = np.array([0.3 + 0.1j, -0.7 + 0.05j])
    cases = [
        (catalog("round_sphere"), "a", [1.2, 0.3]),
        (catalog("round_sphere"), "b", [1.4, -0.5]),
        (catalog("surface_of_revolution"), "main", [0.4, -1.0]),
        (catalog("flat_torus"), "main", [0.2, 0.5]),
    ]
    for model, cid, q in cases:
        # two lanes with their own start, jacobian and direction
        qs = np.array([q, q]) + np.array([[0.05j], [0.1 - 0.05j]])
        ps = np.array([p, 0.5 * p])
        us = np.array([u, np.conj(u)])
        for order in (16, 40):
            for R in (1, 5):
                Ds = (rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
                      if R > 1 else None)
                got = flow_module._taylor_series(model, cid, qs, ps, Ds, us, order)
                for b in range(2):
                    D = Ds[b] if R > 1 else None
                    want = _series_by_order(model, cid, qs[b], ps[b], D, us[b], order, R)
                    assert np.max(np.abs(got[b] - want)) <= 1e-12 * np.max(np.abs(want))


def _reference_field_series(model, cid, z, L, N):
    # the field series with all 2n channels seeded with the identity, so
    # every column of A = DX comes from the channels
    B, _, m = z.shape
    n = m // 2
    c = np.zeros((m, B, 1 + m, N), dtype=complex)
    c[:, :, 0, :L] = z[:, :L].transpose(2, 0, 1)
    for a in range(m):
        c[a, :, 1 + a, 0] = 1.0
    zs = [jets.Jet(c[a] if B > 1 else c[a, 0]) for a in range(m)]
    dq, dp = hamiltonian_vector_field(model, cid, zs[:n], zs[n:])
    X = np.zeros((B, N, m), dtype=complex)
    Ahat = np.zeros((B, m, N, m), dtype=complex)
    for i, x in enumerate(dq + dp):
        if not isinstance(x, jets.Jet):
            X[:, 0, i] = x
            continue
        X[:, :, i] = x.c[..., 0, :]
        if x.R > 1:
            Ahat[:, i] = x.c[..., 1:, ::-1].swapaxes(-1, -2)
    return X, Ahat.reshape(B, m, N * m)


def _skew_metric(consistent=True):
    """One chart with g_01 != 0 and dg_l off the diagonal.

    With ``consistent=False`` dg is not the derivative of g and d_0 g is not
    symmetric: the field is still defined by g^-1 and dg as written.
    """
    def metric_fn(qs):
        s0, c0 = jets.sincos(qs[0])
        s1, c1 = jets.sincos(qs[1])
        s01, c01 = jets.sincos(qs[0] + qs[1])
        g01 = 0.4 * c01
        g = [[2.0 + 0.3 * s0, g01], [g01, 1.5 + 0.2 * c1]]
        d01 = -0.4 * s01
        dg = [[[0.3 * c0, d01 if consistent else d01 + 0.1 * c1], [d01, 0.0]],
              [[0.0, d01], [d01, -0.2 * s1]]]
        return g, dg

    chart = Chart(id="main", lo=np.array([-4.0, -4.0]), hi=np.array([4.0, 4.0]),
                  periodic=np.array([False, False]))
    return MetricModel("skew", 2, {}, [chart], "main", {"main": metric_fn})


@pytest.mark.parametrize("B", [1, 3])
def test_field_series_matches_all_channel_reference(B):
    # position channels and chain-rule momentum columns against seeding all
    # 2n channels, at every pass length of a variational step and of a state step
    rng = np.random.default_rng(11)
    cases = [
        (catalog("round_sphere"), "a", [1.2, 0.3]),
        (catalog("round_sphere"), "b", [1.4, -0.5]),
        (catalog("surface_of_revolution"), "main", [0.4, -1.0]),
        (catalog("flat_torus"), "main", [0.2, 0.5]),
        (_skew_metric(), "main", [0.3, -0.6]),
        (_skew_metric(consistent=False), "main", [0.3, -0.6]),
    ]
    for model, cid, q in cases:
        z = 0.1 * (rng.standard_normal((B, 17, 4)) + 1j * rng.standard_normal((B, 17, 4)))
        z[:, 0, :2] = np.array(q) + 0.1j * rng.standard_normal((B, 2))
        z[:, 0, 2:] = [0.6 + 0.1j, -0.5 + 0.2j]
        for L, N in ((1, 1), (2, 3), (4, 7), (8, 15), (16, 16), (2, 4), (4, 8), (8, 16)):
            got = flow_module._field_series(model, cid, z, L, N)
            want = _reference_field_series(model, cid, z, L, N)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), (model.name, L, N)


# the kernel's models and charts, with a start point in each
KERNEL_CASES = [
    ("flat_torus", "main", [0.2, 0.5]),
    ("round_sphere", "a", [1.2, 0.3]),
    ("round_sphere", "b", [1.4, -0.5]),
    ("surface_of_revolution", "main", [0.4, -1.0]),
]


def _build_passes(model, cid, q, B, D, order, field=flow_module._field_series):
    """Each pass (z, L, N, exact) of one Taylor build of B lanes from q by ``field``, and the build.

    One lane is built without a lane axis, as the kernel builds it.
    """
    rng = np.random.default_rng(B + order)
    qs = np.array(q) + 0.05 * (rng.standard_normal((B, 2)) + 1j * rng.standard_normal((B, 2)))
    ps = np.array([0.3 + 0.1j, -0.7 + 0.05j]) * (0.5 + rng.random((B, 1)))
    passes = []

    def recorded(model, cid, z, L, N, exact=None):
        passes.append((z.copy(), L, N, exact))
        return field(model, cid, z, L, N, exact)

    Ds = None if D is None else np.broadcast_to(D, (B, 4, 4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_module, "_field_series", recorded)
        coeffs = flow_module._taylor_series(model, cid, qs, ps, Ds, np.exp(1j * rng.random(B)), order)
    return passes, coeffs


def _zero_channel_field_series(model, cid, z, L, N, exact):
    """The field series with zero channel rows on the momentum jets: the reference.

    The position jets are seeded with ``exact`` channel orders.
    """
    B, _, m = z.shape
    n = m // 2
    c = np.zeros((m, B, 1 + n, N), dtype=complex)
    c[:, :, 0, :L] = z[:, :L].transpose(2, 0, 1)
    for a in range(n):
        c[a, :, 1 + a, 0] = 1.0
    zs = [jets.Jet(c[a] if B > 1 else c[a, 0], exact) for a in range(m)]
    _, gi, dg = model.metric(cid, zs[:n])
    dq, dp = flow_module._field_from_metric(gi, dg, zs[n:])
    X = np.zeros((B, N, m), dtype=complex)
    Ahat = np.zeros((B, m, N, m), dtype=complex)
    for i, x in enumerate(dq + dp):
        if isinstance(x, jets.Jet):
            X[:, :, i] = x.c[..., 0, :]
            Ahat[:, i, :, :n] = x.c[..., 1:, ::-1].swapaxes(-1, -2)
        else:
            X[:, 0, i] = x
    for i, row in enumerate(flow_module._momentum_columns(gi, dg, dq, exact)):
        for a, x in enumerate(row):
            if isinstance(x, jets.Jet):
                Ahat[:, i, N - exact :, n + a] = x.c[..., 0, ::-1]
            else:
                Ahat[:, i, N - 1, n + a] = x
    return X, Ahat.reshape(B, m, N * m)


@pytest.mark.parametrize("B", [1, 7])
def test_momentum_jets_without_channels_equal_zero_channel_rows(B):
    # every pass of state-only builds at orders 16 and 40 and of a variational
    # build, against momentum jets with zero channel rows and the channel
    # orders each pass reads: N - L state-only, all N variational
    for name, cid, q in KERNEL_CASES:
        model = catalog(name)
        for D, order in ((None, 16), (None, 40), (np.eye(4), 16)):
            passes, _ = _build_passes(model, cid, q, B, D, order)
            for z, L, N, exact in passes:
                orders = N - L if D is None else N
                got = flow_module._field_series(model, cid, z, L, N, exact)
                want = _zero_channel_field_series(model, cid, z, L, N, orders)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (name, cid, order, L, N)


@pytest.mark.parametrize("B", [1, 7])
def test_state_only_pass_computes_the_orders_it_reads(B):
    # X to the bit and A_j for j < N - L within 4 ulp of a full-channel pass;
    # A_j for j >= N - L is not computed. An ulp is 2^-52 times the largest
    # |A_j| entry of the lane.
    m = 4
    for name, cid, q in KERNEL_CASES:
        model = catalog(name)
        for order in (16, 40):
            passes, _ = _build_passes(model, cid, q, B, None, order)
            for z, L, N, exact in passes:
                K = N - L
                X, Ahat = flow_module._field_series(model, cid, z, L, N, exact)
                X_full, Ahat_full = flow_module._field_series(model, cid, z, L, N)
                assert np.array_equal(X, X_full)
                # blocks A_{N-1}, ..., A_0: the last K are the orders read
                A = Ahat.reshape(B, m, N, m)
                A_full = Ahat_full.reshape(B, m, N, m)[:, :, N - K :]
                assert not np.any(A[:, :, : N - K]), (name, cid, L, N)
                ulp = np.finfo(float).eps * np.abs(A_full).max(axis=(1, 3), keepdims=True)
                assert np.all(np.abs(A[:, :, N - K :] - A_full) <= 4 * ulp), (name, cid, L, N)


@pytest.mark.parametrize("B", [1, 7])
def test_state_only_build_matches_a_full_channel_build(B):
    field = flow_module._field_series

    def full(model, cid, z, L, N, exact=None):
        return field(model, cid, z, L, N)

    for name, cid, q in KERNEL_CASES:
        model = catalog(name)
        for order in (16, 40):
            _, got = _build_passes(model, cid, q, B, None, order)
            _, want = _build_passes(model, cid, q, B, None, order, field=full)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), (name, cid, order)


@pytest.mark.parametrize("B", [1, 7])
def test_variational_build_computes_every_order(B):
    # every pass of a variational build is the full-channel pass, to the bit,
    # and feeds all N orders of A; a state-only build reads N - L per pass
    for name, cid, q in KERNEL_CASES:
        model = catalog(name)
        for order in (16, 40):
            passes, _ = _build_passes(model, cid, q, B, np.eye(4), order)
            for z, L, N, exact in passes:
                got = flow_module._field_series(model, cid, z, L, N, exact)
                want = flow_module._field_series(model, cid, z, L, N)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (name, cid, order, L, N)
            state, _ = _build_passes(model, cid, q, B, None, order)
            assert [exact for *_, exact in state] == (
                [1, 3, 7, 1] if order == 16 else [1, 3, 7, 15, 9])


def test_variational_step_costs_five_field_evaluations(monkeypatch):
    calls = []
    field = flow_module._field_from_metric

    def counted(*args):
        calls.append(1)
        return field(*args)

    # the kernel evaluates the field from its metric: one call per evaluation
    monkeypatch.setattr(flow_module, "_field_from_metric", counted)
    sph = catalog("round_sphere")
    r = flow(sph, PhasePoint("a", [1.2, 0.4], [0.6, 0.5]), sigma=1.0 + 0.5j, variational=True)
    assert r.diagnostics.steps >= 3
    assert len(calls) == 5 * r.diagnostics.steps


def test_one_sincos_recurrence_per_field_evaluation(monkeypatch):
    # g, g^-1 and dg come from one metric evaluator call, so the sin/cos
    # series recurrence runs once per field evaluation on the curved models
    calls = []
    recurrence = jets._sincos_series

    def counted(f):
        calls.append(1)
        return recurrence(f)

    monkeypatch.setattr(jets, "_sincos_series", counted)
    rng = np.random.default_rng(5)
    cases = [
        (catalog("round_sphere"), "a", [1.2, 0.4], 1),
        (catalog("round_sphere"), "b", [1.2, 0.4], 1),
        (catalog("surface_of_revolution"), "main", [0.6, 2.0], 1),
        (catalog("flat_torus"), "main", [0.6, 2.0], 0),
    ]
    for model, cid, q, expected in cases:
        zs = []
        for a, x0 in enumerate(q + [0.3, -0.5]):
            c = 0.1 * (rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6)))
            c[:, 0] = 0.0
            c[0, 0], c[1 + a, 0] = x0, 1.0
            zs.append(jets.Jet(c))
        calls.clear()
        hamiltonian_vector_field(model, cid, zs[:2], zs[2:])
        assert len(calls) == expected, (model.name, cid)


def test_flat_flow_is_exact_single_step():
    flat = catalog("flat_space", dim=2)
    z = PhasePoint("main", [1.0, -2.0], [0.5, 0.25])
    r = flow(flat, z, sigma=0.7 + 2.0j, variational=True)
    assert r.diagnostics.steps == 1
    assert np.array_equal(r.point.q, np.array([1.0, -2.0]) + (0.7 + 2.0j) * np.array([0.5, 0.25]))
    assert np.array_equal(r.point.p, z.p)
    n = 2
    expected = np.eye(4, dtype=complex)
    expected[:n, n:] = (0.7 + 2.0j) * np.eye(2)
    assert np.max(np.abs(r.jacobian - expected)) < 1e-15


def test_torus_flow_wraps_and_matches_oracle():
    torus = catalog("flat_torus")
    z = PhasePoint("main", [0.2, -0.4], [2.0, 1.5])
    sig = 4.0 + 5.0j
    r = flow(torus, z, sigma=sig)
    _, q_or, p_or = torus.oracle.state_flow("main", z.q, z.p, sig)
    assert phase_residual(torus, r.point, PhasePoint("main", q_or, p_or)) < 1e-12
    assert -math.pi <= r.point.q[0].real < math.pi


def test_sphere_real_flow_matches_solve_ivp_and_closed_form():
    sph = catalog("round_sphere", radius=1.0)
    q0 = np.array([math.pi / 2, 0.3])
    p0 = np.array([0.4, 0.9])
    tau = 0.8

    def rhs(t, y):
        dq, dp = hamiltonian_vector_field(sph, "a", list(y[:2]), list(y[2:]))
        return np.array(dq + dp).real

    ivp = solve_ivp(rhs, (0, tau), np.concatenate([q0, p0]), method="DOP853",
                    rtol=1e-12, atol=1e-13, dense_output=True)
    r = flow(sph, PhasePoint("a", q0, p0), sigma=tau)
    y_end = ivp.y[:, -1]
    assert phase_residual(sph, r.point, PhasePoint("a", y_end[:2], y_end[2:])) < 1e-9
    cid, q_or, p_or = sph.oracle.state_flow("a", q0, p0, tau)
    assert phase_residual(sph, r.point, PhasePoint(cid, q_or, p_or)) < 1e-10


def test_surface_of_revolution_real_flow_matches_solve_ivp():
    m = catalog("surface_of_revolution")
    q0 = np.array([0.4, -1.0])
    p0 = np.array([0.7, 1.1])
    tau = 1.2

    def rhs(t, y):
        dq, dp = hamiltonian_vector_field(m, "main", list(y[:2]), list(y[2:]))
        return np.array(dq + dp).real

    ivp = solve_ivp(rhs, (0, tau), np.concatenate([q0, p0]), method="DOP853",
                    rtol=1e-12, atol=1e-13)
    r = flow(m, PhasePoint("main", q0, p0), sigma=tau)
    y_end = ivp.y[:, -1]
    assert phase_residual(m, r.point, PhasePoint("main", y_end[:2], y_end[2:])) < 1e-9


def test_sphere_complex_flow_matches_closed_form():
    sph = catalog("round_sphere", radius=1.2)
    q0 = np.array([1.2, -0.5])
    p0 = np.array([0.5, 0.8])
    for sig in (0.4 + 0.8j, 1.0j, -0.9 + 0.3j):
        r = flow(sph, PhasePoint("a", q0, p0), sigma=sig)
        cid, q_or, p_or = sph.oracle.state_flow("a", q0, p0, sig)
        assert phase_residual(sph, r.point, PhasePoint(cid, q_or, p_or)) < 1e-9
        assert r.diagnostics.energy_drift < 1e-10


def test_far_imaginary_flow_matches_the_closed_form_in_world_coordinates():
    # the sphere's geodesic through P0 with velocity V0 is
    # cos(rho sigma) P0 + sin(rho sigma) / rho V0 in 3-space, at any complex
    # sigma; far off the real slice the flow keeps to it, where the oracle's
    # chart point does not (see SphereOracle.state_flow)
    sph = catalog("round_sphere")
    q0, p0 = np.array([1.0, 0.5]), np.array([3.0, 4.0])
    v0 = metric_inv_matrix(sph, "a", q0) @ p0
    P0, V0 = push_through(lambda qs: sph.embedding.to_world("a", qs), q0, v0[:, None])
    rho = np.sqrt(v0 @ p0)
    for sig in (3j, 10j):
        want = np.cos(rho * sig) * P0 + np.sin(rho * sig) / rho * V0[:, 0]
        r = flow(sph, PhasePoint("a", q0, p0), sigma=sig)
        got = np.array(sph.embedding.to_world(r.point.chart_id, r.point.q))
        assert np.linalg.norm(got - want) < 1e-10 * np.linalg.norm(want), sig


def test_energy_conserved_along_dogleg():
    m = catalog("surface_of_revolution")
    z = PhasePoint("main", [0.3, 0.9], [0.8, -0.6])
    path = SigmaPath.via(0.5, 0.5 + 0.45j)
    r = flow(m, z, path=path)
    assert r.diagnostics.energy_drift < 1e-10


def test_path_independence_straight_vs_dogleg():
    m = catalog("surface_of_revolution")
    z = PhasePoint("main", [0.3, 0.9], [0.8, -0.6])
    sig = 0.5 + 0.45j
    direct = flow(m, z, sigma=sig)
    bent = flow(m, z, path=SigmaPath.via(0.5, sig))
    bent2 = flow(m, z, path=SigmaPath.via(0.45j, sig))
    assert phase_residual(m, direct.point, bent.point) < 1e-10
    assert phase_residual(m, direct.point, bent2.point) < 1e-10


def test_reality_symmetry_conjugate_time():
    # real data: state at conjugate time is the conjugate state
    m = catalog("surface_of_revolution")
    z = PhasePoint("main", [0.2, -0.8], [0.9, 0.4])
    sig = 0.35 + 0.5j
    a = flow(m, z, sigma=sig).point
    b = flow(m, z, sigma=np.conj(sig)).point
    assert np.max(np.abs(a.q - np.conj(b.q))) < 1e-11
    assert np.max(np.abs(a.p - np.conj(b.p))) < 1e-11


def test_jacobian_symplectic_and_matches_fd():
    sph = catalog("round_sphere")
    q0 = np.array([math.pi / 2, 0.0])
    p0 = np.array([0.2, 0.7])
    sig = 0.3 + 0.4j
    r = flow(sph, PhasePoint("a", q0, p0), sigma=sig, variational=True)
    D = r.jacobian
    assert np.max(np.abs(D.T @ OMEGA4 @ D - OMEGA4)) < 1e-10
    h = 1e-6
    for c in range(4):
        e = np.zeros(4)
        e[c] = 1.0
        zp = PhasePoint("a", q0 + h * e[:2], p0 + h * e[2:])
        zm = PhasePoint("a", q0 - h * e[:2], p0 - h * e[2:])
        rp = flow(sph, zp, sigma=sig).point
        rm = flow(sph, zm, sigma=sig).point
        col = np.concatenate([(rp.q - rm.q) / (2 * h), (rp.p - rm.p) / (2 * h)])
        assert np.max(np.abs(D[:, c] - col)) < 2e-8


def test_variational_flow_through_chart_transition():
    sph = catalog("round_sphere")
    # geodesic aimed at the theta ~ 0 pole of chart a
    z = PhasePoint("a", [math.pi / 2, 0.1], [-1.0, 0.05])
    r = flow(sph, z, sigma=2.0, variational=True)
    assert r.diagnostics.transitions >= 1
    assert r.point.chart_id != "a" or r.diagnostics.transitions >= 2
    D = r.jacobian
    assert np.max(np.abs(D.T @ OMEGA4 @ D - OMEGA4)) < 1e-9
    cid, q_or, p_or = sph.oracle.state_flow("a", z.q, z.p, 2.0)
    assert phase_residual(sph, r.point, PhasePoint(cid, q_or, p_or)) < 1e-9


@settings(max_examples=15, deadline=None)
@given(
    s1r=st.floats(-0.5, 0.5), s1i=st.floats(-0.35, 0.35),
    s2r=st.floats(-0.5, 0.5), s2i=st.floats(-0.35, 0.35),
    ptheta=st.floats(-0.8, 0.8), pphi=st.floats(-0.8, 0.8),
)
def test_flow_group_law(s1r, s1i, s2r, s2i, ptheta, pphi):
    sph = catalog("round_sphere")
    z = PhasePoint("a", [math.pi / 2, 0.0], [ptheta, pphi])
    res = flow_group_residual(sph, z, complex(s1r, s1i), complex(s2r, s2i))
    assert res < 1e-10


def test_scaling_conjugation():
    for model, cid, q0, p0 in [
        (catalog("round_sphere"), "a", [1.3, 0.2], [0.5, 0.4]),
        (catalog("surface_of_revolution"), "main", [0.1, 0.4], [0.6, -0.3]),
    ]:
        z = PhasePoint(cid, q0, p0)
        for c in (0.5, 2.0):
            for sig in (0.4j, 0.3 + 0.3j):
                assert scaling_conjugation_residual(model, z, c, sig) < 1e-10


def test_zero_section_jacobian_blocks():
    # along the zero section the flow is linear: q fixed, jacobian [[I, s g^-1], [0, I]]
    sph = catalog("round_sphere", radius=1.5)
    q0 = np.array([1.1, 0.7])
    z = PhasePoint("a", q0, [0.0, 0.0])
    from grauert.geometry import metric_inv_matrix

    gi = metric_inv_matrix(sph, "a", q0)
    for sig in (0.3, 1.0, 2.0):
        r = flow(sph, z, sigma=complex(sig), variational=True)
        assert np.max(np.abs(r.point.q - q0)) < 1e-12
        D = r.jacobian
        expected = np.eye(4, dtype=complex)
        expected[:2, 2:] = sig * gi
        assert np.max(np.abs(D - expected)) < 1e-9


def test_sphere_flows_to_i_match_the_oracle():
    # the adapted structure of the round sphere lives on the whole tangent
    # bundle: speed-2 flows (the equatorial one has Im phi = 2 tau) and a
    # slower one reach sigma = i and agree with the closed-form flow
    sph = catalog("round_sphere")
    for p in ([0.0, 2.0], [1.2, 1.6], [0.6, 0.8]):
        z = PhasePoint("a", [math.pi / 2, 0.0], p)
        r = flow(sph, z, sigma=1.0j)
        want = PhasePoint(*sph.oracle.state_flow("a", z.q, z.p, 1.0j))
        assert phase_residual(sph, r.point, want) < 1e-12, p
        assert r.diagnostics.energy_drift < 1e-10


def test_singularity_surface_meridian():
    # the step rule finds the zero of g_11 on the unit meridian's path
    m = catalog("surface_of_revolution")
    z = meridian(1.0)
    with pytest.raises(SingularityError) as exc:
        flow(m, z, sigma=1.0j)
    assert exc.value.reason == "step collapse"
    assert abs(exc.value.last_good_sigma - 1j * MERIDIAN_TAU) < 1e-6
    r = flow(m, z, sigma=0.5j)
    assert abs(r.point.q[0].real) < 1e-12 and 0 < r.point.q[0].imag < math.asinh(1.0)


def test_flat_box_exit_raises():
    flat = catalog("flat_space", dim=2)
    z = PhasePoint("main", [0.0, 0.0], [3.0, 4.0])
    with pytest.raises(SingularityError):
        flow(flat, z, sigma=6.0)


def test_dense_sampling():
    sph = catalog("round_sphere")
    z = PhasePoint("a", [1.2, 0.4], [0.3, 0.5])
    r = flow(sph, z, sigma=0.9j)
    rows = r.sample(11)
    assert len(rows) == 11
    assert abs(rows[0][0]) < 1e-14
    assert abs(rows[-1][0] - 0.9j) < 1e-12
    assert phase_residual(sph, rows[-1][1], r.point) < 1e-12
    e0 = None
    from grauert.geometry import energy

    for sig, pt in rows:
        e = energy(sph, pt.chart_id, pt.q, pt.p)
        e0 = e if e0 is None else e0
        assert abs(e - e0) < 1e-10


def test_every_flow_keeps_its_segments():
    # there is no switch for dense output: a flow that breaks down keeps its
    # accepted steps, and so do the lanes of extend's flow route
    from grauert.extend import extend_by_flow_lanes, torus_trig

    surf = catalog("surface_of_revolution")
    z = meridian(1.0)
    with pytest.raises(SingularityError) as exc:
        flow(surf, z, sigma=-2j)
    err = exc.value
    assert err.reason == "step collapse"
    segs = err.segments
    assert segs and segs[-1].t0_global + segs[-1].dt == abs(err.last_good_sigma)
    wave = torus_trig("wave", {(1, 0): 1.0})
    (lane,) = extend_by_flow_lanes(surf, wave, [z], path=SigmaPath.straight(-2j))
    assert isinstance(lane, SingularityError)
    assert len(lane.segments) == len(segs)
    for a, b in zip(lane.segments, segs):
        assert a.dt == b.dt and np.array_equal(a.coeffs, b.coeffs)


def test_path_validation():
    with pytest.raises(ValueError):
        SigmaPath(np.array([0.5, 1.0]))
    flat = catalog("flat_space")
    z = PhasePoint("main", [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        flow(flat, z)
    with pytest.raises(ValueError):
        flow(flat, z, sigma=1.0, path=SigmaPath.straight(1.0))


# -- lane batches ----------------------------------------------------------------


def _assert_same_flow(lane, alone):
    """A lane of a batch against the same lane flowed alone, bit for bit."""
    assert type(lane) is type(alone)
    if isinstance(alone, ChartDomainError):
        assert str(lane) == str(alone)
        return
    if isinstance(alone, SingularityError):
        assert lane.reason == alone.reason
        assert lane.last_good_sigma == alone.last_good_sigma
        assert str(lane) == str(alone)
    else:
        a, b = lane.diagnostics, alone.diagnostics
        assert lane.point.chart_id == alone.point.chart_id and lane.sigma == alone.sigma
        assert np.array_equal(lane.point.q, alone.point.q)
        assert np.array_equal(lane.point.p, alone.point.p)
        assert np.array_equal(lane.jacobian, alone.jacobian)
        assert (a.steps, a.transitions, a.min_step) == (b.steps, b.transitions, b.min_step)
        assert (a.energy_initial, a.energy_final) == (b.energy_initial, b.energy_final)
    assert len(lane.segments) == len(alone.segments)
    for s, t in zip(lane.segments, alone.segments):
        assert (s.chart_id, s.sigma0, s.direction) == (t.chart_id, t.sigma0, t.direction)
        assert (s.dt, s.t0_global) == (t.dt, t.t0_global)
        assert np.array_equal(s.coeffs, t.coeffs)


def _outcome(lane):
    if isinstance(lane, ChartDomainError):
        return "outside its chart"
    if isinstance(lane, SingularityError):
        return lane.reason
    return "transition" if lane.diagnostics.transitions else "finished"


# every way a flow_lanes lane can end
OUTCOMES = {"finished", "transition", "non-finite series", "non-finite energy", "chart box",
            "step collapse", "step budget", "outside its chart"}


def test_breakdown_reasons_in_the_docstring_are_the_kernel_outcomes():
    # a quote may wrap across docstring lines
    quoted = {" ".join(q.split()) for q in re.findall(r'"([^"]+)"', SingularityError.__doc__)}
    assert quoted == OUTCOMES - {"finished", "transition", "outside its chart"}


def test_lanes_match_single_flows(monkeypatch):
    # a lane gives, to the bit, what it gives alone, whatever the other lanes
    # of its batch do; each batch mixes outcomes, and together they cover all
    from grauert.verify import sample_tube_points

    monkeypatch.setattr(flow_module, "MAX_STEPS", 100)
    sph = catalog("round_sphere")
    # (model, path shared by the batch or None, [(point, sigma, outcome), ...])
    batches = [
        (sph, None, [
            # aimed at chart a's pole: moves to chart b
            (PhasePoint("a", [math.pi / 2, 0.1], [-1.0, 0.05]), 2.0, "transition"),
            # still stepping in chart b when the lane above moves there
            (PhasePoint("b", [1.0, 0.3], [0.2, 0.1]), 10.0, "finished"),
            # a unit covector's imaginary ray, two units long
            (sample_tube_points(sph, 1, 7, 1.0, 1.0)[0], -2j, "finished"),
            (PhasePoint("a", [1.2, 0.4], [0.3, 0.5]), 0.9 - 0.4j, "finished"),
            # takes 139 steps alone
            (PhasePoint("a", [1.0, 0.3], [0.4, 0.3]), 40.0, "step budget"),
            # no legs
            (PhasePoint("b", [1.0, 0.3], [0.2, 0.1]), 0.0, "finished"),
            (PhasePoint("a", [0.01, 0.0], [0.1, 0.1]), 1.0, "outside its chart"),
            # far off the real slice, but inside the box
            (PhasePoint("a", [1.0 + 2.0j, 0.0], [0.1, 0.1]), 1.0, "finished"),
            # its last step ends at Im theta = 562, where sin(theta)^2 overflows
            (PhasePoint("a", [1.0, 0.5], [3.0, 4.0]), 100j, "non-finite energy"),
            (PhasePoint("z", [1.0, 0.0], [0.1, 0.1]), 1.0, "outside its chart"),
        ]),
        (sph, SigmaPath.via(1.5, 1.5 + 0.5j), [
            (PhasePoint("a", [1.2, 0.4], [0.3, 0.5]), None, "finished"),
            (PhasePoint("a", [math.pi / 2, 0.1], [-1.0, 0.05]), None, "transition"),
        ]),
        (catalog("surface_of_revolution"), None, [
            (PhasePoint("main", [0.4, -1.0], [0.7, 1.1]), 1.2, "finished"),
            (PhasePoint("main", [0.1, 0.4], [0.3, -0.2]), 1j, "finished"),
            (meridian(1.0), 1j, "step collapse"),
            # its series overflows at once
            (meridian(1e150), 1j, "non-finite series"),
        ]),
        (catalog("flat_torus"), None, [
            (PhasePoint("main", [0.2, -0.4], [2.0, 1.5]), 4.0 + 5.0j, "finished"),
            (PhasePoint("main", [3.0, 1.0], [0.5, -0.25]), -1j, "finished"),
        ]),
        (catalog("flat_space"), None, [
            (PhasePoint("main", [0.0, 0.0], [3.0, 4.0]), 6.0, "chart box"),
            (PhasePoint("main", [1.0, -1.0], [0.5, 0.5]), 2.0 + 1.0j, "finished"),
        ]),
        (_g11_is_q0(), None, [
            # aimed at q0 = 0, where the metric degenerates
            (PhasePoint("main", [0.5, 0.0], [-0.2, 0.1]), 5.0, "step collapse"),
            # on q0 = 0: the reciprocal of g11's series has no finite coefficient
            (PhasePoint("main", [0.0, 0.0], [0.1, 0.2]), 5.0, "non-finite series"),
            (PhasePoint("main", [1.0, 0.2], [0.1, 0.2]), 5.0, "finished"),
        ]),
    ]
    results = []
    for model, path, lanes in batches:
        points = [z for z, _, _ in lanes]
        kw = {"path": path} if path else {"sigma": [s for _, s, _ in lanes]}
        batch = flow_lanes(model, points, variational=True, **kw)
        for (z, s, outcome), lane in zip(lanes, batch):
            kw = {"path": path} if path else {"sigma": s}
            (alone,) = flow_lanes(model, [z], variational=True, **kw)
            _assert_same_flow(lane, alone)
            assert _outcome(lane) == outcome
        results.append(batch)
    assert {outcome for *_, lanes in batches for *_, outcome in lanes} == OUTCOMES
    sphere, via, surf = results[0], results[1], results[2]
    assert abs(surf[2].last_good_sigma - 1j * MERIDIAN_TAU) < 1e-6
    assert surf[3].last_good_sigma == 0 and surf[3].segments == []
    # the last good time of an overflow at the end is the start of the last step
    assert sphere[8].last_good_sigma == sphere[8].segments[-1].sigma0
    # the sigma = 0 lane took no step; the path's lanes stepped along both legs
    assert sphere[5].diagnostics.steps == 0 and not sphere[5].segments
    assert np.array_equal(sphere[5].jacobian, np.eye(4))
    assert {s.direction for s in via[0].segments} == {1.0, 1j}


def test_lane_batch_costs_five_field_evaluations_per_step(monkeypatch):
    calls = []
    field = flow_module._field_from_metric

    def counted(*args):
        calls.append(1)
        return field(*args)

    # the kernel evaluates the field from its metric: one call per evaluation
    monkeypatch.setattr(flow_module, "_field_from_metric", counted)
    sph = catalog("round_sphere")
    points = [PhasePoint("a", [1.2 + 0.1 * k, 0.4], [0.6 - 0.1 * k, 0.5]) for k in range(4)]
    results = flow_lanes(sph, points, sigma=1.0 + 0.5j, variational=True)
    steps = [r.diagnostics.steps for r in results]
    assert all(r.point.chart_id == "a" for r in results)
    assert sum(steps) > max(steps) >= 3
    # one field evaluation per doubling pass for all lanes together
    assert len(calls) == 5 * max(steps)


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _batch(model, lanes, **kw):
    """One flow_lanes call on (point, sigma) pairs."""
    return flow_lanes(model, [z for z, _ in lanes], sigma=[s for _, s in lanes], **kw)


def _assert_each_as_alone(model, lanes, batch, **kw):
    for (z, s), lane in zip(lanes, batch):
        _assert_same_flow(lane, flow_lanes(model, [z], sigma=s, **kw)[0])


# lanes on round_sphere that start in both charts and finish; the first two
# are aimed at their chart's pole and finish in the other chart
MIXED_SPHERE_LANES = [
    (PhasePoint("a", [math.pi / 2, 0.1], [-1.0, 0.05]), 2.0),
    (PhasePoint("b", [math.pi / 2, -0.2], [-1.0, 0.1]), 2.0),
    (PhasePoint("b", [1.0, 0.3], [0.2, 0.1]), 3.0),
    (PhasePoint("a", [1.2, 0.4], [0.3, 0.5]), 0.9 - 0.4j),
    (PhasePoint("b", [1.4, -0.2], [0.3, -0.4]), 1.5j),
]


def _unshared_sphere():
    """round_sphere with one evaluator object per chart, each calling the catalog's."""
    sph = catalog("round_sphere")

    def evaluator(cid):
        def metric_fn(qs):
            g, _, dg = sph.metric(cid, qs)
            return g, dg
        return metric_fn

    return MetricModel("round_sphere", 2, sph.params, list(sph.charts.values()), "a",
                       {cid: evaluator(cid) for cid in sph.charts}, sph.transition_coords)


def test_charts_of_one_evaluator_step_as_one_group(monkeypatch):
    # the sphere's two charts share one evaluator: every step of a batch with
    # lanes in both is one series build, and a lane gives what it gives alone
    sph = catalog("round_sphere")
    assert sph.evaluator_key == {"a": "a", "b": "a"}
    builds = _count_calls(monkeypatch, flow_module, "_lane_series")
    batch = _batch(sph, MIXED_SPHERE_LANES, variational=True)
    assert len(builds) == max(r.diagnostics.steps for r in batch)
    assert [r.point.chart_id for r in batch[:2]] == ["b", "a"]
    _assert_each_as_alone(sph, MIXED_SPHERE_LANES, batch, variational=True)


def test_charts_of_distinct_evaluators_build_apart(monkeypatch):
    # with one evaluator object per chart, each step builds once per chart
    # that holds a lane, and every lane is bit-equal to the shared model's
    sph, copy = catalog("round_sphere"), _unshared_sphere()
    assert copy.evaluator_key == {"a": "a", "b": "b"}
    shared = _batch(sph, MIXED_SPHERE_LANES, variational=True)
    builds = _count_calls(monkeypatch, flow_module, "_lane_series")
    apart = _batch(copy, MIXED_SPHERE_LANES, variational=True)
    charts_per_step = [{r.segments[k].chart_id for r in apart if len(r.segments) > k}
                       for k in range(max(len(r.segments) for r in apart))]
    assert len(builds) == sum(len(c) for c in charts_per_step) > len(charts_per_step)
    for lane, one in zip(apart, shared):
        _assert_same_flow(lane, one)


def _two_box_strip():
    """Two charts of one evaluator, r = 2 + cos(x) / 2, g = diag(1, r^2), with different boxes.

    west holds x in [-4, 1] and y in [-pi, pi), east x in [-1, 4] and y in
    [0, 2 pi), y periodic in both; the transition is the identity, so a
    lane's chart, wrap and box show in its coordinates.
    """
    def metric_fn(qs):
        s, c = jets.sincos(qs[0])
        r = 2.0 + 0.5 * c
        z = 0.0
        return [[1.0, z], [z, r * r]], [[[z, z], [z, -r * s]], [[z, z], [z, z]]]

    per = np.array([False, True])
    charts = [Chart("west", np.array([-4.0, -math.pi]), np.array([1.0, math.pi]), per),
              Chart("east", np.array([-1.0, 0.0]), np.array([4.0, 2 * math.pi]), per)]
    return MetricModel("two_box_strip", 2, {}, charts, "west",
                       {"west": metric_fn, "east": metric_fn}, lambda a, b, qs: list(qs))


def test_lanes_keep_their_own_chart_when_charts_share_an_evaluator(monkeypatch):
    # one series build serves lanes in both charts, but each lane wraps,
    # checks its box, changes chart, leaves its box and records its segments
    # in its own chart, bit-equal to a one-lane flow
    model = _two_box_strip()
    assert model.evaluator_key == {"west": "west", "east": "west"}
    lanes = [
        (PhasePoint("west", [-3.0, 3.0], [1.0, 0.3]), 6.0),  # east, across y = pi
        (PhasePoint("east", [3.0, 0.2], [-1.0, -0.3]), 6.0),  # west, across y = 0
        (PhasePoint("east", [2.0, 6.0], [0.5, 0.2]), 8.0),  # leaves east at x = 4
        (PhasePoint("west", [-2.0, -3.0], [-0.5, -0.2]), 8.0),  # leaves west at x = -4
        (PhasePoint("east", [0.0, 4.0], [0.2, 0.5]), 2.0),  # stays in east, past y = pi
    ]
    builds = _count_calls(monkeypatch, flow_module, "_lane_series")
    batch = _batch(model, lanes)
    assert len(builds) == max(len(r.segments) for r in batch)
    _assert_each_as_alone(model, lanes, batch)
    to_east, to_west, out_east, out_west, in_east = batch
    assert [_outcome(r) for r in batch] == ["transition"] * 2 + ["chart box"] * 2 + ["finished"]
    assert (to_east.point.chart_id, to_west.point.chart_id) == ("east", "west")
    charts_of = lambda lane: {s.chart_id for s in lane.segments}
    assert charts_of(to_east) == charts_of(to_west) == {"west", "east"}
    assert charts_of(out_east) == charts_of(in_east) == {"east"}
    # each exit is where the real part of x crosses the edge of its own box
    for lane, edge in ((out_east, 4.0), (out_west, -4.0)):
        seg, t = flow_module.segment_at(lane.segments, abs(lane.last_good_sigma))
        assert abs(seg.state_at(t)[0][0].real - edge) < 1e-9
    # wrapped into its own chart's y range
    assert math.pi < to_east.point.q[1].real < 2 * math.pi
    assert -math.pi <= to_west.point.q[1].real < 0.0
    assert math.pi < in_east.point.q[1].real < 2 * math.pi


def _g11_is_q0():
    """One chart, g = diag(q0, 1): singular where q0 = 0."""
    def metric_fn(qs):
        z = 0.0
        return [[qs[0], z], [z, 1.0]], [[[1.0, z], [z, z]], [[z, z], [z, z]]]

    chart = Chart(id="main", lo=np.array([-2.0, -2.0]), hi=np.array([2.0, 2.0]),
                  periodic=np.array([False, False]))
    return MetricModel("g11_is_q0", 2, {}, [chart], "main", {"main": metric_fn})


def test_singular_series_retires_one_lane():
    model = _g11_is_q0()
    good = [PhasePoint("main", [1.0, 0.2], [0.1, 0.2]), PhasePoint("main", [1.5, -0.3], [-0.2, 0.1])]
    bad = PhasePoint("main", [0.0, 0.0], [0.1, 0.2])
    first, broken, last = flow_lanes(model, [good[0], bad, good[1]], sigma=0.3,
                                     variational=True)
    assert isinstance(broken, SingularityError)
    assert broken.reason == "non-finite series"
    assert broken.last_good_sigma == 0
    assert broken.segments == []
    for lane, z in ((first, good[0]), (last, good[1])):
        _assert_same_flow(lane, flow(model, z, sigma=0.3, variational=True))
        assert lane.diagnostics.energy_drift < 1e-12
    # one flow raises the typed breakdown, not an arithmetic error
    with pytest.raises(SingularityError) as exc:
        flow(model, bad, sigma=0.3)
    assert exc.value.reason == "non-finite series"
    assert exc.value.last_good_sigma == 0


def test_step_collapse_retires_one_lane():
    # aimed at q0 = 0, where the metric degenerates, the series step shrinks
    # below the floor near sigma = 5/6; its sibling lane finishes
    model = _g11_is_q0()
    aimed = PhasePoint("main", [0.5, 0.0], [-0.2, 0.1])
    sibling = PhasePoint("main", [1.0, 0.2], [0.1, 0.2])
    broken, finished = flow_lanes(model, [aimed, sibling], sigma=5.0, variational=True)
    assert isinstance(broken, SingularityError)
    assert broken.reason == "step collapse"
    assert abs(broken.last_good_sigma - 5.0 / 6.0) < 1e-3
    assert broken.segments
    _assert_same_flow(finished, flow(model, sibling, sigma=5.0, variational=True))


def test_non_finite_series_retires_one_lane():
    # at speed 1e150 the series overflows on its first step: the lane breaks
    # down there, and no lane of its batch ends on a non-finite state
    surf = catalog("surface_of_revolution")
    good = [PhasePoint("main", [0.4, -1.0], [0.7, 1.1]), meridian(0.5)]
    points = [good[0], meridian(1e150), good[1], PhasePoint("main", [0.0, 0.0], [np.nan, 0.0])]
    for variational in (False, True):
        first, broken, last, nan = flow_lanes(surf, points, sigma=1j, variational=variational)
        for lane in (broken, nan):
            assert isinstance(lane, SingularityError)
            assert lane.reason == "non-finite series"
            assert lane.last_good_sigma == 0 and lane.segments == []
        for lane, z in ((first, good[0]), (last, good[1])):
            _assert_same_flow(lane, flow(surf, z, sigma=1j, variational=variational))
            assert np.isfinite(lane.point.q).all() and np.isfinite(lane.point.p).all()
            assert lane.jacobian is None or np.isfinite(lane.jacobian).all()


def test_step_budget_keeps_accepted_segments(monkeypatch):
    monkeypatch.setattr(flow_module, "MAX_STEPS", 2)
    sph = catalog("round_sphere")
    with pytest.raises(SingularityError) as exc:
        flow(sph, PhasePoint("a", [1.2, 0.4], [0.3, 0.5]), sigma=3.0)
    err = exc.value
    assert err.reason == "step budget"
    assert len(err.segments) == 2
    last = err.segments[-1]
    assert err.last_good_sigma == last.t0_global + last.dt


def test_step_sizes_are_scalar_powers(monkeypatch):
    # The step rule h = SAFETY * min((tol * max(1, a_0) / a_k) ** (1 / k)),
    # k = 16, 15, bit for bit with the powers taken on Python floats. numpy's
    # array power differs from the scalar pow in the last bit on some CPUs
    # (its SIMD loop on AVX-512), and a step that moves by an ulp moves every
    # output. The magnitudes are drawn where the two differ on this CPU; on a
    # CPU where they agree everywhere, an array power in the kernel gives the
    # same steps, and this test cannot see it.
    rng = np.random.default_rng(11)
    tol = flow_module.DEFAULT_TOL
    pool = 10.0 ** rng.uniform(-6.0, 6.0, 4000)
    mags = {}
    for k in (16, 15):
        ratio = tol / pool
        differ = np.power(ratio, 1.0 / k) != np.array([r ** (1.0 / k) for r in ratio.tolist()])
        picked = pool[differ][:20] if differ.any() else pool[:20]
        mags[k] = np.concatenate([picked, pool[-10:]])
    # each lane's series: its state, and magnitude a_16 at order 16 and a_15 at
    # order 15 (a zero drops the order from the rule)
    a16 = np.concatenate([mags[16], np.zeros(len(mags[15])), pool[100:130]])
    a15 = np.concatenate([np.zeros(len(mags[16])), mags[15], pool[200:230]])
    points = [PhasePoint("main", [i / 1000.0, 0.0], [0.5, 0.0]) for i in range(len(a16))]

    def series(model, chart_id, q, p, D, direction, order):
        lane = np.rint(q[:, 0].real * 1000.0).astype(int)
        c = np.zeros((len(q), 4, 1, order + 1), dtype=complex)
        c[:, :2, 0, 0], c[:, 2:, 0, 0] = q, p
        c[:, 0, 0, order], c[:, 1, 0, order - 1] = a16[lane], a15[lane]
        return c

    monkeypatch.setattr(flow_module, "_taylor_series", series)
    monkeypatch.setattr(flow_module, "MAX_STEPS", 1)
    lanes = flow_lanes(catalog("flat_space"), points, sigma=1e6)
    for lane, x16, x15 in zip(lanes, a16.tolist(), a15.tolist()):
        # max(|q|, |p|) <= 1, so the scale is tol
        cands = [(tol / x) ** (1.0 / k) for x, k in ((x16, 16), (x15, 15)) if x > 0]
        assert lane.reason == "step budget"
        assert lane.segments[0].dt == flow_module.SAFETY * min(cands)


def test_exit_point_is_that_of_bisection_on_eval_poly():
    # a lane that leaves its box is localized by 50 halvings of its last
    # step, its q read with eval_poly; the exits are pinned to the bit
    flat = catalog("flat_space")
    cases = [
        (flat, PhasePoint("main", [0.0, 0.0], [3.0, 4.0]), 6.0, 4.999999999999998),
        (flat, PhasePoint("main", [1.0, -1.0], [0.5, 2.0]), 20.0 + 5.0j,
         10.499999999999991 + 2.624999999999998j),
        # q0 grows along a curved path until it leaves the box at q0 = 2
        (_g11_is_q0(), PhasePoint("main", [1.0, 0.0], [0.5, 0.0]), 20.0, 2.4379028329949484),
    ]
    for model, z, sigma, exit_sigma in cases:
        (lane,) = flow_lanes(model, [z], sigma=sigma)
        assert lane.reason == "chart box"
        assert lane.last_good_sigma == exit_sigma
