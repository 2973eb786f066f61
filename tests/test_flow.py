"""Complex-time flow: exactness on flat models, oracle agreement, invariants, breakdown."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import grauert.flow as flow_module
from grauert import jets
from grauert.catalog import catalog
from grauert.errors import SingularityError
from grauert.geometry import Chart, MetricModel, energy
from grauert.flow import (
    PhasePoint,
    SigmaPath,
    flow,
    flow_group_residual,
    flow_lanes,
    hamiltonian_vector_field,
    phase_residual,
    scaling_conjugation_residual,
)

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
        qs = [jets.variable(q[i], i, 4) for i in range(2)]
        ps = [jets.variable(p[i], 2 + i, 4) for i in range(2)]
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


def test_variational_step_costs_five_field_evaluations(monkeypatch):
    calls = []
    field = flow_module.hamiltonian_vector_field

    def counted(*args):
        calls.append(1)
        return field(*args)

    monkeypatch.setattr(flow_module, "hamiltonian_vector_field", counted)
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


def test_singularity_sphere_margin():
    sph = catalog("round_sphere")
    # speed-2 equatorial geodesic: Im(phi) = 2 tau hits the pi/2 margin at tau = pi/4
    z = PhasePoint("a", [math.pi / 2, 0.0], [0.0, 2.0])
    with pytest.raises(SingularityError) as exc:
        flow(sph, z, sigma=1.0j)
    assert abs(exc.value.last_good_sigma - 1j * math.pi / 4) < 1e-6
    # generic speed-2 direction exits a little later
    z_mix = PhasePoint("a", [math.pi / 2, 0.0], [1.2, 1.6])
    with pytest.raises(SingularityError) as exc2:
        flow(sph, z_mix, sigma=1.4j)
    assert 0.9 <= exc2.value.last_good_sigma.imag <= 1.25
    # slower flows reach the same height without incident
    z_slow = PhasePoint("a", [math.pi / 2, 0.0], [0.6, 0.8])
    r = flow(sph, z_slow, sigma=1.0j)
    assert r.diagnostics.energy_drift < 1e-10


def test_singularity_surface_margin():
    m = catalog("surface_of_revolution")
    z = PhasePoint("main", [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(SingularityError) as exc:
        flow(m, z, sigma=1.0j)
    assert 0.3 <= exc.value.last_good_sigma.imag <= 0.75
    r = flow(m, z, sigma=0.5j)
    assert abs(r.point.q[0].imag) < 0.7


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
    from grauert.extend import extend_by_flow_lanes, sphere_ambient
    from grauert.verify import sample_tube_points

    sph = catalog("round_sphere")
    z = sample_tube_points(sph, 1, 7, 1.0, 1.0)[0]
    with pytest.raises(SingularityError) as exc:
        flow(sph, z, sigma=-2j)
    err = exc.value
    assert err.reason == "imaginary margin"
    segs = err.segments
    assert segs and segs[-1].t0_global < abs(err.last_good_sigma) <= segs[-1].t0_global + segs[-1].dt
    height = sphere_ambient(sph, "height", (0.0, 0.0, 1.0))
    (lane,) = extend_by_flow_lanes(sph, height, [z], path=SigmaPath.straight(-2j))
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


def _assert_same_flow(lane, alone, tol=1e-13):
    """A lane of a batch against the one-lane flow from the same point."""
    if isinstance(alone, SingularityError):
        assert isinstance(lane, SingularityError), lane
        assert lane.reason == alone.reason
        assert abs(lane.last_good_sigma - alone.last_good_sigma) <= tol
        segs_lane, segs_alone = lane.segments, alone.segments
    else:
        assert lane.point.chart_id == alone.point.chart_id
        assert np.max(np.abs(lane.point.q - alone.point.q)) <= tol
        assert np.max(np.abs(lane.point.p - alone.point.p)) <= tol
        assert np.max(np.abs(lane.jacobian - alone.jacobian)) <= tol
        assert lane.diagnostics.steps == alone.diagnostics.steps
        assert lane.diagnostics.transitions == alone.diagnostics.transitions
        segs_lane, segs_alone = lane.segments, alone.segments
    assert len(segs_lane) == len(segs_alone) > 0
    for a, b in zip(segs_lane, segs_alone):
        assert a.chart_id == b.chart_id
        assert abs(a.sigma0 - b.sigma0) <= tol and abs(a.dt - b.dt) <= tol
        assert a.coeffs.shape == b.coeffs.shape
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= tol * max(1.0, np.max(np.abs(b.coeffs)))


def test_lanes_match_single_flows():
    from grauert.verify import sample_tube_points

    sph = catalog("round_sphere")
    cases = [
        (sph, [
            # aimed at chart a's pole: moves to chart b
            (PhasePoint("a", [math.pi / 2, 0.1], [-1.0, 0.05]), 2.0),
            # the dense -2i ray of test_dense_breakdown_keeps_segments: leaves
            # the chart margin near -1.596i
            (sample_tube_points(sph, 1, 7, 1.0, 1.0)[0], -2j),
            (PhasePoint("a", [1.2, 0.4], [0.3, 0.5]), 0.9 - 0.4j),
        ]),
        (catalog("surface_of_revolution"), [
            (PhasePoint("main", [0.4, -1.0], [0.7, 1.1]), 1.2),
            (PhasePoint("main", [0.1, 0.4], [0.3, -0.2]), 1j),
        ]),
        (catalog("flat_torus"), [
            (PhasePoint("main", [0.2, -0.4], [2.0, 1.5]), 4.0 + 5.0j),
            (PhasePoint("main", [3.0, 1.0], [0.5, -0.25]), -1j),
        ]),
    ]
    batches = []
    for model, lanes in cases:
        batch = flow_lanes(model, [z for z, _ in lanes], sigma=[s for _, s in lanes],
                           variational=True)
        for (z, s), lane in zip(lanes, batch):
            try:
                alone = flow(model, z, sigma=s, variational=True)
            except SingularityError as e:
                alone = e
            _assert_same_flow(lane, alone)
        batches.append(batch)
    # the sphere batch has a transitioning lane and a broken one
    transitioned, broken, _ = batches[0]
    assert transitioned.diagnostics.transitions >= 1
    assert broken.reason == "imaginary margin"
    assert abs(broken.last_good_sigma + 1.596j) < 1e-3


def test_lane_batch_costs_five_field_evaluations_per_step(monkeypatch):
    calls = []
    field = flow_module.hamiltonian_vector_field

    def counted(*args):
        calls.append(1)
        return field(*args)

    monkeypatch.setattr(flow_module, "hamiltonian_vector_field", counted)
    sph = catalog("round_sphere")
    points = [PhasePoint("a", [1.2 + 0.1 * k, 0.4], [0.6 - 0.1 * k, 0.5]) for k in range(4)]
    results = flow_lanes(sph, points, sigma=1.0 + 0.5j, variational=True)
    steps = [r.diagnostics.steps for r in results]
    assert all(r.point.chart_id == "a" for r in results)
    assert sum(steps) > max(steps) >= 3
    # one field evaluation per doubling pass for all lanes together
    assert len(calls) == 5 * max(steps)


def _g11_is_q0():
    """One chart, g = diag(q0, 1): singular where q0 = 0."""
    def metric_fn(qs):
        z = 0.0
        return [[qs[0], z], [z, 1.0]], [[[1.0, z], [z, z]], [[z, z], [z, z]]]

    chart = Chart(id="main", lo=np.array([-2.0, -2.0]), hi=np.array([2.0, 2.0]),
                  periodic=np.array([False, False]), margin=np.array([np.inf, np.inf]))
    return MetricModel("g11_is_q0", 2, {}, [chart], "main", {"main": metric_fn})


def test_singular_series_retires_one_lane():
    model = _g11_is_q0()
    good = [PhasePoint("main", [1.0, 0.2], [0.1, 0.2]), PhasePoint("main", [1.5, -0.3], [-0.2, 0.1])]
    bad = PhasePoint("main", [0.0, 0.0], [0.1, 0.2])
    first, broken, last = flow_lanes(model, [good[0], bad, good[1]], sigma=0.3,
                                     variational=True)
    assert isinstance(broken, SingularityError)
    assert broken.reason == "singular series"
    assert broken.last_good_sigma == 0
    assert broken.segments == []
    for lane, z in ((first, good[0]), (last, good[1])):
        _assert_same_flow(lane, flow(model, z, sigma=0.3, variational=True))
        assert lane.diagnostics.energy_drift < 1e-12
    # one flow raises the typed breakdown, not an arithmetic error
    with pytest.raises(SingularityError) as exc:
        flow(model, bad, sigma=0.3)
    assert exc.value.reason == "singular series"
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
