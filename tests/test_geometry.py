"""Metric evaluators, Christoffel symbols, charts, and transitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grauert import jets
from grauert.catalog import catalog, round_sphere, surface_of_revolution
from grauert.errors import ChartDomainError, InvalidParamsError, UnknownModelError
from grauert.geometry import (
    christoffel,
    energy,
    metric_inv_matrix,
    metric_matrix,
    push_through,
    transition_phase,
)

OMEGA4 = np.block(
    [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
).astype(complex)

# hand-derived reference values, unit sphere coordinates (theta, phi)
GAMMA_SPHERE_T_PP = -0.4330127018922193  # -sin(pi/3) cos(pi/3)
# surface r(u) = 2 + cos(u) at u = pi/3: r = 2.5, r' = -sqrt(3)/2, r'' = -1/2
SURFREV_G_U_PP = 1.2371791482634837  # -r r' / (1 + r'^2)
SURFREV_G_P_UP = -0.34641016151377546  # r'/r
SURFREV_G_U_UU = 0.24743582965269675  # r'r'' / (1 + r'^2)


def fd5(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


# -- catalog construction -----------------------------------------------------


def test_catalog_dispatch_and_validation():
    assert catalog("flat_space", dim=3).dim == 3
    assert catalog("round_sphere", radius=2.0).params["radius"] == 2.0
    with pytest.raises(UnknownModelError):
        catalog("klein_bottle")
    with pytest.raises(InvalidParamsError):
        catalog("round_sphere", radius=-1.0)
    with pytest.raises(InvalidParamsError):
        catalog("round_sphere", dim=3)
    with pytest.raises(InvalidParamsError):
        catalog("surface_of_revolution", base=1.0, amp=1.5)
    with pytest.raises(InvalidParamsError):
        catalog("flat_torus", periods=(0.0, 1.0))


def test_chart_boxes_and_wrap():
    sph = catalog("round_sphere")
    ch = sph.chart("a")
    assert ch.contains_re(np.array([1.0, 9.9]))  # phi periodic, never rejected
    assert not ch.contains_re(np.array([0.01, 0.0]))
    assert ch.in_safe_interior(np.array([math.pi / 2, 0.0]))
    assert not ch.in_safe_interior(np.array([0.2, 0.0]))
    q = ch.wrap(np.array([1.0 + 0.2j, 7.0 - 0.1j]))
    assert abs(q[0] - (1.0 + 0.2j)) < 1e-15
    assert -math.pi <= q[1].real < math.pi
    assert abs(q[1].imag + 0.1) < 1e-15
    with pytest.raises(ChartDomainError):
        sph.require_inside("a", np.array([1.0 + 2.0j, 0.0]))
    with pytest.raises(ChartDomainError):
        sph.require_inside("z", np.array([1.0, 0.0]))


# -- energy and Christoffel ----------------------------------------------------


def test_energy_values():
    flat = catalog("flat_space", dim=2)
    assert energy(flat, "main", np.array([0.3, -1.0]), np.array([3.0, 4.0])) == 12.5
    sph = catalog("round_sphere")
    e = energy(sph, "a", np.array([math.pi / 2, 0.0]), np.array([0.0, 1.0]))
    assert abs(e - 0.5) < 1e-15


def test_christoffel_sphere_value():
    sph = catalog("round_sphere")
    G = christoffel(sph, "a", [math.pi / 3, 0.2])
    assert np.isclose(G[0][1][1], GAMMA_SPHERE_T_PP, rtol=1e-13)
    # cot(pi/3)
    assert np.isclose(G[1][0][1], 1.0 / math.tan(math.pi / 3), rtol=1e-13)
    assert np.isclose(G[1][1][0], G[1][0][1], rtol=1e-14)
    assert abs(G[0][0][0]) < 1e-15


def test_christoffel_surface_of_revolution_values():
    m = catalog("surface_of_revolution")
    G = christoffel(m, "main", [math.pi / 3, -0.7])
    assert np.isclose(G[0][1][1], SURFREV_G_U_PP, rtol=1e-12)
    assert np.isclose(G[1][0][1], SURFREV_G_P_UP, rtol=1e-12)
    assert np.isclose(G[0][0][0], SURFREV_G_U_UU, rtol=1e-12)


def test_christoffel_matches_fd_of_metric():
    # Gamma from closed-form dg vs Gamma from 5-point differenced g
    for model, cid, q0 in [
        (catalog("round_sphere", radius=1.3), "a", np.array([1.1, 0.4])),
        (catalog("surface_of_revolution"), "main", np.array([0.9, 1.2])),
    ]:
        n = model.dim
        dg_closed = model.dg(cid, list(q0.astype(complex)))
        h = 1e-2
        for l in range(n):
            e = np.zeros(n)
            e[l] = 1.0
            fd = fd5(lambda t: metric_matrix(model, cid, q0 + t * e), 0.0, h)
            closed = np.array(dg_closed[l], dtype=complex)
            assert np.max(np.abs(fd - closed)) < 3e-8


def test_metric_inverse_and_derivative_consistency():
    # g g^-1 = I for the inverse derived from g, and g stays positive definite
    rng = np.random.default_rng(7)
    for model, cid in [
        (catalog("round_sphere", radius=0.8), "a"),
        (catalog("surface_of_revolution", base=2.0, amp=1.0), "main"),
    ]:
        for _ in range(25):
            q = np.array([rng.uniform(0.5, 2.5), rng.uniform(-3.0, 3.0)])
            g = metric_matrix(model, cid, q)
            gi = metric_inv_matrix(model, cid, q)
            assert np.allclose(g @ gi, np.eye(2), atol=1e-13)
            ev = np.linalg.eigvalsh(g.real)
            assert ev.min() > 0
    flat3 = catalog("flat_space", dim=3)
    assert np.array_equal(metric_inv_matrix(flat3, "main", np.zeros(3)), np.eye(3))


def test_derived_inverse_on_variational_series():
    # the jets the Taylor step passes: series with identity-seeded channels
    rng = np.random.default_rng(3)
    for model, cid, q0 in [
        (catalog("round_sphere", radius=0.8), "b", [1.2 + 0.1j, -0.5 + 0.2j]),
        (catalog("surface_of_revolution"), "main", [0.6 - 0.2j, 2.0 + 0.1j]),
    ]:
        qs = []
        for i in range(2):
            c = 0.1 * (rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6)))
            c[0, 0] = q0[i]
            c[1:, 0] = 0.0
            c[1 + i, 0] = 1.0
            qs.append(jets.Jet(c))
        g = model.g(cid, qs)
        gi = model.ginv(cid, qs)
        for j in range(2):
            for l in range(2):
                prod = gi[j][0] * g[0][l] + gi[j][1] * g[1][l]
                want = np.zeros((5, 6), dtype=complex)
                want[0, 0] = 1.0 if j == l else 0.0
                assert np.max(np.abs(prod.c - want)) < 1e-13


def test_metric_positive_definite_sweep():
    rng = np.random.default_rng(21)
    models = [
        (catalog("round_sphere", radius=1.0), "a", [(0.2, math.pi - 0.2), (-math.pi, math.pi)]),
        (catalog("surface_of_revolution"), "main", [(-math.pi, math.pi), (-math.pi, math.pi)]),
        (catalog("flat_torus"), "main", [(-3.0, 3.0), (-3.0, 3.0)]),
    ]
    for model, cid, box in models:
        qs = np.stack([rng.uniform(lo, hi, size=1000) for lo, hi in box], axis=1)
        for q in qs:
            g = metric_matrix(model, cid, q).real
            assert np.linalg.eigvalsh(g).min() > 1e-6


# -- holomorphy of the evaluators ----------------------------------------------


def test_metric_evaluators_satisfy_cauchy_riemann():
    # central differences along real and imaginary axes agree to O(eps^2)
    cases = [
        (catalog("round_sphere"), "a", np.array([1.0, 0.3]), (1, 1)),
        (catalog("surface_of_revolution"), "main", np.array([0.7, -0.4]), (0, 0)),
        (catalog("surface_of_revolution"), "main", np.array([0.7, -0.4]), (1, 1)),
    ]
    for model, cid, q0, (j, k) in cases:
        f = lambda t: metric_matrix(model, cid, q0 + np.array([t, 0.0]))[j, k]
        resid = []
        for eps in (1e-2, 1e-3):
            d_re = (f(eps) - f(-eps)) / (2 * eps)
            d_im = (f(1j * eps) - f(-1j * eps)) / (2j * eps)
            resid.append(abs(d_re - d_im))
        slope = math.log10(resid[0] / resid[1])
        assert slope > 1.9


def test_dual_channel_matches_complex_step():
    model = catalog("surface_of_revolution")
    q0 = 0.8 + 0.1j
    arg = jets.Jet(np.array([[q0], [1.0]], dtype=complex))
    g_dual = model.g("main", [arg, 0.0 * arg])[0][0]
    exact = g_dual.c[1, 0]
    eps = 1e-7
    cs = (model.g("main", [q0 + 1j * eps, 0.0])[0][0]
          - model.g("main", [q0 - 1j * eps, 0.0])[0][0]) / (2j * eps)
    assert abs(exact - cs) < 1e-9


# -- sphere transitions and embedding -------------------------------------------


def sphere_states(draw_theta, draw_phi):
    return st.tuples(draw_theta, draw_phi)


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(0.7, math.pi - 0.7),
    phi=st.floats(-3.0, 3.0),
    im_t=st.floats(-0.25, 0.25),
    im_p=st.floats(-0.25, 0.25),
)
def test_sphere_transition_roundtrip(theta, phi, im_t, im_p):
    sph = catalog("round_sphere")
    emb = sph.embedding
    q = np.array([theta + 1j * im_t, phi + 1j * im_p])
    qb = np.array(
        [jets.value(x) for x in sph.transition_coords("a", "b", list(q))], dtype=complex
    )
    # compare through the embedding; phi is only defined mod 2 pi
    w_direct = np.array([jets.value(x) for x in emb.to_world("a", list(q))])
    w_via_b = np.array([jets.value(x) for x in emb.to_world("b", list(qb))])
    assert np.max(np.abs(w_direct - w_via_b)) < 1e-12
    q_back = np.array(
        [jets.value(x) for x in sph.transition_coords("b", "a", list(qb))], dtype=complex
    )
    w_back = np.array([jets.value(x) for x in emb.to_world("a", list(q_back))])
    assert np.max(np.abs(w_direct - w_back)) < 1e-11


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.7, math.pi - 0.7),
    phi=st.floats(-2.0, 2.0),
    p1=st.floats(-2.0, 2.0),
    p2=st.floats(-2.0, 2.0),
)
def test_sphere_transition_preserves_energy(theta, phi, p1, p2):
    sph = catalog("round_sphere", radius=1.4)
    q = np.array([theta, phi], dtype=complex)
    p = np.array([p1, p2], dtype=complex)
    qb, pb, _ = transition_phase(sph, "a", "b", q, p)
    e_a = energy(sph, "a", q, p, check_domain=False)
    e_b = energy(sph, "b", qb, pb, check_domain=False)
    assert abs(e_a - e_b) < 1e-12 * max(1.0, abs(e_a))


def test_transition_jacobian_symplectic_and_matches_fd():
    sph = catalog("round_sphere")
    q = np.array([1.1 + 0.05j, 0.6 - 0.1j])
    p = np.array([0.4 - 0.02j, -1.1 + 0.03j])
    _, _, S = transition_phase(sph, "a", "b", q, p, jac=np.eye(4, dtype=complex))
    assert np.max(np.abs(S.T @ OMEGA4 @ S - OMEGA4)) < 1e-12

    def lifted(x):
        qq, pp = x[:2], x[2:]
        q2, p2, _ = transition_phase(sph, "a", "b", qq, pp)
        return np.concatenate([q2, p2])

    x0 = np.concatenate([q, p])
    h = 1e-6
    S_fd = np.zeros((4, 4), dtype=complex)
    for c in range(4):
        e = np.zeros(4)
        e[c] = 1.0
        S_fd[:, c] = (lifted(x0 + h * e) - lifted(x0 - h * e)) / (2 * h)
    assert np.max(np.abs(S - S_fd)) < 1e-8


def test_embedding_roundtrip_complex():
    emb = catalog("round_sphere", radius=1.7).embedding
    q = np.array([1.3 - 0.2j, 2.5 + 0.3j])
    w = np.array([jets.value(x) for x in emb.to_world("a", list(q))])
    q2 = emb.world_to_chart("a", w)
    assert abs(q2[0] - q[0]) < 1e-13
    assert abs(np.exp(1j * q2[1]) - np.exp(1j * q[1])) < 1e-13


def test_best_chart_switches_near_pole():
    sph = catalog("round_sphere")
    assert sph.best_chart("a", np.array([math.pi / 2, 0.5])) == "a"
    # near the theta = 0 pole of chart a, chart b is much deeper
    assert sph.best_chart("a", np.array([0.25, 0.3])) == "b"


# -- closed-form oracles ----------------------------------------------------------


def test_sphere_oracle_energy_and_group_law():
    sph = catalog("round_sphere", radius=1.2)
    orc = sph.oracle
    q = np.array([1.0, 0.4])
    p = np.array([0.5, 1.1])
    e0 = energy(sph, "a", q, p)
    for sigma in (0.7, 0.3 + 0.4j, -1.1 + 0.2j):
        cid, q1, p1 = orc.state_flow("a", q, p, sigma)
        e1 = energy(sph, cid, q1, p1, check_domain=False)
        assert abs(e1 - e0) < 1e-11
    # flow(s+t) = flow(t) after flow(s), crossing chart choices freely
    cid1, qa, pa = orc.state_flow("a", q, p, 0.9)
    cid2, qb, pb = orc.state_flow(cid1, qa, pa, 0.8 + 0.3j)
    cid3, qc, pc = orc.state_flow("a", q, p, 1.7 + 0.3j)
    wb = np.array([jets.value(x) for x in sph.embedding.to_world(cid2, list(qb))])
    wc = np.array([jets.value(x) for x in sph.embedding.to_world(cid3, list(qc))])
    assert np.max(np.abs(wb - wc)) < 1e-10


def test_sphere_oracle_exp_matches_time_one_flow():
    sph = catalog("round_sphere", radius=0.9)
    orc = sph.oracle
    q = np.array([1.2, -0.3])
    v = np.array([0.31, 0.77])
    g = metric_matrix(sph, "a", q).real
    cid, q1, _ = orc.state_flow("a", q, g @ v, 1.0)
    w_flow = np.array([jets.value(x) for x in sph.embedding.to_world(cid, list(q1))])
    w_exp = orc.exp_complex("a", q, v)
    assert np.max(np.abs(w_flow - w_exp)) < 1e-12
    # purely imaginary argument lands on the complex quadric sum(z^2) = a^2
    w_im = orc.exp_complex("a", q, 1j * v)
    assert abs(w_im @ w_im - 0.81) < 1e-12


def test_flat_oracle_forms():
    flat = catalog("flat_space", dim=2)
    cid, q1, p1 = flat.oracle.state_flow("main", np.array([1.0, 2.0]), np.array([0.5, -0.25]), 2j)
    assert np.allclose(q1, [1.0 + 1j, 2.0 - 0.5j])
    assert np.allclose(p1, [0.5, -0.25])
    assert np.allclose(flat.oracle.f_matrix("main", q1, p1, 0.3), 0.3 * np.eye(2))


def test_sphere_oracle_f_matrix_forms():
    sph = catalog("round_sphere", radius=1.0)
    orc = sph.oracle
    q = np.array([math.pi / 2, 0.0])
    p = np.array([0.8, 0.0])  # rho = 0.8
    F = orc.f_matrix("a", q, p, 0.5)
    assert np.isclose(F[0, 0], 0.5)
    assert np.isclose(F[1, 1], math.tan(0.4) / 0.8)
    Fi = orc.f_matrix_at_i("a", q, p)
    assert np.isclose(Fi[0, 0], 1j)
    assert np.isclose(Fi[1, 1], 1j * math.tanh(0.8) / 0.8)
    assert Fi[1, 1].imag > 0
    assert np.isclose(orc.conjugate_sigma("a", q, p), math.pi / 1.6)


# -- generic push helper -----------------------------------------------------------


def test_push_through_linear_map():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    fn = lambda qs: [2.0 * qs[0] + qs[1], 3.0 * qs[1]]
    vals, pushed = push_through(fn, np.array([1.0, 1.0]), np.eye(2))
    assert np.allclose(vals, [3.0, 3.0])
    assert np.allclose(pushed, A)


def test_arccos_series_jet_matches_reference():
    z0 = 0.4 + 0.3j
    arg = jets.Jet(np.array([[z0, 1.0, 0.0, 0.0]], dtype=complex))
    out = jets.arccos(arg)
    assert abs(out.c[0, 0] - np.arccos(z0)) < 1e-14
    assert abs(out.c[0, 1] - (-1.0 / np.sqrt(1 - z0 * z0))) < 1e-13
    # second coefficient: -z / (2 (1-z^2)^{3/2})
    ref2 = -z0 / (2.0 * (1 - z0 * z0) ** 1.5)
    assert abs(out.c[0, 2] - ref2) < 1e-13
