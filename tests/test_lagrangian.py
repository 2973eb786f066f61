"""Shifted-vertical frames: spreading matrices, J tensors, positivity, symmetries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grauert.catalog import catalog
from grauert.errors import (
    ChartDomainError,
    DegenerateFrameError,
    SingularityError,
    TransversalityError,
)
from grauert import lagrangian
from grauert.flow import PhasePoint, Segment, flow
from grauert.lagrangian import (
    FrameRays,
    f_matrix_from_frame,
    j_tensor_from_frame,
    lift_coefficients,
    lifted_basis,
    orthonormal_tangent_basis,
    positivity_check,
    principal_angles,
    symplectic_form_matrix,
    vertical_frame,
)
from grauert.verify import sample_tube_points
from test_flow import MERIDIAN_TAU, meridian

J0 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]).astype(complex)
OMEGA4 = symplectic_form_matrix(2)


def sphere_point(ptheta=0.3, pphi=0.7):
    return PhasePoint("a", [math.pi / 2, 0.0], [ptheta, pphi])


def lagrangian_residual(F):
    """Max |omega(F_j, F_k)|; zero for an exactly Lagrangian span."""
    return float(np.max(np.abs(F.T @ OMEGA4 @ F)))


def test_flat_frame_is_constant_graph():
    flat = catalog("flat_space", dim=2)
    z = PhasePoint("main", [0.5, -1.0], [0.8, 0.2])
    F = FrameRays(flat, [z], [1j]).at(1j)
    expected = np.vstack([1j * np.eye(2), np.eye(2)])
    assert np.max(np.abs(F - expected)) < 1e-12
    assert lagrangian_residual(F) < 1e-12
    J = j_tensor_from_frame(F)
    assert np.max(np.abs(J - J0)) < 1e-12
    mn, H = positivity_check(F)
    assert abs(mn - 2.0) < 1e-12
    assert np.max(np.abs(H - 2.0 * np.eye(2))) < 1e-12
    L = lifted_basis(flat, z)
    for sig in (0.5, 0.25j, 0.4 + 0.3j):
        f = f_matrix_from_frame(L, FrameRays(flat, [z], [sig]).at(sig))
        assert np.max(np.abs(f - sig * np.eye(2))) < 1e-11


def test_sphere_f_matrix_matches_closed_form():
    for a in (1.0, 1.7):
        sph = catalog("round_sphere", radius=a)
        z = sphere_point(0.3, 0.7)
        L = lifted_basis(sph, z)
        for sig in (0.4, 0.9, 1j, 0.3 + 0.5j):
            f = f_matrix_from_frame(L, FrameRays(sph, [z], [sig]).at(sig))
            f_ref = sph.oracle.f_matrix("a", z.q, z.p, sig)
            assert np.max(np.abs(f - f_ref)) < 1e-9
            assert abs(f[0, 1]) < 1e-9 and abs(f[1, 0]) < 1e-9


def test_sphere_f_at_i_hyperbolic_tangent():
    sph = catalog("round_sphere", radius=1.0)
    z = sphere_point(0.0, 0.9)
    F = FrameRays(sph, [z], [1j]).at(1j)
    f = f_matrix_from_frame(lifted_basis(sph, z), F)
    assert abs(f[0, 0] - 1j) < 1e-10
    assert abs(f[1, 1] - 1j * math.tanh(0.9) / 0.9) < 1e-10
    assert f[1, 1].imag > 0
    mn, _ = positivity_check(F)
    assert mn > 0


def test_j_tensor_properties_at_i():
    cases = [
        (catalog("round_sphere", radius=1.0), sphere_point(0.4, 0.5)),
        (catalog("round_sphere", radius=2.0), PhasePoint("a", [1.1, 0.8], [0.2, -0.6])),
        (catalog("surface_of_revolution"), PhasePoint("main", [0.5, -0.9], [0.45, 0.3])),
    ]
    for model, z in cases:
        F = FrameRays(model, [z], [1j]).at(1j)
        J = j_tensor_from_frame(F)
        assert np.max(np.abs(J.imag)) < 1e-9
        assert np.max(np.abs(J @ J + np.eye(4))) < 1e-9
        assert np.max(np.abs(J.T @ OMEGA4 @ J - OMEGA4)) < 1e-9
        G = OMEGA4 @ J
        assert np.max(np.abs(G - G.T)) < 1e-9
        assert np.linalg.eigvalsh(G.real).min() > 0
        # frame columns are +i eigenvectors
        assert np.max(np.abs(J @ F - 1j * F)) < 1e-8


def test_involution_flips_j():
    sph = catalog("round_sphere")
    z = sphere_point(0.35, 0.55)
    z_flip = PhasePoint(z.chart_id, z.q, -z.p)
    S = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    J = j_tensor_from_frame(FrameRays(sph, [z], [1j]).at(1j))
    J_flip = j_tensor_from_frame(FrameRays(sph, [z_flip], [1j]).at(1j))
    assert np.max(np.abs(S @ J_flip @ S + J)) < 1e-9


def test_fiber_scaling_moves_time():
    cases = [
        (catalog("round_sphere"), sphere_point(0.2, 0.45), 2.0, 1j),
        (catalog("round_sphere"), sphere_point(0.2, 0.45), 0.5, 1j),
        (catalog("surface_of_revolution"), PhasePoint("main", [0.2, 0.6], [0.32, 0.24]), 1.6, 0.5j),
    ]
    for model, z, c, sig in cases:
        zc = PhasePoint(z.chart_id, z.q, c * z.p)
        F_left = FrameRays(model, [zc], [sig]).at(sig)
        Lam = np.diag([1.0, 1.0, c, c]).astype(complex)
        F_right = Lam @ FrameRays(model, [z], [c * sig]).at(c * sig)
        ang = principal_angles(F_left, F_right)
        assert np.max(ang) < 1e-8


def test_real_sigma_frame_not_transverse_to_conjugate():
    sph = catalog("round_sphere")
    F = FrameRays(sph, [sphere_point()], [0.6]).at(0.6)
    with pytest.raises(TransversalityError):
        j_tensor_from_frame(F)


def test_conjugate_degeneracy_detected():
    sph = catalog("round_sphere", radius=1.0)
    z = sphere_point(0.0, 1.0)  # speed 1, first spreading pole at pi/2
    F = FrameRays(sph, [z], [math.pi / 2]).at(math.pi / 2)
    with pytest.raises(DegenerateFrameError):
        f_matrix_from_frame(lifted_basis(sph, z), F)


def test_positivity_check_rejects_conjugate_graph():
    mn, _ = positivity_check(np.vstack([-1j * np.eye(2), np.eye(2)]))
    assert abs(mn + 2.0) < 1e-12


def test_orthonormal_basis_and_lifts():
    sph = catalog("round_sphere", radius=1.3)
    q = np.array([1.0, 0.4], dtype=complex)
    p = np.array([0.5, -0.2], dtype=complex)
    V = orthonormal_tangent_basis(sph, "a", q, p)
    from grauert.geometry import metric_matrix

    g = metric_matrix(sph, "a", q)
    gram = V.T @ g @ V
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12
    z = PhasePoint("a", q, p)
    M = lifted_basis(sph, z, V)
    assert np.array_equal(M, lifted_basis(sph, z))  # V is the default basis
    # lifted frames are jointly symplectic: omega(xi_j, eta_k) = delta_jk after g-pairing
    pairing = M.T @ OMEGA4 @ M
    assert np.max(np.abs(pairing[:2, :2])) < 1e-12  # horizontal span is Lagrangian
    assert np.max(np.abs(pairing[2:, 2:])) < 1e-12  # vertical span is Lagrangian


def test_principal_angles_reference_cases():
    A = np.vstack([np.eye(2), np.zeros((2, 2))])
    B = np.vstack([np.zeros((2, 2)), np.eye(2)])
    assert np.max(np.abs(principal_angles(A, A))) < 1e-12
    assert np.max(np.abs(principal_angles(A, B) - math.pi / 2)) < 1e-12


@settings(max_examples=12, deadline=None)
@given(
    pt=st.floats(-0.7, 0.7),
    pp=st.floats(0.2, 0.8),
    tau=st.floats(0.15, 0.8),
)
def test_sphere_f_diagonal_in_adapted_basis(pt, pp, tau):
    sph = catalog("round_sphere")
    z = sphere_point(pt, pp)
    F = FrameRays(sph, [z], [tau * 1j]).at(tau * 1j)
    f = f_matrix_from_frame(lifted_basis(sph, z), F)
    f_ref = sph.oracle.f_matrix("a", z.q, z.p, tau * 1j)
    assert np.max(np.abs(f - f_ref)) < 1e-8
    assert lagrangian_residual(F) < 1e-10


def test_frame_rays_match_fresh_frames():
    # the unit-speed direction of config seed 7: its negative real ray leaves
    # chart a for chart b, and its imaginary ray breaks down near 1.596 i
    sph = catalog("round_sphere")
    z = sample_tube_points(sph, 1, 7, 1.0, 1.0)[0]
    L = lifted_basis(sph, z)
    charts = set()

    def fresh(sigma):
        # B^-1 V from a backward flow of its own, independent of FrameRays
        back = flow(sph, z, sigma=-sigma, variational=True)
        charts.add(back.point.chart_id)
        return np.linalg.solve(back.jacobian, vertical_frame(2))

    rays = FrameRays(sph, [z], [1.4, -1.4, 1.4j])
    for u in (1.0, -1.0, 1j):
        charts.clear()
        for s in np.linspace(0.2, 1.4, 7):
            f_dense = f_matrix_from_frame(L, rays.at(u * s))
            f_fresh = f_matrix_from_frame(L, fresh(u * s))
            assert np.max(np.abs(f_dense - f_fresh)) < 1e-9, (u, s)
            # a single frame is a one-ray read
            f_single = f_matrix_from_frame(L, FrameRays(sph, [z], [u * s]).at(u * s))
            assert np.max(np.abs(f_single - f_fresh)) < 1e-9, (u, s)
        if u == -1.0:
            # the negative ray's frames are read across a chart transition
            assert charts == {"a", "b"}
    assert np.max(np.abs(rays.at(0.0) - vertical_frame(2))) == 0.0

    # past the imaginary ray's breakdown the reader fails as a fresh flow
    # does: the unit meridian of the surface stops at -i tau*
    surf, m = catalog("surface_of_revolution"), meridian(1.0)

    def fresh_surf(sigma):
        back = flow(surf, m, sigma=-sigma, variational=True)
        return np.linalg.solve(back.jacobian, vertical_frame(2))

    far = FrameRays(surf, [m], [2.0j])
    assert np.max(np.abs(far.at(0.65j) - fresh_surf(0.65j))) < 1e-9
    with pytest.raises(SingularityError) as fresh_exc:
        fresh_surf(0.8j)
    with pytest.raises(SingularityError) as dense_exc:
        far.at(0.8j)
    with pytest.raises(SingularityError) as single_exc:
        FrameRays(surf, [m], [0.8j]).at(0.8j)
    assert single_exc.value.reason == fresh_exc.value.reason
    assert single_exc.value.last_good_sigma == fresh_exc.value.last_good_sigma
    assert dense_exc.value.reason == fresh_exc.value.reason == "step collapse"
    assert abs(dense_exc.value.last_good_sigma - fresh_exc.value.last_good_sigma) < 1e-9
    assert abs(fresh_exc.value.last_good_sigma + 1j * MERIDIAN_TAU) < 1e-6


def test_frame_rays_read_the_rays_of_their_times():
    # the rays come from the times given; a time on one of them is read from
    # it even where its direction differs from the given one in the last bit
    sph = catalog("round_sphere")
    z = PhasePoint("a", [1.2, 0.3], [0.2, 0.3])
    rays = FrameRays(sph, [z], [0.3 + 0.3j, 0.9 + 0.9j, -0.5])
    assert rays.reach == {(0.3 + 0.3j) / abs(0.3 + 0.3j): abs(0.9 + 0.9j), -1.0: 0.5}
    sigma = 0.6 + 0.6j
    assert sigma / abs(sigma) != (0.9 + 0.9j) / abs(0.9 + 0.9j)
    got = rays.at(sigma)
    want = FrameRays(sph, [z], [sigma]).at(sigma)
    assert np.max(np.abs(got - want)) < 1e-12
    # a direction not given and a time beyond its ray's reach both raise
    with pytest.raises(ValueError):
        rays.at(0.5j)
    with pytest.raises(ValueError):
        rays.at(-0.6)


def test_frame_of_a_point_outside_its_chart():
    # its flow cannot start: the frame at 0 is the vertical one, and every
    # read past 0 raises the error that kept the flow from starting
    flat = catalog("flat_space")
    rays = FrameRays(flat, [PhasePoint("main", [25.0, 0.0], [0.1, 0.0])], [1j])
    assert np.array_equal(rays.at(0), vertical_frame(2))
    with pytest.raises(ChartDomainError):
        rays.at(1j)


def test_dense_breakdown_keeps_segments():
    surf = catalog("surface_of_revolution")
    with pytest.raises(SingularityError) as exc:
        flow(surf, meridian(1.0), sigma=-2j, variational=True)
    err = exc.value
    assert err.reason == "step collapse"
    assert abs(err.last_good_sigma + 1j * MERIDIAN_TAU) < 1e-6
    segs = err.segments
    assert segs and segs[0].t0_global == 0.0
    for a, b in zip(segs, segs[1:]):
        assert abs(a.t0_global + a.dt - b.t0_global) < 1e-14
    # the accepted steps reach the last good time: the step after it collapsed
    assert abs(segs[-1].t0_global + segs[-1].dt - abs(err.last_good_sigma)) < 1e-14


def test_rank_deficient_lift_basis_is_a_degenerate_frame():
    # a singular or non-finite lifted system is a DegenerateFrameError, not a
    # LinAlgError or a frame of NaNs
    flat = catalog("flat_space", dim=2)
    z = PhasePoint("main", [0.5, -1.0], [0.8, 0.2])
    F = FrameRays(flat, [z], [1j]).at(1j)
    singular = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
    with pytest.raises(DegenerateFrameError, match="singular"):
        lift_coefficients(lifted_basis(flat, z, singular), F)
    nan = np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=complex)
    with pytest.raises(DegenerateFrameError, match="not finite"):
        lift_coefficients(lifted_basis(flat, z, nan), F)


@pytest.mark.parametrize("jacobian", [np.zeros((4, 4)), np.full((4, 4), np.inf)], ids=["zero", "inf"])
def test_singular_backward_jacobian_is_a_degenerate_frame(monkeypatch, jacobian):
    flat = catalog("flat_space", dim=2)
    z = PhasePoint("main", [0.5, -1.0], [0.8, 0.2])
    rays = FrameRays(flat, [z], [1j])
    # every read past 0 finds a step whose jacobian is this matrix at every time
    coeffs = np.zeros((4, 5, 17), dtype=complex)
    coeffs[:, 1:, 0] = jacobian
    step = Segment("main", 0j, 1.0, 1.0, 0.0, coeffs)
    monkeypatch.setattr(lagrangian, "segment_at", lambda segments, t: (step, t))
    with pytest.raises(DegenerateFrameError, match="backward jacobian"):
        rays.at(1j)
    # sigma = 0 reads no segment
    assert np.array_equal(rays.at(0.0), vertical_frame(2))


def test_stacked_reads_equal_scalar_reads():
    # a stack of reads is read the way each read is alone, bit for bit, and
    # a point's rays read alike in its batch and in a batch of one
    sph = catalog("round_sphere")
    z7 = sample_tube_points(sph, 1, 7, 1.0, 1.0)[0]
    pts = [PhasePoint("a", [1.2, 0.3], [0.2, 0.3]), z7, sphere_point(0.35, 0.55)]
    rays = FrameRays(sph, pts, [1.4j, 1.4, -1.4])
    alone = [FrameRays(sph, [z], [1.4j, 1.4, -1.4]) for z in pts]
    sigmas = np.array([[0.5j, 1.4j, 0.0, 1.1, -1.3, 0.25 + 0j]])
    ks = np.array([[0], [1], [2]])
    F = rays.at(sigmas, ks)
    assert F.shape == (3, 6, 4, 2)
    B = rays.jacobian(sigmas, ks)
    assert B.shape == (3, 6, 4, 4)
    for k in range(3):
        for i, s in enumerate(sigmas[0]):
            assert np.array_equal(F[k, i], rays.at(s, k))
            assert np.array_equal(F[k, i], alone[k].at(s))
            assert np.array_equal(B[k, i], rays.jacobian(s, k))
            assert np.array_equal(np.linalg.solve(B[k, i], vertical_frame(2)), F[k, i])
    Fi = rays.at(1j, np.arange(3))
    J = j_tensor_from_frame(Fi)
    mins, H = positivity_check(Fi)
    assert J.shape == (3, 4, 4) and mins.shape == (3,) and H.shape == (3, 2, 2)
    for k in range(3):
        assert np.array_equal(J[k], j_tensor_from_frame(rays.at(1j, k)))
        mn, Hk = positivity_check(rays.at(1j, k))
        assert mins[k] == mn and np.array_equal(H[k], Hk)
    L = lifted_basis(sph, pts[0])
    b, c = lift_coefficients(L, rays.at([0.5j, 1.0], 0))
    for i, s in enumerate((0.5j, 1.0)):
        bi, ci = lift_coefficients(L, rays.at(s, 0))
        assert np.array_equal(b[i], bi) and np.array_equal(c[i], ci)


def test_stacked_read_raises_its_first_failing_read():
    # a healthy ray, a ray past its breakdown at the meridian's tau* and a
    # point in no chart: the error raised is that of the first failing read
    # in order
    surf = catalog("surface_of_revolution")
    healthy = PhasePoint("main", [0.4, -1.0], [0.2, 0.3])
    outside = PhasePoint("b", [0.4, -1.0], [0.2, 0.3])
    rays = FrameRays(surf, [healthy, meridian(1.0), outside], [2.0j])
    with pytest.raises(SingularityError) as past:
        FrameRays(surf, [meridian(1.0)], [2.0j]).at(0.8j)
    for sigmas, ks, error in (([1.0j, 0.8j, 1.0j], [0, 1, 2], SingularityError),
                              ([1.0j, 1.0j, 0.8j], [0, 2, 1], ChartDomainError),
                              ([0.8j, 1.0j], [1, 2], SingularityError)):
        for read in (rays.at, rays.jacobian):
            with pytest.raises(error) as exc:
                read(sigmas, ks)
            if error is SingularityError:
                assert exc.value.reason == past.value.reason == "step collapse"
                assert exc.value.last_good_sigma == past.value.last_good_sigma
    assert rays.at([0.6j, 0.65j, 0.0], [1, 1, 2]).shape == (3, 4, 2)
    sph = catalog("round_sphere")
    healthy = PhasePoint("a", [1.2, 0.3], [0.2, 0.3])

    # J of a stack: the first frame that meets its conjugate
    frames = FrameRays(sph, [healthy], [1j, 0.6, 0.3])
    good, bad, worse = frames.at(1j), frames.at(0.6), frames.at(0.3)
    with pytest.raises(TransversalityError) as first:
        j_tensor_from_frame(bad)
    with pytest.raises(TransversalityError) as stacked:
        j_tensor_from_frame(np.stack([good, bad, worse]))
    assert str(stacked.value) == str(first.value)


def test_principal_angles_match_scipy():
    # scipy.linalg is the oracle: the numpy angles on stacks agree with
    # subspace_angles pair by pair, on equal spans, spans 1e-13 apart (the
    # sine branch), orthogonal spans and spans in general position
    from scipy.linalg import subspace_angles

    rng = np.random.default_rng(5)

    def frames(k):
        return rng.normal(size=(k, 4, 2)) + 1j * rng.normal(size=(k, 4, 2))

    A = frames(12)
    mix = rng.normal(size=(12, 2, 2)) + 1j * rng.normal(size=(12, 2, 2))
    orth = np.linalg.qr(np.concatenate([A, frames(12)], axis=-1))[0][..., 2:]
    for B in (A @ mix, A + 1e-13 * frames(12), orth, frames(12)):
        got = principal_angles(A, B)
        assert got.shape == (12, 2)
        for a, b, g in zip(A, B, got):
            assert np.max(np.abs(g - subspace_angles(a, b))) <= 1e-15
    assert np.max(principal_angles(A, A + 1e-13 * frames(12))) < 1e-12
    assert np.min(principal_angles(A, orth)) > math.pi / 2 - 1e-12
