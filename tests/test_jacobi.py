"""Real-time spreading samples, two-route agreement, rational continuation, pole finding."""

import math

import numpy as np
import pytest

from grauert.catalog import catalog
from grauert.errors import ConjugatePointError, PadeDegeneracyError, SingularityError
from grauert.flow import PhasePoint
from grauert.jacobi import (
    continue_f_to_i,
    f_by_jacobi_transport,
    f_samples,
    first_f_singularity,
    j_tensor_from_f,
    rational_continuation,
)
from grauert.lagrangian import (
    FrameRays,
    distribution_at,
    f_matrix_from_frame,
    j_tensor_from_frame,
    lift_coefficients,
    lifted_basis,
)
from grauert.verify import sample_tube_points


def test_f_samples_match_sphere_closed_form():
    sph = catalog("round_sphere", radius=1.0)
    z = PhasePoint("a", [math.pi / 2, 0.0], [0.3, 0.7])
    taus = np.linspace(-1.0, 1.0, 9)
    fs = f_samples(FrameRays(sph, [z], taus), 0, taus)
    for i, tau in enumerate(taus):
        ref = sph.oracle.f_matrix("a", z.q, z.p, tau) if tau != 0 else np.zeros((2, 2))
        assert np.max(np.abs(fs[i] - ref)) < 1e-9


def test_jacobi_transport_route_agrees():
    # no jacobian inversion on this route; still the same spreading matrix
    cases = [
        (catalog("round_sphere"), PhasePoint("a", [1.2, 0.4], [0.5, 0.6])),
        (catalog("surface_of_revolution"), PhasePoint("main", [0.4, -0.2], [0.7, 0.5])),
        (catalog("flat_space", dim=2), PhasePoint("main", [0.0, 0.0], [1.0, 2.0])),
    ]
    for model, z in cases:
        for tau in (0.45, -0.8):
            direct = f_samples(FrameRays(model, [z], [tau]), 0, [tau])[0]
            seeded = f_by_jacobi_transport(model, z, tau)
            assert np.max(np.abs(direct - seeded)) < 1e-8


def test_flat_f_linear():
    flat = catalog("flat_space", dim=2)
    z = PhasePoint("main", [1.0, -1.0], [0.3, 0.4])
    taus = [0.5, 1.5, -2.0]
    fs = f_samples(FrameRays(flat, [z], taus), 0, taus)
    for tau, f in zip(taus, fs):
        assert np.max(np.abs(f - tau * np.eye(2))) < 1e-11


def test_rational_continuation_recovers_tangent():
    xs = np.cos(np.pi * np.arange(21) / 20)
    ys = np.tan(1.2 * xs)
    # continuation off the sample interval, against exact values
    at_real, poles = rational_continuation(xs, ys, 1.2)
    assert abs(at_real - math.tan(1.44)) < 1e-9
    at_i, _ = rational_continuation(xs, ys, 1j)
    assert abs(at_i - 1j * math.tanh(1.2)) < 1e-10
    nearest = poles[np.argmin(np.abs(poles - np.pi / 2.4))]
    assert abs(nearest - np.pi / 2.4) < 1e-8


def test_rational_continuation_degeneracies():
    xs = np.linspace(-1, 1, 21)
    # identically zero data continues as the zero function, no complaint
    value, poles = rational_continuation(xs, np.zeros(21), 0.7 + 0.2j)
    assert abs(value) < 1e-12
    assert poles.size == 0
    # a kink cannot be reproduced by a low-degree rational function
    with pytest.raises(PadeDegeneracyError):
        rational_continuation(xs, np.abs(xs), 0.5)
    with pytest.raises(PadeDegeneracyError):
        rational_continuation(xs, 1.0 / (1.0 + xs**2), 1j)  # the fit really has a pole there


def test_continue_f_to_i_sphere():
    for rho in (0.3, 0.8, 1.2):
        sph = catalog("round_sphere")
        z = PhasePoint("a", [math.pi / 2, 0.0], [0.0, rho])
        window = 0.75 * (math.pi / 2) / rho
        window = min(window, 2.0)
        f_i, diag = continue_f_to_i(FrameRays(sph, [z], [window, -window]), 0, window)
        ref = sph.oracle.f_matrix_at_i("a", z.q, z.p)
        assert np.max(np.abs(f_i - ref)) < 1e-7
        # fitted poles recover the first conjugate time for the tan entry
        poles = diag["poles"][(1, 1)]
        real_poles = poles[np.abs(poles.imag) < 1e-3 * np.abs(poles.real)]
        nearest = real_poles[np.argmin(np.abs(real_poles - math.pi / (2 * rho)))]
        assert abs(nearest.real - math.pi / (2 * rho)) < 1e-3


def test_j_cross_route():
    sph = catalog("round_sphere")
    z = PhasePoint("a", [1.3, -0.4], [0.28, 0.45])
    f_i, _ = continue_f_to_i(FrameRays(sph, [z], [1.5, -1.5]), 0, 1.5)
    J_pade = j_tensor_from_f(sph, z, f_i)
    J_direct = j_tensor_from_frame(distribution_at(sph, z, 1j))
    assert np.max(np.abs(J_pade - J_direct)) < 1e-6


def test_first_singularity_sphere():
    sph = catalog("round_sphere")
    for rho in (1.0, 0.7):
        z = PhasePoint("a", [math.pi / 2, 0.0], [0.0, rho])
        t = first_f_singularity(FrameRays(sph, [z], [3.0, -3.0]), 0, tau_max=3.0)
        assert t is not None
        assert abs(t - math.pi / (2 * rho)) < 1e-3


def test_first_singularity_none_on_flat():
    torus = catalog("flat_torus")
    z = PhasePoint("main", [0.1, 0.2], [0.9, 0.3])
    assert first_f_singularity(FrameRays(torus, [z], [1.0, -1.0]), 0, tau_max=1.0) is None
    # zero section: frames are constant
    sph = catalog("round_sphere")
    z0 = PhasePoint("a", [1.0, 0.0], [0.0, 0.0])
    assert first_f_singularity(FrameRays(sph, [z0], [0.5, -0.5]), 0, tau_max=0.5) is None


def test_sample_on_pole_raises():
    sph = catalog("round_sphere")
    z = PhasePoint("a", [math.pi / 2, 0.0], [0.0, 1.0])
    with pytest.raises(ConjugatePointError):
        f_samples(FrameRays(sph, [z], [math.pi / 2]), 0, [math.pi / 2])


def test_stacked_f_samples_match_single_frames():
    sph = catalog("round_sphere")
    z = PhasePoint("a", [math.pi / 2, 0.0], [0.3, 0.7])
    window = 1.2
    taus = window * np.cos(np.pi * np.arange(21) / 20)
    frames = FrameRays(sph, [z], [window, -window])
    L = lifted_basis(sph, z)
    fs = f_samples(frames, 0, taus)
    for tau, f in zip(taus, fs):
        assert np.array_equal(f, f_matrix_from_frame(L, frames.at(tau)))
    # both pi/2 and -pi/2 are poles here; the error names the first in the given order
    z = PhasePoint("a", [math.pi / 2, 0.0], [0.0, 1.0])
    for taus, pole in (([0.3, -0.5, math.pi / 2, 1.0, -math.pi / 2], math.pi / 2),
                       ([0.3, -math.pi / 2, -0.5, math.pi / 2], -math.pi / 2)):
        with pytest.raises(ConjugatePointError) as info:
            f_samples(FrameRays(sph, [z], taus), 0, taus)
        assert info.value.sigma == pole


def _scan_one_read_at_a_time(frames, k, tau_max, coarse, refine=1e-6):
    """The pole scan as a loop of scalar reads, one frame per grid time."""
    from scipy.optimize import brentq

    L = lifted_basis(frames.model, frames.points[k])

    def det(F):
        return complex(np.linalg.det(lift_coefficients(L, F)[1])).real

    hits = []
    d0 = det(frames.at(0.0, k))
    for sgn in (1.0, -1.0):
        d = lambda t: det(frames.at(sgn * t, k))
        t_prev, d_prev = 0.0, d0
        t = coarse
        while t <= tau_max + 1e-12:
            try:
                d_cur = d(t)
            except SingularityError:
                break
            if d_cur == 0.0:
                hits.append(t)
                break
            if np.sign(d_cur) != np.sign(d_prev):
                hits.append(brentq(d, t_prev, t, xtol=refine))
                break
            t_prev, d_prev = t, d_cur
            t += coarse
    return min(hits) if hits else None


def _scan_cases():
    sph, sor = catalog("round_sphere"), catalog("surface_of_revolution")
    for seed in (5, 7, 9, 17):
        for coarse in (0.05, 0.03):
            yield sph, sample_tube_points(sph, 1, seed, 1.0, 1.0)[0], 2.0, coarse
    yield sor, sample_tube_points(sor, 1, 7, 1.0, 1.0)[0], 2.0, 0.05
    # the pole pi/2 inside the second stacked block, and between the blocks
    for coarse in (0.02, 0.0243):
        yield sph, sample_tube_points(sph, 1, 7, 1.0, 1.0)[0], 2.0, coarse


def test_stacked_scan_matches_one_read_at_a_time():
    hits = 0
    for model, z, tau_max, coarse in _scan_cases():
        frames = FrameRays(model, [z], [tau_max, -tau_max])
        got = first_f_singularity(frames, 0, tau_max=tau_max, coarse=coarse)
        assert got == _scan_one_read_at_a_time(frames, 0, tau_max, coarse)
        hits += got is not None
    assert hits >= 10  # the sphere's scans all find their conjugate point
    # a ray that leaves the box at sigma = 0.2: scanned up to there, whether
    # that lies in the first stacked block, a later one or before the grid
    flat = catalog("flat_space", dim=2)
    frames = FrameRays(flat, [PhasePoint("main", [19.8, 0.0], [-1.0, 0.0])], [1.0, -1.0])
    with pytest.raises(SingularityError):
        frames.at(1.0)
    for coarse in (0.05, 0.002, 0.3):
        assert first_f_singularity(frames, 0, tau_max=1.0, coarse=coarse) is None
        assert _scan_one_read_at_a_time(frames, 0, 1.0, coarse) is None
    # a grid with no time on it
    sph = catalog("round_sphere")
    frames = FrameRays(sph, [sample_tube_points(sph, 1, 7, 1.0, 1.0)[0]], [0.04, -0.04])
    assert first_f_singularity(frames, 0, tau_max=0.04, coarse=0.05) is None


def test_first_singularity_rejects_bad_grids():
    sph = catalog("round_sphere")
    frames = FrameRays(sph, [PhasePoint("a", [math.pi / 2, 0.0], [0.0, 1.0])], [2.0, -1.0])
    for coarse in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="coarse"):
            first_f_singularity(frames, 0, tau_max=1.0, coarse=coarse)
    # beyond the reach of the negative ray, and not finite
    for tau_max in (1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="reach"):
            first_f_singularity(frames, 0, tau_max=tau_max)
    # a ray in one real direction only
    frames = FrameRays(sph, [PhasePoint("a", [math.pi / 2, 0.0], [0.0, 1.0])], [2.0])
    with pytest.raises(ValueError, match="reach"):
        first_f_singularity(frames, 0, tau_max=1.0)
