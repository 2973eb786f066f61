"""Real-time spreading samples, two-route agreement, rational continuation, pole finding."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grauert import jacobi
from grauert.catalog import catalog
from grauert.errors import ConjugatePointError, PadeDegeneracyError, SingularityError
from grauert.flow import PhasePoint
from grauert.jacobi import continue_f_to_i, f_samples, first_f_singularity, rational_continuation
from grauert.lagrangian import (
    FrameRays,
    distribution_at,
    f_matrix_from_frame,
    j_tensor_from_frame,
    lift_coefficients,
    lifted_basis,
)
from grauert.verify import estimate_tube_radius, sample_tube_points
from oracles import f_by_jacobi_transport, j_tensor_from_f


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


def test_rational_continuation_input_guard():
    xs = np.cos(np.pi * np.arange(21) / 20)
    # the fit's Loewner matrix stays tall only with 18 or more distinct times
    for few in (xs[:17], np.concatenate([xs[:17], xs[:17]]), np.append(xs[:17], np.nan)):
        with pytest.raises(ValueError, match="18 or more"):
            rational_continuation(few, np.ones(few.size), 1j)
    rational_continuation(xs[:18], np.tan(xs[:18]), 1j)
    # a sample that is not a number is refused, not dropped
    for bad in (np.nan, np.inf, complex(1.0, np.inf)):
        ys = np.tan(xs).astype(complex)
        ys[5] = bad
        with pytest.raises(PadeDegeneracyError, match="not finite"):
            rational_continuation(xs, ys, 1j)
        with pytest.raises(PadeDegeneracyError, match="not finite"):  # on a repeated time too
            rational_continuation(np.append(xs, xs[5]), np.append(np.tan(xs), bad), 1j)


def _tube_scan_fits(monkeypatch, model, sweep_cap):
    """The (xs, ys, target) of every rational fit one direction's tube-radius scan makes."""
    fits, fit = [], jacobi.rational_continuation
    with monkeypatch.context() as m:
        m.setattr(jacobi, "rational_continuation",
                  lambda xs, ys, target: fits.append((xs, ys, target)) or fit(xs, ys, target))
        estimate_tube_radius(model, n_directions=1, seed=7, sweep_cap=sweep_cap)
    return fits


def test_rational_fit_matches_scipy_aaa_without_clean_up(monkeypatch):
    # scipy's AAA without its clean-up step is the oracle: the fitted values
    # at the samples and at the target are its bits, and every pole of
    # non-negligible residue near the samples is one of its poles: within
    # 1e-9 relative out to 2 sweep_cap in the time plane, which is as far as
    # the scan reads poles, and beyond that within the pole's own condition
    # (both are zeros of one denominator to roundoff)
    from scipy.interpolate import AAA

    xs = np.cos(np.pi * np.arange(21) / 20)
    fits = [(xs, f(w * xs), 1j) for w in (0.3, 0.6, 0.9, 1.2, 1.5)
            for f in (np.tan, lambda x: np.tan(x) / (1 + 0.3j * x / w),
                      lambda x: np.tanh(x) * np.exp(0.2 * x / w))]
    sweep_cap = 2.0
    fits += _tube_scan_fits(monkeypatch, catalog("round_sphere"), sweep_cap)
    fits += _tube_scan_fits(monkeypatch, catalog("surface_of_revolution"), sweep_cap)
    assert len(fits) == 15 + 4 + 4
    eps = np.finfo(float).eps
    for xs, ys, target in fits:
        ys = np.asarray(ys, dtype=complex)  # as the continuation fits them
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # short of rtol in 9 terms
            r = AAA(xs, ys, rtol=1e-14, max_terms=9, clean_up=False)
        zs, first = np.unique(xs, return_index=True)
        zj, fj, wj, _ = jacobi._aaa(zs, ys[first])
        assert np.array_equal(jacobi._barycentric(zj, fj, wj, xs), r(xs))
        # alone, as the continuation evaluates it: the target's denominator
        # cancels, so a different summation order moves it far above roundoff
        assert rational_continuation(xs, ys, target)[0] == r(target)
        poles = jacobi._poles(zj, wj)
        read = 2 * sweep_cap * abs(target)  # target = i / window
        for pole in r.poles()[(np.abs(r.residues()) > 1e-4) & (np.abs(r.poles()) < 8)]:
            mine = poles[np.argmin(np.abs(poles - pole))]
            if abs(pole) < read:
                assert abs(mine - pole) <= 1e-9 * abs(pole)
            else:
                cond = np.sum(np.abs(wj / (mine - zj))) / abs(np.sum(wj / (mine - zj) ** 2))
                assert abs(mine - pole) <= max(1e-9 * abs(pole), 64 * eps * cond)


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


def test_brentq_matches_scipy_optimize():
    # scipy.optimize.brentq is the oracle: the port returns its bits
    from scipy.optimize import brentq

    families = [
        (lambda c: lambda x: math.cos(x) - c * x, 0.0, 2.0),
        (lambda c: lambda x: x**3 + c * x - 2.0, 0.0, 2.0),
        (lambda c: lambda x: math.tan(x) - c, -1.0, 1.5),
    ]
    xtols = (1e-3, 1e-6, 1e-12, 2e-12)
    for family, a, b in families:
        for c in np.linspace(0.1, 3.0, 12).tolist():
            f = family(c)
            for xtol in xtols:
                assert jacobi._brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)
                assert jacobi._brentq(f, b, a, xtol) == brentq(f, b, a, xtol=xtol)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2), st.floats(0.1, 3.0), st.sampled_from(xtols))
    def drawn(k, c, xtol):
        family, a, b = families[k]
        f = family(c)
        assert jacobi._brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)

    drawn()
    # an exact zero at either end is the root, however the other end lies
    square = lambda x: x * x - 4.0
    for a, b in ((2.0, 5.0), (-1.0, 2.0), (-2.0, 1.0), (-5.0, -2.0)):
        assert jacobi._brentq(square, a, b, 1e-6) == brentq(square, a, b, xtol=1e-6)
    with pytest.raises(ValueError, match="different signs"):
        jacobi._brentq(square, 3.0, 5.0, 1e-6)
    with pytest.raises(ValueError):
        brentq(square, 3.0, 5.0, xtol=1e-6)
