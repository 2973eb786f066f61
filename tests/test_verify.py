import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grauert
from grauert.catalog import catalog
from grauert.errors import GrauertError, SingularityError
from grauert.flow import PhasePoint
from grauert.geometry import metric_matrix
from grauert.lagrangian import FrameRays, distribution_at, j_tensor_from_frame
from grauert import jacobi, verify
from grauert.verify import (
    check_adaptedness,
    check_involution,
    check_kahler_potential,
    check_nijenhuis,
    check_scaling,
    check_theta_sigma_identity,
    check_zero_section,
    estimate_tube_radius,
    run_battery,
    sample_tube_points,
    tightening_comparison,
)

HALF_PI = 1.5707963267948966


@pytest.fixture(scope="module")
def flat():
    return catalog("flat_space")


@pytest.fixture(scope="module")
def sphere():
    return catalog("round_sphere")


@pytest.fixture(scope="module")
def surfrev():
    return catalog("surface_of_revolution")


def test_sampling_deterministic_and_in_range(sphere):
    a = sample_tube_points(sphere, 16, 3, 0.2, 0.7)
    b = sample_tube_points(sphere, 16, 3, 0.2, 0.7)
    for za, zb in zip(a, b):
        assert za.chart_id == zb.chart_id
        assert np.array_equal(za.q, zb.q)
        assert np.array_equal(za.p, zb.p)
    ch = sphere.chart("a")
    for z in a:
        assert ch.in_safe_interior(z.q.real)
        gi = np.linalg.inv(np.array([[1.0, 0.0], [0.0, math.sin(z.q[0].real) ** 2]]))
        rho = math.sqrt(float(z.p.real @ gi @ z.p.real))
        assert 0.2 - 1e-12 <= rho <= 0.7 + 1e-12
    c = sample_tube_points(sphere, 16, 4, 0.2, 0.7)
    assert any(not np.array_equal(za.q, zc.q) for za, zc in zip(a, c))


@pytest.mark.parametrize("d", [3, 5, 7, 11, 21])
def test_sobol_matches_scipy_qmc(d):
    # scipy.stats is the oracle: the numpy sampler returns its bits exactly
    from scipy.stats import qmc

    for seed in range(30):
        for m in (1, 3, 5, 7):
            want = qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(m=m)
            assert np.array_equal(verify._sobol(d, m, seed), want), (seed, m)


def scipy_stats_tube_points(model, n, seed, rho_min, rho_max):
    """sample_tube_points drawn through qmc.Sobol and norm.ppf: the oracle."""
    from scipy.stats import norm, qmc

    cid, dim = model.default_chart, model.dim
    ch = model.chart(cid)
    u = qmc.Sobol(d=2 * dim + 1, scramble=True, seed=seed).random_base2(
        m=max(1, math.ceil(math.log2(max(n, 2)))))[:n]
    lo, hi = ch.lo + 0.15 * ch.width(), ch.hi - 0.15 * ch.width()
    out = []
    for row, raw in zip(u, norm.ppf(np.clip(u[:, dim:2 * dim], 1e-6, 1.0 - 1e-6))):
        q = lo + row[:dim] * (hi - lo)
        g = metric_matrix(model, cid, q.astype(complex)).real
        v = (rho_min + row[-1] * (rho_max - rho_min)) / math.sqrt(float(raw @ g @ raw)) * raw
        out.append(PhasePoint(cid, q, g @ v))
    return out


@pytest.mark.parametrize("model", [catalog("round_sphere"), catalog("surface_of_revolution"),
                                   catalog("flat_space", dim=3)], ids=lambda m: m.name)
@pytest.mark.parametrize("case", [(1, 0, 0.1, 0.5), (7, 3, 0.2, 0.7), (16, 11, 1.0, 1.0),
                                  (50, 2, 0.05, 0.25)])
def test_tube_points_match_scipy_stats_route(model, case):
    got, want = sample_tube_points(model, *case), scipy_stats_tube_points(model, *case)
    assert len(got) == len(want) == case[0]
    for a, b in zip(got, want):
        assert a.chart_id == b.chart_id
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)


def test_theta_identity_flat_exact(flat):
    pts = sample_tube_points(flat, 10, 0, 0.2, 0.9)
    sigmas = (0.0, 0.35, 0.7, 1j)
    rep = check_theta_sigma_identity(FrameRays(flat, pts, sigmas), sigmas=sigmas)
    assert rep.verdict == "pass"
    assert rep.max_residual < 1e-12
    # sigma = 0 frame is vertical, so the pairing vanishes identically
    F = distribution_at(flat, pts[0], 0.0)
    assert np.max(np.abs(F[:2, :])) == 0.0


def test_theta_identity_curved(sphere, surfrev):
    for model, n in ((sphere, 8), (surfrev, 6)):
        pts = sample_tube_points(model, n, 1, 0.1, 0.3)
        rep = check_theta_sigma_identity(FrameRays(model, pts, verify.THETA_SIGMAS))
        assert rep.verdict == "pass", rep.to_record()
        assert len(rep.worst) <= 3
        assert rep.worst[0][1] == rep.max_residual


def test_kahler_potential_flat_calibration(flat):
    pts = sample_tube_points(flat, 10, 2, 0.2, 0.9)
    rep = check_kahler_potential(FrameRays(flat, pts, [1j]))
    assert rep.verdict == "pass"
    assert rep.max_residual < 1e-12

    # the conjugate convention would fail loudly; this pins the dbar sign
    z = PhasePoint("main", np.array([0.4, -1.1]), np.array([0.8, 0.3]))
    J = j_tensor_from_frame(distribution_at(flat, z, 1j))
    dk = 2.0 * verify._grad_energy(flat, "main", z.q, z.p)
    wrong = 0.5 * (dk[0] - 1j * (dk @ J[:, 0]))
    assert abs(wrong.imag - z.p[0].real) > 0.5


def test_kahler_potential_curved(sphere, surfrev):
    for model in (sphere, surfrev):
        pts = sample_tube_points(model, 8, 5, 0.1, 0.3)
        rep = check_kahler_potential(FrameRays(model, pts, [1j]))
        assert rep.verdict == "pass", rep.to_record()


def test_adaptedness_strips(flat, sphere):
    covs = sample_tube_points(flat, 2, 6, 1.0, 1.0)
    rep = check_adaptedness(flat, covs)
    assert rep.verdict == "pass"
    assert rep.max_residual < 1e-8

    covs = sample_tube_points(sphere, 2, 7, 1.0, 1.0)
    rep = check_adaptedness(sphere, covs)
    assert rep.verdict == "pass", rep.to_record()


def test_adaptedness_raises_the_breakdown_of_a_strip(flat):
    # the real flow of the strip at x = 19.8 leaves the box |x| <= 20 at sigma 0.2
    with pytest.raises(SingularityError) as exc:
        check_adaptedness(flat, [PhasePoint("main", [19.8, 0.0], [1.0, 0.0])])
    assert exc.value.reason == "chart box"
    assert abs(exc.value.last_good_sigma - 0.2) < 1e-12


def test_adaptedness_at_roundoff(sphere, surfrev):
    # strip states from dense flows and the exact field as sigma-derivative
    # leave nothing but roundoff; the inputs are those of `grauert verify`
    # with 8 points, one strip and seed 1
    for model in (sphere, surfrev):
        rep = run_battery(model, checks=["adaptedness"], n_samples=8, seed=1, n_strips=1)[0]
        assert rep.n_samples == 25
        assert rep.max_residual <= 1e-12, rep.to_record()


def test_involution_and_scaling(flat, sphere):
    pts = sample_tube_points(flat, 8, 8, 0.2, 0.8)
    assert check_involution(FrameRays(flat, pts, [1j])).max_residual < 1e-12
    small = sample_tube_points(flat, 8, 9, 0.05, 0.25)
    assert check_scaling(flat, small).max_residual < 1e-10

    pts = sample_tube_points(sphere, 6, 10, 0.1, 0.4)
    rep = check_involution(FrameRays(sphere, pts, [1j]))
    assert rep.verdict == "pass", rep.to_record()
    small = sample_tube_points(sphere, 6, 11, 0.05, 0.25)
    rep = check_scaling(sphere, small)
    assert rep.verdict == "pass", rep.to_record()


def test_zero_section_unipotent(flat, sphere, surfrev):
    for model, bound in ((flat, 1e-14), (sphere, 1e-9), (surfrev, 1e-9)):
        pts = sample_tube_points(model, 6, 12, 0.1, 0.3)
        rep = check_zero_section(model, pts)
        assert rep.verdict == "pass", rep.to_record()
        assert rep.max_residual < bound


def count_kernel_calls(monkeypatch):
    """The lanes of each flow_lanes call from here on, in call order."""
    real_flow_lanes = grauert.flow.flow_lanes
    calls = []

    def counted(model, points, *args, **kwargs):
        calls.append(len(points))
        return real_flow_lanes(model, points, *args, **kwargs)

    # every flow is a lane of flow_lanes; flow() is a one-lane call of it
    for name in ("flow", "lagrangian", "verify"):
        monkeypatch.setattr(f"grauert.{name}.flow_lanes", counted)
    return calls


def test_one_flow_per_ray(sphere, monkeypatch):
    # every sample on a ray a check has integrated is read from that flow, and
    # the flows of all points run as lanes of the same few kernel calls; a
    # check given the points' frames flows only its own route's lanes
    calls = count_kernel_calls(monkeypatch)
    pts = sample_tube_points(sphere, 2, 12, 0.1, 0.25)
    # lanes per point, kernel calls per check
    for check, lanes, kernel_calls in ((check_zero_section, 1, 1),
                                       (check_scaling, 6, 2)):
        for k in (1, 2):
            calls.clear()
            assert check(sphere, pts[:k]).verdict == "pass"
            assert sum(calls) == k * lanes, (check.__name__, k, calls)
            assert len(calls) == kernel_calls, (check.__name__, k, calls)
    for check, sigmas, lanes, kernel_calls in (
            (check_theta_sigma_identity, verify.THETA_SIGMAS, 0, 0),
            (check_kahler_potential, [1j], 0, 0),
            (check_involution, [1j], 1, 1),
            (check_nijenhuis, [1j], 16, 1)):
        for k in (1, 2):
            calls.clear()
            frames = FrameRays(sphere, pts[:k], sigmas)
            assert calls == [k * len(frames.reach)]
            calls.clear()
            assert check(frames).verdict == "pass"
            assert sum(calls) == k * lanes, (check.__name__, k, calls)
            assert len(calls) == kernel_calls, (check.__name__, k, calls)
    calls.clear()
    check_nijenhuis(FrameRays(sphere, pts[:1], [1j]))
    assert calls == [1, 16]


@pytest.mark.parametrize("name", ["round_sphere", "surface_of_revolution"])
def test_battery_flows_each_main_ray_once(name, monkeypatch):
    # theta_sigma, kahler_potential, involution and nijenhuis read the main
    # cloud's frames from one FrameRays; a flow of the cloud to sigma = i per
    # check would take 259 lanes in 9 calls
    calls = count_kernel_calls(monkeypatch)
    model = catalog(name)
    run_battery(model, n_samples=8, n_strips=1, seed=1)
    assert (sum(calls), len(calls)) == (235, 8), calls
    # a check that reads no frame of the main cloud flows none of its lanes
    calls.clear()
    run_battery(model, checks=["zero_section"], n_samples=8, n_strips=1, seed=1)
    assert calls == [8]


def test_nijenhuis(flat, sphere):
    pts = sample_tube_points(flat, 4, 13, 0.2, 0.8)
    rep = check_nijenhuis(FrameRays(flat, pts, [1j]))
    assert rep.max_residual < 1e-11

    pts = sample_tube_points(sphere, 4, 14, 0.15, 0.5)
    rep = check_nijenhuis(FrameRays(sphere, pts, [1j]))
    assert rep.verdict == "pass", rep.to_record()

    # along the zero section the structure is algebraic and the residual drops
    rest = [PhasePoint(z.chart_id, z.q, np.zeros(2)) for z in pts]
    rep0 = check_nijenhuis(FrameRays(sphere, rest, [1j]))
    assert rep0.max_residual < 1e-6


def test_battery_order_and_records(flat):
    reports = run_battery(flat, n_samples=6, n_strips=1, seed=21)
    names = [r.check for r in reports]
    assert names == sorted(names)
    assert len(names) == 7
    for r in reports:
        assert r.verdict == "pass", r.to_record()
        json.dumps(r.to_record())  # records must be serializable as-is


def test_battery_rejects_unknown_check(flat):
    with pytest.raises(ValueError):
        run_battery(flat, checks=("kahler_potential", "no_such_check"))


def test_tube_radius_flat_caps():
    torus = catalog("flat_torus")
    est = estimate_tube_radius(torus, n_directions=6, seed=1, sweep_cap=1.5)
    assert est.radius_continuation == 1.5
    assert est.radius_transversality == 1.5
    assert est.radius_positivity == 1.5
    assert est.capped == {"continuation": True, "transversality": True, "positivity": True}
    assert est.monotone
    json.dumps(est.to_record())


def test_tube_radius_sphere_conjugate_point(sphere):
    est = estimate_tube_radius(sphere, n_directions=5, seed=2, sweep_cap=2.0,
                               resolution=2e-3)
    # every unit direction meets the spreading-matrix pole at the same distance
    assert abs(est.radius_continuation - HALF_PI) < 0.01
    assert not est.capped["continuation"]
    assert est.monotone
    assert est.pade_nearest_pole is not None
    assert abs(est.pade_nearest_pole - HALF_PI) < 0.05
    # imaginary-axis notions are bounded by what the atlas certifies, but
    # must stay positive and below the cap on the sphere
    assert 0.5 < est.radius_transversality < 2.0
    assert 0.5 < est.radius_positivity < 2.0
    assert not est.capped["transversality"]


def test_tube_radius_by_fresh_frames(sphere, monkeypatch):
    # independent route: fresh backward flows, one per frame, at the reported
    # transversality radius and one resolution beyond it
    calls = count_kernel_calls(monkeypatch)
    est = estimate_tube_radius(sphere, n_directions=1, seed=5, sweep_cap=2.0,
                               resolution=1e-3)
    assert sum(calls) <= 4
    monkeypatch.undo()

    # this direction's imaginary-time flow leaves the chart margin first
    r = est.radius_transversality
    assert abs(r - 1.5149) < 1e-3
    z = sample_tube_points(sphere, 1, 5, 1.0, 1.0)[0]

    def transversal(tau):
        try:
            j_tensor_from_frame(distribution_at(sphere, z, 1j * tau))
            return True
        except GrauertError:
            return False

    assert transversal(r)
    assert not transversal(r + 1e-3)
    assert est.radius_positivity == r


def test_tube_radius_rescan_samples_another_grid(sphere, monkeypatch):
    # the monotonicity rescan must read frames the scan did not, or it could
    # never disagree with it
    scans, scanning = [], [False]
    real_scan = verify.first_f_singularity
    real_at = grauert.lagrangian.FrameRays.at

    def scan(*args, **kwargs):
        scans.append([])
        scanning[0] = True
        try:
            return real_scan(*args, **kwargs)
        finally:
            scanning[0] = False

    def at(self, sigma, k=0):
        if scanning[0]:
            scans[-1].append(abs(sigma))
        return real_at(self, sigma, k)

    monkeypatch.setattr(verify, "first_f_singularity", scan)
    monkeypatch.setattr(grauert.lagrangian.FrameRays, "at", at)
    est = estimate_tube_radius(sphere, n_directions=1, seed=7, sweep_cap=2.0,
                               resolution=1e-3)
    assert est.monotone
    first, rescan = scans
    hit = est.radius_continuation

    def off_grid(times):
        # sample times short of the root bracket that are not multiples of 0.05
        return [t for t in times if t < hit - 0.1 and abs(t / 0.05 - round(t / 0.05)) > 1e-6]

    assert not off_grid(first)
    assert len(off_grid(rescan)) > 10


@pytest.mark.parametrize("resolution", [1e-2, 1e-3])
def test_tube_radius_builds_a_lift_basis_once_per_reader(sphere, monkeypatch, resolution):
    # the scan, the rescan and the window fit each build the lifted basis of
    # the direction once, however many frames they read
    builds = []
    real = jacobi.lifted_basis

    def counted(*args, **kwargs):
        builds.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(jacobi, "lifted_basis", counted)
    est = estimate_tube_radius(sphere, n_directions=1, seed=7, sweep_cap=2.0,
                               resolution=resolution)
    assert not est.capped["continuation"]  # a pole was hit, so the rescan ran
    assert 1 <= len(builds) <= 3


def test_tube_radius_one_kernel_call(sphere, monkeypatch):
    # the three rays of every direction are lanes of one kernel call
    calls = count_kernel_calls(monkeypatch)
    estimate_tube_radius(sphere, n_directions=3, seed=7, sweep_cap=2.0, resolution=1e-3)
    assert calls == [9]


def test_tube_radius_rejects_bad_cap(sphere):
    with pytest.raises(ValueError):
        estimate_tube_radius(sphere, sweep_cap=0.0)
    # the scan would read 2 * 10^7 frames per direction
    with pytest.raises(ValueError):
        estimate_tube_radius(sphere, sweep_cap=1e6)


def test_tube_radius_at_fine_resolution(sphere):
    # closer to 0 than the default resolution the frame meets its conjugate,
    # so the first probe stays there; and the bisection ends at adjacent
    # floats when the resolution lies below their spacing; the rescan of a
    # conjugate point agrees to the accuracy of its root polish, which lies
    # above the finest resolution
    ref = estimate_tube_radius(sphere, n_directions=2, seed=7, sweep_cap=2.0)
    for resolution in (1e-9, 1e-300):
        start = time.perf_counter()
        est = estimate_tube_radius(sphere, n_directions=2, seed=7, sweep_cap=2.0,
                                   resolution=resolution)
        assert time.perf_counter() - start < 10.0
        assert abs(est.radius_transversality - ref.radius_transversality) < 1e-3
        assert abs(est.radius_positivity - ref.radius_positivity) < 1e-3
        assert est.monotone


def test_tightening_comparison(flat):
    rows = tightening_comparison(flat, checks=("kahler_potential", "theta_sigma"),
                                 n_samples=6, seed=3)
    for row in rows:
        assert not row["verdict_changed"]
        assert row["ratio"] <= 2.0


@settings(max_examples=20, deadline=None)
@given(
    qx=st.floats(-1.5, 1.5),
    qy=st.floats(-1.5, 1.5),
    px=st.floats(-1.0, 1.0),
    py=st.floats(-1.0, 1.0),
    c=st.floats(0.25, 2.0),
)
def test_scaling_property_flat(qx, qy, px, py, c):
    flat = catalog("flat_space")
    if abs(px) + abs(py) < 1e-3:
        px = 0.5
    z = PhasePoint("main", np.array([qx, qy]), np.array([px, py]))
    rep = check_scaling(flat, [z], factors=(c,), sigmas=(0.8, 1j))
    assert rep.max_residual < 1e-9
