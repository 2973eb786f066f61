import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grauert
from grauert.catalog import catalog
from grauert.errors import GrauertError, InvalidParamsError, SingularityError
from grauert.flow import PhasePoint, flow_lanes
from grauert.geometry import metric_matrix
from grauert.lagrangian import FrameRays, j_tensor_from_frame
from grauert import jacobi, verify
from test_flow import MERIDIAN_TAU, _count_calls, meridian
from grauert.verify import (
    check_adaptedness,
    check_involution,
    check_kahler_potential,
    check_nijenhuis,
    check_scaling,
    check_theta_sigma_identity,
    check_zero_section,
    estimate_tube_radius,
    flipped_points,
    nijenhuis_points,
    rest_points,
    run_battery,
    sample_tube_points,
    scaled_points,
    strip_nodes,
)
from oracles import tightening_comparison

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


def test_sobol_rows_end_at_21_dimensions():
    # d = 21 is covered above; the sampler has direction numbers for no more
    with pytest.raises(InvalidParamsError):
        verify._sobol(22, 1, 0)


def test_ndtri_matches_scipy_special():
    # scipy.special is the oracle: the plain-float Cephes transcription returns
    # its bits on the clip interval, at both ends, at 1/2, around both branch
    # points e^-2 and 1 - e^-2, and at drawn points
    from scipy.special import ndtri

    clip, e2 = (1e-6, 1.0 - 1e-6), math.exp(-2.0)
    edges = np.array([*clip, 0.5, e2, 1.0 - e2])
    ys = np.concatenate([np.linspace(*clip, 100_001), edges,
                         np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    assert np.array_equal([verify._ndtri(y) for y in ys.tolist()], ndtri(ys))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.floats(*clip))
    def drawn(y):
        assert np.array_equal(verify._ndtri(y), ndtri(y))

    drawn()


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


def per_point_tube_points(model, n, seed, rho_min, rho_max):
    """sample_tube_points one point at a time, with metric_matrix per point: the reference."""
    cid, dim = model.default_chart, model.dim
    ch = model.chart(cid)
    u = verify._sobol(2 * dim + 1, max(1, math.ceil(math.log2(max(n, 2)))), seed)[:n]
    lo, hi = ch.lo + 0.15 * ch.width(), ch.hi - 0.15 * ch.width()
    out = []
    for row in u:
        raw = np.array([verify._ndtri(y) for y in np.clip(row[dim:2 * dim], 1e-6, 1.0 - 1e-6).tolist()])
        q = lo + row[:dim] * (hi - lo)
        g = metric_matrix(model, cid, q.astype(complex)).real
        v = (rho_min + row[-1] * (rho_max - rho_min)) / math.sqrt(float(raw @ g @ raw)) * raw
        out.append(PhasePoint(cid, q, g @ v))
    return out


@pytest.mark.parametrize("name", sorted(grauert.catalog._BUILDERS))
@pytest.mark.parametrize("seed", [1, 101])
@pytest.mark.parametrize("n", [8, 48])
def test_tube_points_equal_the_per_point_reference(name, seed, n):
    model = catalog(name)
    got, want = sample_tube_points(model, n, seed, 0.1, 0.4), per_point_tube_points(model, n, seed, 0.1, 0.4)
    assert len(got) == len(want) == n
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
    F = FrameRays(flat, [pts[0]], [0.0]).at(0.0)
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
    J = j_tensor_from_frame(FrameRays(flat, [z], [1j]).at(1j))
    dk = 2.0 * verify._grad_energy(flat, "main", z.q, z.p)
    wrong = 0.5 * (dk[0] - 1j * (dk @ J[:, 0]))
    assert abs(wrong.imag - z.p[0].real) > 0.5


def test_kahler_potential_curved(sphere, surfrev):
    for model in (sphere, surfrev):
        pts = sample_tube_points(model, 8, 5, 0.1, 0.3)
        rep = check_kahler_potential(FrameRays(model, pts, [1j]))
        assert rep.verdict == "pass", rep.to_record()


def adaptedness_inputs(model, covs):
    return FrameRays.batch(model, [(covs, []), (strip_nodes(covs), [1j])], 1e-12)


def test_adaptedness_strips(flat, sphere):
    covs = sample_tube_points(flat, 2, 6, 1.0, 1.0)
    rep = check_adaptedness(*adaptedness_inputs(flat, covs))
    assert rep.verdict == "pass"
    assert rep.max_residual < 1e-8

    covs = sample_tube_points(sphere, 2, 7, 1.0, 1.0)
    rep = check_adaptedness(*adaptedness_inputs(sphere, covs))
    assert rep.verdict == "pass", rep.to_record()


@pytest.mark.parametrize("name", ["round_sphere", "surface_of_revolution"])
def test_adaptedness_covers_the_nodes_off_sigma_0(name):
    # a strip's node at sigma is the node at 0 of the strip of the covector
    # flowed to sigma: the real flows of the old strip grid, fed back as
    # covectors, pass at roundoff
    model = catalog(name)
    covs = sample_tube_points(model, 3, 1, 1.0, 1.0)
    sigmas = (-0.5, -0.25, 0.25, 0.5)
    ends = flow_lanes(model, [z for z in covs for _ in sigmas], sigma=list(sigmas) * len(covs))
    shifted = [PhasePoint(r.point.chart_id, r.point.q.real, r.point.p.real) for r in ends]
    rep = check_adaptedness(*adaptedness_inputs(model, shifted))
    assert rep.n_samples == len(shifted) * len(verify.STRIP_TAUS)
    assert rep.verdict == "pass"
    assert rep.max_residual <= 1e-12, rep.to_record()


def test_adaptedness_raises_the_first_failing_node_breakdown(surfrev):
    # a node (q, tau p) of a surface meridian whose speed |tau p| exceeds
    # tau* stops on its backward flow to -i, at -i tau* / |tau p|; the error
    # raised is the first failing node's in covector-major order, after a
    # covector whose nodes all work, though the last covector's nodes stop
    # sooner
    covs = sample_tube_points(surfrev, 1, 3, 1.0, 1.0) + [meridian(2.0), meridian(3.0)]
    with pytest.raises(SingularityError) as exc:
        check_adaptedness(*adaptedness_inputs(surfrev, covs))
    first = None
    for k, w in enumerate(strip_nodes(covs)):
        try:
            FrameRays(surfrev, [w], [1j]).at(1j)
        except SingularityError as e:
            first = e
            break
    assert k == len(verify.STRIP_TAUS)
    assert exc.value.reason == first.reason == "step collapse"
    assert abs(exc.value.last_good_sigma - first.last_good_sigma) < 1e-12
    speed = 2.0 * abs(verify.STRIP_TAUS[0])
    assert abs(first.last_good_sigma + 1j * MERIDIAN_TAU / speed) < 1e-6


def test_adaptedness_at_roundoff(sphere, surfrev):
    # strip states from dense flows and the exact field as sigma-derivative
    # leave nothing but roundoff; the inputs are those of `grauert verify`
    # with 8 points, one strip and seed 1
    for model in (sphere, surfrev):
        rep = run_battery(model, checks=["adaptedness"], n_samples=8, seed=1, n_strips=1)[0]
        assert rep.n_samples == 25
        assert rep.max_residual <= 1e-12, rep.to_record()


def involution_inputs(model, pts):
    return FrameRays.batch(model, [(pts, [1j]), (flipped_points(pts), [1j])], 1e-12)


def scaling_inputs(model, pts, factors=verify.SCALING_FACTORS, sigmas=verify.SCALING_SIGMAS):
    return FrameRays.batch(model, [(pts, [c * s for c in factors for s in sigmas]),
                                   (scaled_points(pts, factors), sigmas)], 1e-12)


def zero_section_inputs(model, pts):
    return FrameRays.batch(model, [(rest_points(pts), [-s for s in verify.ZERO_SECTION_SIGMAS])],
                           1e-12)


def nijenhuis_inputs(model, pts):
    return FrameRays.batch(model, [(pts, [1j]), (nijenhuis_points(pts), [1j])], 1e-12)


def test_involution_and_scaling(flat, sphere):
    pts = sample_tube_points(flat, 8, 8, 0.2, 0.8)
    assert check_involution(*involution_inputs(flat, pts)).max_residual < 1e-12
    small = sample_tube_points(flat, 8, 9, 0.05, 0.25)
    assert check_scaling(*scaling_inputs(flat, small)).max_residual < 1e-10

    pts = sample_tube_points(sphere, 6, 10, 0.1, 0.4)
    rep = check_involution(*involution_inputs(sphere, pts))
    assert rep.verdict == "pass", rep.to_record()
    small = sample_tube_points(sphere, 6, 11, 0.05, 0.25)
    rep = check_scaling(*scaling_inputs(sphere, small))
    assert rep.verdict == "pass", rep.to_record()


def test_zero_section_unipotent(flat, sphere, surfrev):
    for model, bound in ((flat, 1e-14), (sphere, 1e-9), (surfrev, 1e-9)):
        pts = sample_tube_points(model, 6, 12, 0.1, 0.3)
        rep = check_zero_section(*zero_section_inputs(model, pts))
        assert rep.verdict == "pass", rep.to_record()
        assert rep.max_residual < bound


def test_one_flow_per_ray(sphere, kernel_calls):
    # every sample on a ray a check has integrated is read from that flow; the
    # FrameRays a check takes are built in one kernel call, and the check
    # itself flows nothing
    calls = kernel_calls
    pts = sample_tube_points(sphere, 2, 12, 0.1, 0.25)
    # the check's inputs, and the lanes per point of its own routes, beside
    # the main cloud's rays (theta_sigma's 2, kahler_potential's, involution's
    # and nijenhuis's 1)
    for check, inputs, own, main in (
            (check_zero_section, zero_section_inputs, 1, 0),
            (check_scaling, scaling_inputs, 6, 0),
            (check_involution, involution_inputs, 1, 1),
            (check_nijenhuis, nijenhuis_inputs, 16, 1),
            (check_kahler_potential, lambda m, p: [FrameRays(m, p, [1j])], 0, 1),
            (check_theta_sigma_identity,
             lambda m, p: [FrameRays(m, p, verify.THETA_SIGMAS)], 0, 2)):
        for k in (1, 2):
            calls.clear()
            args = inputs(sphere, pts[:k])
            assert calls == [k * (own + main)], (check.__name__, k, calls)
            calls.clear()
            assert check(*args).verdict == "pass"
            assert calls == [], (check.__name__, k, calls)


@pytest.mark.parametrize("name", ["round_sphere", "surface_of_revolution"])
def test_battery_flows_each_main_ray_once(name, kernel_calls):
    # theta_sigma, kahler_potential, involution and nijenhuis read the main
    # cloud's frames from one FrameRays; a flow of the cloud to sigma = i per
    # check would take 259 lanes. The battery is one kernel call: 208 lanes
    # of the main cloud and the routes of involution, nijenhuis, scaling and
    # zero_section, and the 25 adaptedness nodes; no strip is flowed
    calls = kernel_calls
    model = catalog(name)
    run_battery(model, n_samples=8, n_strips=1, seed=1)
    assert calls == [233]
    # a check that reads no frame of the main cloud flows none of its lanes
    calls.clear()
    run_battery(model, checks=["zero_section"], n_samples=8, n_strips=1, seed=1)
    assert calls == [8]
    calls.clear()
    run_battery(model, checks=["adaptedness"], n_samples=8, n_strips=1, seed=1)
    assert calls == [25]
    calls.clear()
    run_battery(model, checks=["scaling", "kahler_potential"], n_samples=8, n_strips=1, seed=1)
    assert calls == [8 + 16 + 32]


@pytest.mark.parametrize("name", ["round_sphere", "surface_of_revolution"])
def test_a_lane_does_not_care_which_batch_it_runs_in(name):
    # lanes of two routes, main-cloud rays and Nijenhuis stencil points, take
    # the same steps with the same coefficients and end on the same jacobian
    # in batches of one as merged into one call: the batch couples nothing
    model = catalog(name)
    pts = sample_tube_points(model, 2, 1, 0.5, 0.9)  # fast enough to take several steps
    rays, ray_sigmas = [pts[0], pts[1], pts[1]], [-1j, -1j, 1.5]
    if name == "round_sphere":
        # the unit-speed direction of config seed 7 leaves chart a for chart b
        # on its backward ray of negative real times
        rays.append(sample_tube_points(model, 1, 7, 1.0, 1.0)[0])
        ray_sigmas.append(1.4)
    stencils = nijenhuis_points(pts[:1])
    points, sigmas = rays + stencils, ray_sigmas + [-1j] * len(stencils)
    own = [flow_lanes(model, [z], sigma=s, variational=True)[0] for z, s in zip(points, sigmas)]
    merged = flow_lanes(model, points, sigma=sigmas, variational=True)
    assert len(own) == len(merged) == len(rays) + 16
    for a, b in zip(own, merged):
        assert a.diagnostics.steps == b.diagnostics.steps > 1
        assert len(a.segments) == len(b.segments)
        for sa, sb in zip(a.segments, b.segments):
            assert sa.chart_id == sb.chart_id and sa.dt == sb.dt
            assert np.array_equal(sa.coeffs, sb.coeffs)
        assert np.array_equal(a.jacobian, b.jacobian)
    if name == "round_sphere":
        assert merged[3].diagnostics.transitions >= 1
        assert {s.chart_id for s in merged[3].segments} == {"a", "b"}


def test_nijenhuis(flat, sphere):
    pts = sample_tube_points(flat, 4, 13, 0.2, 0.8)
    rep = check_nijenhuis(*nijenhuis_inputs(flat, pts))
    assert rep.max_residual < 1e-11

    pts = sample_tube_points(sphere, 4, 14, 0.15, 0.5)
    rep = check_nijenhuis(*nijenhuis_inputs(sphere, pts))
    assert rep.verdict == "pass", rep.to_record()

    # along the zero section the structure is algebraic and the residual drops
    rep0 = check_nijenhuis(*nijenhuis_inputs(sphere, rest_points(pts)))
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
    # the spreading matrix f(i tau) = diag(i tau, i tanh tau) is transverse
    # and positive for every tau: both radii reach the cap
    assert est.radius_transversality == est.radius_positivity == 2.0
    assert est.capped["transversality"] and est.capped["positivity"]


def test_tube_radius_by_fresh_frames(sphere, monkeypatch, kernel_calls):
    # independent route: fresh backward flows, one per frame, out to the
    # reported transversality radius
    est = estimate_tube_radius(sphere, n_directions=1, seed=5, sweep_cap=2.0,
                               resolution=1e-3)
    assert sum(kernel_calls) <= 4
    monkeypatch.undo()

    # the frame is transverse for every tau, so the radius is the cap
    r = est.radius_transversality
    assert r == 2.0 and est.capped["transversality"]
    z = sample_tube_points(sphere, 1, 5, 1.0, 1.0)[0]

    def transversal(tau):
        try:
            j_tensor_from_frame(FrameRays(sphere, [z], [1j * tau]).at(1j * tau))
            return True
        except GrauertError:
            return False

    assert all(transversal(tau) for tau in np.linspace(0.25, r, 8))
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
            scans[-1].extend(np.abs(np.ravel(sigma)))  # every time of a stacked read
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


def test_tube_radius_reads_scans_and_window_stacked(sphere, monkeypatch):
    # each scan direction's grid and the rational-fit window are one read
    # each; the root polishing and the bisections read one frame at a time
    reads = []
    real_at = grauert.lagrangian.FrameRays.at

    def at(self, sigma, k=0):
        reads.append(np.size(sigma))
        return real_at(self, sigma, k)

    monkeypatch.setattr(grauert.lagrangian.FrameRays, "at", at)
    est = estimate_tube_radius(sphere, n_directions=1, seed=7, sweep_cap=2.0,
                               resolution=1e-3)
    assert not est.capped["continuation"]  # a pole was hit, so the rescan ran
    assert len(reads) <= 60
    assert 21 in reads  # the window


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


def test_tube_radius_one_kernel_call(sphere, kernel_calls):
    # the three rays of every direction are lanes of one kernel call
    estimate_tube_radius(sphere, n_directions=3, seed=7, sweep_cap=2.0, resolution=1e-3)
    assert kernel_calls == [9]


def test_tube_radius_builds_once_per_step_across_charts(sphere, monkeypatch):
    # the sphere's charts share one evaluator, so the rays of every direction
    # take each step with one series build, wherever each ray's chart is
    builds = _count_calls(monkeypatch, grauert.flow, "_lane_series")
    estimate_tube_radius(sphere, n_directions=1, seed=7, sweep_cap=2.0, resolution=1e-3)
    assert len(builds) == 13
    builds.clear()
    est = estimate_tube_radius(sphere, n_directions=20, seed=7, sweep_cap=2.0,
                               resolution=1e-3)
    assert len(builds) <= 21
    # the radii that one build per chart and step gave, to the bit
    assert (est.radius_continuation, est.pade_nearest_pole) == (1.5707960828872254,
                                                                1.570796326567883)
    assert est.radius_transversality == est.radius_positivity == 2.0


def test_tube_radius_rejects_bad_cap(sphere):
    with pytest.raises(InvalidParamsError):
        estimate_tube_radius(sphere, sweep_cap=0.0)
    with pytest.raises(InvalidParamsError, match="positive"):
        estimate_tube_radius(sphere, sweep_cap=-1.0, resolution=-2.0)
    # the scan would read 2 * 10^7 frames per direction
    with pytest.raises(InvalidParamsError):
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
    rep = check_scaling(*scaling_inputs(flat, [z], (c,), (0.8, 1j)), factors=(c,),
                        sigmas=(0.8, 1j))
    assert rep.max_residual < 1e-9
