import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grauert.extend as extend_module
import grauert.flow
from grauert.catalog import catalog
from grauert.cli import main
from grauert.errors import ChartDomainError, DivergenceError, SingularityError, UnsupportedModelError
from grauert.extend import (
    BaseFunction,
    crosscheck,
    extend_by_exp,
    extend_by_exp_lanes,
    extend_by_flow,
    extend_by_flow_lanes,
    extend_by_series,
    extend_by_series_lanes,
    sphere_ambient,
    torus_trig,
)
from grauert.flow import PhasePoint, SigmaPath
from grauert.verify import sample_tube_points
from oracles import (
    flow_derivative_coefficients,
    holomorphy_residual,
    homogeneity_residuals,
    nested_flow_derivative_fd,
    strip_identity_residual,
)
from test_flow import _count_calls, _g11_is_q0

E_MINUS_HALF = 0.6065306597126334  # e^{-1/2}
SINH_03 = 0.3045202934471426

# pole of 1/(5/4 + cos x) sits at Im x = ln 2
POLE_IM = math.log(2.0)


def pole_function():
    ev = lambda qs: 1.0 / (1.25 + np.cos(qs[0])) if not hasattr(qs[0], "c") else (
        1.0 / (1.25 + qs[0].sincos()[1])
    )
    ext = lambda xc: 1.0 / (1.25 + np.cos(xc[0]))
    return BaseFunction("cos_pole", {"main": ev}, margin=POLE_IM, extension=ext)


def sphere_point(rng, rho, chart="a"):
    th = rng.uniform(0.7, math.pi - 0.7)
    ph = rng.uniform(-math.pi, math.pi)
    u = rng.normal(size=2)
    g = np.diag([1.0, math.sin(th) ** 2])
    u = u / math.sqrt(u @ g @ u)
    return PhasePoint(chart, [th, ph], g @ (rho * u))


def test_torus_exponential_three_routes():
    tor = catalog("flat_torus")
    f = torus_trig("wave", {(1, 0): 1.0})
    z = PhasePoint("main", [0.0, 0.0], [0.5, 0.0])
    s = extend_by_series(tor, f, z)
    fl = extend_by_flow(tor, f, z)
    ex = extend_by_exp(tor, f, z)
    for r in (s, fl, ex):
        assert abs(r.value - E_MINUS_HALF) < 1e-12
    assert s.terms_used <= 41 and s.error_estimate < 1e-14
    assert fl.diagnostics["steps"] >= 1


def test_zero_momentum_is_restriction():
    tor = catalog("flat_torus")
    f = torus_trig("mix", {(1, 0): 1.0, (2, 1): 0.3 - 0.2j})
    z = PhasePoint("main", [0.7, -1.1], [0.0, 0.0])
    want = complex(cmath.exp(0.7j) + (0.3 - 0.2j) * cmath.exp(1j * (2 * 0.7 - 1.1)))
    (rep,) = crosscheck(tor, f, [z])
    assert rep["max_deviation"] < 1e-14
    for v in rep["values"].values():
        assert abs(v - want) < 1e-13
    assert rep["results"]["series"].terms_used <= 4


def test_sphere_height_series_matches_exp():
    sph = catalog("round_sphere")
    f = sphere_ambient(sph, "height", (0.0, 0.0, 1.0))
    z = PhasePoint("a", [math.pi / 2, 0.0], [0.3, 0.0])
    s = extend_by_series(sph, f, z)
    ex = extend_by_exp(sph, f, z)
    assert abs(s.value - ex.value) < 1e-10
    assert abs(s.value - (-1j * SINH_03)) < 1e-10
    fl = extend_by_flow(sph, f, z)
    assert abs(fl.value - ex.value) < 1e-9


def test_torus_crosscheck_random():
    tor = catalog("flat_torus")
    f = torus_trig("mix", {(1, 0): 1.0, (2, 1): 0.3 - 0.2j, (0, -1): 0.5j})
    rng = np.random.default_rng(11)
    pts = []
    for _ in range(20):
        q = rng.uniform(-math.pi, math.pi, size=2)
        v = rng.uniform(-1, 1, size=2)
        v *= rng.uniform(0.05, 0.5) / np.linalg.norm(v)
        pts.append(PhasePoint("main", q, v))
    worst = max(rep["max_deviation"] for rep in crosscheck(tor, f, pts))
    assert worst < 1e-10


def test_sphere_crosscheck_random():
    sph = catalog("round_sphere")
    fns = [
        sphere_ambient(sph, "height", (0.0, 0.0, 1.0)),
        sphere_ambient(sph, "tilted", (1.0, 0.5, -0.25)),
    ]
    rng = np.random.default_rng(12)
    pts = [sphere_point(rng, rng.uniform(0.05, 0.4)) for _ in range(10)]
    worst = max(rep["max_deviation"] for f in fns for rep in crosscheck(sph, f, pts))
    assert worst < 1e-8


def test_pole_function_divergence_and_margin():
    tor = catalog("flat_torus")
    f = pole_function()
    deep = PhasePoint("main", [0.3 - math.pi, 0.0], [1.0, 0.0])
    with pytest.raises(DivergenceError):
        extend_by_series(tor, f, deep)
    with pytest.raises(ChartDomainError):
        extend_by_flow(tor, f, deep)


def test_pole_function_convergent_region():
    tor = catalog("flat_torus")
    f = pole_function()
    x0 = 0.3 - math.pi
    z = PhasePoint("main", [x0, 0.0], [0.3, 0.0])
    ref = 1.0 / (1.25 + cmath.cos(x0 + 0.3j))
    (rep,) = crosscheck(tor, f, [z])
    assert abs(rep["values"]["series"] - ref) < 1e-10
    assert rep["max_deviation"] < 1e-9


def test_exp_route_requires_closed_form():
    srf = catalog("surface_of_revolution")
    plain = BaseFunction(
        "u_wave", {"main": lambda qs: (1j * qs[0]).exp() if hasattr(qs[0], "c") else np.exp(1j * qs[0])},
        margin=np.inf,
    )
    with pytest.raises(UnsupportedModelError):
        extend_by_exp(srf, plain, PhasePoint("main", [0.1, 0.2], [0.1, 0.0]))
    with pytest.raises(UnsupportedModelError):
        strip_identity_residual(srf, PhasePoint("main", [0.1, 0.2], [0.1, 0.0]), 0.3, 0.2)
    tor = catalog("flat_torus")
    no_ext = BaseFunction("bare", {"main": lambda qs: 1.0}, margin=np.inf)
    with pytest.raises(UnsupportedModelError):
        extend_by_exp(tor, no_ext, PhasePoint("main", [0.0, 0.0], [0.1, 0.0]))


def test_homogeneity_of_flow_derivatives():
    tor = catalog("flat_torus")
    f = torus_trig("mix", {(1, 0): 1.0, (2, 1): 0.3 - 0.2j, (0, -1): 0.5j})
    z = PhasePoint("main", [0.4, -0.3], [0.25, 0.15])
    sph = catalog("round_sphere")
    fs = sphere_ambient(sph, "height", (0.0, 0.0, 1.0))
    zs = PhasePoint("a", [math.pi / 2 - 0.2, 0.3], [0.35, 0.2])
    for model, fn, pt in ((tor, f, z), (sph, fs, zs)):
        for c in (0.5, 2.0):
            res = homogeneity_residuals(model, fn, pt, c, max_order=8)
            assert np.max(res) < 1e-9


def test_bracket_oracle_confirms_jet_derivatives():
    # five-point nesting at h=0.05 was measured at <= 8.2e-7 absolute error
    # through depth 4 on these points; 1e-5 leaves two decades of headroom
    tor = catalog("flat_torus")
    f = torus_trig("mix", {(1, 0): 1.0, (2, 1): 0.3 - 0.2j, (0, -1): 0.5j})
    z = PhasePoint("main", [0.4, -0.3], [0.25, 0.15])
    jet = flow_derivative_coefficients(tor, f, z, 4)
    for k in range(5):
        fd = nested_flow_derivative_fd(tor, f, z, k, h=0.05)
        assert abs(fd - jet[k]) < 1e-5
    sph = catalog("round_sphere")
    fs = sphere_ambient(sph, "height", (0.0, 0.0, 1.0))
    zs = PhasePoint("a", [math.pi / 2 - 0.2, 0.3], [0.35, 0.2])
    jet = flow_derivative_coefficients(sph, fs, zs, 4)
    for k in range(5):
        fd = nested_flow_derivative_fd(sph, fs, zs, k, h=0.05)
        assert abs(fd - jet[k]) < 1e-5


def test_strip_identity():
    tor = catalog("flat_torus")
    z = PhasePoint("main", [0.4, -0.3], [0.25, 0.15])
    assert strip_identity_residual(tor, z, 0.7, 0.4) < 1e-12
    sph = catalog("round_sphere")
    zs = PhasePoint("a", [math.pi / 2, 0.2], [0.0, 0.8])
    for sigma in (0.4, 1.0):
        for tau in (0.25, 0.6):
            assert strip_identity_residual(sph, zs, sigma, tau) < 1e-8


def test_strip_scaling_series_vs_flow():
    tor = catalog("flat_torus")
    f = torus_trig("mix", {(1, 0): 1.0, (2, 1): 0.3 - 0.2j})
    sph = catalog("round_sphere")
    fs = sphere_ambient(sph, "height", (0.0, 0.0, 1.0))
    cases = [
        (tor, f, PhasePoint("main", [0.4, -0.3], [0.5, 0.2])),
        (sph, fs, PhasePoint("a", [math.pi / 2, 0.1], [0.5, 0.0])),
    ]
    for model, fn, z in cases:
        for tau in (0.25, 0.5, 1.0):
            scaled = PhasePoint(z.chart_id, z.q, tau * z.p)
            s = extend_by_series(model, fn, scaled)
            fl = extend_by_flow(model, fn, z, path=SigmaPath.straight(1j * tau))
            assert abs(s.value - fl.value) < 1e-8


@pytest.mark.parametrize("method", ["flow", "series"])
def test_holomorphy_residual_flat_and_sphere(method):
    tor = catalog("flat_torus")
    wave = torus_trig("wave", {(1, 0): 1.0})
    pts = [
        PhasePoint("main", [0.2, 0.5], [0.3, -0.1]),
        PhasePoint("main", [-1.0, 2.0], [0.1, 0.25]),
    ]
    assert holomorphy_residual(tor, wave, pts, method=method) < 1e-9
    const = torus_trig("const", {(0, 0): 2.5})
    assert holomorphy_residual(tor, const, pts, method=method) == 0.0
    sph = catalog("round_sphere")
    fs = sphere_ambient(sph, "height", (0.0, 0.0, 1.0))
    zs = PhasePoint("a", [math.pi / 2 - 0.3, 0.4], [0.2, 0.15])
    assert holomorphy_residual(sph, fs, [zs], method=method) < 1e-5


@settings(deadline=None, max_examples=25)
@given(
    k1=st.integers(-2, 2),
    k2=st.integers(-2, 2),
    re=st.floats(-1, 1),
    im=st.floats(-1, 1),
    x0=st.floats(-3, 3),
    x1=st.floats(-3, 3),
    v0=st.floats(-0.4, 0.4),
    v1=st.floats(-0.4, 0.4),
)
def test_series_flow_agree_on_random_waves(k1, k2, re, im, x0, x1, v0, v1):
    tor = catalog("flat_torus")
    f = torus_trig("h", {(k1, k2): re + 1j * im, (1, -1): 0.4})
    z = PhasePoint("main", [x0, x1], [v0, v1])
    s = extend_by_series(tor, f, z)
    fl = extend_by_flow(tor, f, z)
    assert abs(s.value - fl.value) < 1e-8


# -- batch routes ------------------------------------------------------------------


def _u_wave(model):
    ev = lambda qs: (1j * qs[0]).exp() if hasattr(qs[0], "c") else np.exp(1j * qs[0])
    return BaseFunction("u_wave", {cid: ev for cid in model.charts}, margin=np.inf)


def _same_result(batch, alone):
    assert batch.value == alone.value
    assert batch.error_estimate == alone.error_estimate
    assert batch.terms_used == alone.terms_used
    for key in ("chart", "steps", "transitions"):
        assert batch.diagnostics.get(key) == alone.diagnostics.get(key)


def _both_sphere_charts(sph, n, seed):
    """n points of chart a and n of chart b, alternating."""
    a, b = (sample_tube_points(sph, n, seed, 0.1, 0.4, cid) for cid in ("a", "b"))
    return [z for pair in zip(a, b) for z in pair]


def test_batch_routes_equal_one_point_reads():
    tor = catalog("flat_torus")
    sph = catalog("round_sphere")
    cases = [
        (tor, torus_trig("wave", {(1, 0): 1.0}), sample_tube_points(tor, 12, 5, 0.1, 0.4)),
        (sph, sphere_ambient(sph, "height", (0.0, 0.0, 1.0)), sample_tube_points(sph, 12, 5, 0.1, 0.4)),
        (sph, sphere_ambient(sph, "tilted", (1.0, 0.5, -0.25)), _both_sphere_charts(sph, 6, 5)),
    ]
    for model, f, pts in cases:
        for z, rep in zip(pts, crosscheck(model, f, pts)):
            _same_result(rep["results"]["series"], extend_by_series(model, f, z))
            _same_result(rep["results"]["flow"], extend_by_flow(model, f, z))
            _same_result(rep["results"]["exp_map"], extend_by_exp(model, f, z))
    srf = catalog("surface_of_revolution")
    f = _u_wave(srf)
    pts = sample_tube_points(srf, 8, 2, 0.1, 0.32)
    for z, s, fl in zip(pts, extend_by_series_lanes(srf, f, pts), extend_by_flow_lanes(srf, f, pts)):
        _same_result(s, extend_by_series(srf, f, z))
        _same_result(fl, extend_by_flow(srf, f, z))


def test_exp_route_needs_neither_flow_nor_series(monkeypatch):
    sph = catalog("round_sphere")
    tor = catalog("flat_torus")
    cases = [
        (sph, sphere_ambient(sph, "tilted", (1.0, 0.5, -0.25)), _both_sphere_charts(sph, 4, 3)),
        (tor, torus_trig("mix", {(1, 0): 1.0, (2, 1): 0.3 - 0.2j}), sample_tube_points(tor, 8, 3, 0.1, 0.4)),
    ]
    want = [[r.value for r in extend_by_exp_lanes(*case)] for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the exp-map route reached the integrator")

    for module in (grauert.flow, extend_module):
        monkeypatch.setattr(module, "flow_lanes", refuse)
        monkeypatch.setattr(module, "_lane_series", refuse)
    for case, values in zip(cases, want):
        assert [r.value for r in extend_by_exp_lanes(*case)] == values
    # the torus's exponential map at v is the complex point q + i v
    z = PhasePoint("main", [0.4, -0.3], [0.25, 0.15])
    want = cmath.exp(1j * (0.4 + 0.25j)) + (0.3 - 0.2j) * cmath.exp(1j * (0.5 + 0.65j))
    assert abs(extend_by_exp(tor, cases[1][1], z).value - want) < 1e-15


def test_extend_runs_one_series_and_one_flow_call_per_route(tmp_path, monkeypatch, kernel_calls):
    series = _count_calls(monkeypatch, extend_module, "_lane_series")
    flows = kernel_calls
    for model, function in (("flat_torus", "wave"), ("round_sphere", "height")):
        ini = tmp_path / f"{model}.ini"
        ini.write_text(f"[model]\nname = {model}\n\n[grids]\nn_points = 48\nseed = 1\n"
                       f"rho_min = 0.1\nrho_max = 0.4\nfunction = {function}\n")
        series.clear()
        flows.clear()
        assert main(["extend", "--config", str(ini), "--out", str(tmp_path / model)]) == 0
        assert (len(series), len(flows)) == (1, 1), model
    # one series build per chart group
    sph = catalog("round_sphere")
    f = sphere_ambient(sph, "height", (0.0, 0.0, 1.0))
    pts = sample_tube_points(sph, 3, 1, 0.1, 0.4, "a") + sample_tube_points(sph, 3, 1, 0.1, 0.4, "b")
    series.clear()
    flows.clear()
    assert len(crosscheck(sph, f, pts)) == 6
    assert (len(series), len(flows)) == (2, 1)


def test_batch_raises_first_failing_point_series_before_flow():
    tor = catalog("flat_torus")
    f = pole_function()
    diverges = PhasePoint("main", [0.3 - math.pi, 0.0], [1.0, 0.0])
    # far from the pole the series converges, but the flow ends outside the strip
    leaves_strip = PhasePoint("main", [0.0, 0.0], [0.8, 0.0])
    fine = PhasePoint("main", [0.0, 0.0], [0.2, 0.0])
    assert isinstance(extend_by_series(tor, f, leaves_strip).value, complex)
    with pytest.raises(DivergenceError):
        crosscheck(tor, f, [fine, diverges, leaves_strip])
    with pytest.raises(ChartDomainError):
        crosscheck(tor, f, [fine, leaves_strip, diverges])
    # each lane keeps its own error
    s = extend_by_series_lanes(tor, f, [diverges, leaves_strip, fine])
    fl = extend_by_flow_lanes(tor, f, [diverges, leaves_strip, fine])
    assert isinstance(s[0], DivergenceError) and isinstance(fl[0], ChartDomainError)
    assert isinstance(fl[1], ChartDomainError)
    _same_result(s[1], extend_by_series(tor, f, leaves_strip))
    _same_result(s[2], extend_by_series(tor, f, fine))
    _same_result(fl[2], extend_by_flow(tor, f, fine))


def test_unknown_chart_stays_in_its_lane():
    tor = catalog("flat_torus")
    f = pole_function()
    fine = PhasePoint("main", [0.0, 0.0], [0.2, 0.0])
    nowhere = PhasePoint("nope", [0.0, 0.0], [0.2, 0.0])
    for lanes, one in ((extend_by_series_lanes, extend_by_series),
                       (extend_by_flow_lanes, extend_by_flow)):
        good, bad = lanes(tor, f, [fine, nowhere])
        _same_result(good, one(tor, f, fine))
        assert isinstance(bad, ChartDomainError)


def test_singular_series_retires_one_lane():
    # at q0 = 0 a series has a vanishing constant term: a pivot of g, or, on
    # the flat torus, where every state series is finite, f's divisor
    cases = [
        (_g11_is_q0(), BaseFunction("q1", {"main": lambda qs: qs[1]}, margin=np.inf)),
        (catalog("flat_torus"), BaseFunction("inv_q0", {"main": lambda qs: 1.0 / qs[0]},
                                             margin=np.inf)),
    ]
    good = [PhasePoint("main", [1.0, 0.2], [0.1, 0.2]), PhasePoint("main", [1.5, -0.3], [-0.2, 0.1])]
    bad = PhasePoint("main", [0.0, 0.0], [0.1, 0.2])
    for model, f in cases:
        first, broken, last = extend_by_series_lanes(model, f, [good[0], bad, good[1]])
        assert isinstance(broken, SingularityError)
        assert broken.reason == "non-finite series"
        assert broken.last_good_sigma == 0
        _same_result(first, extend_by_series(model, f, good[0]))
        _same_result(last, extend_by_series(model, f, good[1]))
        # one point raises the typed breakdown, not an arithmetic error
        with pytest.raises(SingularityError) as exc:
            extend_by_series(model, f, bad)
        assert exc.value.reason == "non-finite series"
    # on the flat torus the flow reaches q + i p at parameter i
    for z, lane in zip(good, (first, last)):
        assert abs(lane.value - 1.0 / (z.q[0] + 1j * z.p[0])) < 1e-12


def test_point_outside_its_box_is_refused_by_every_route():
    sph = catalog("round_sphere")
    f = sphere_ambient(sph, "tilted", (1.0, 0.5, -0.25))
    pts = _both_sphere_charts(sph, 2, 3)
    # theta = 0.01 lies beyond chart a's box, short of its pole
    pts.insert(2, PhasePoint("a", [0.01, 0.0], [0.1, 0.1]))
    routes = ((extend_by_series_lanes, extend_by_series), (extend_by_flow_lanes, extend_by_flow),
              (extend_by_exp_lanes, extend_by_exp))
    refusals = set()
    for lanes, one in routes:
        got = lanes(sph, f, pts)
        assert isinstance(got[2], ChartDomainError), lanes.__name__
        refusals.add(str(got[2]))
        for z, lane in zip(pts, got):
            if z is not pts[2]:
                _same_result(lane, one(sph, f, z))
    assert len(refusals) == 1


def test_non_finite_series_is_a_typed_breakdown():
    # the order-40 series overflows at this momentum: a breakdown at 0, not a NaN value
    srf = catalog("surface_of_revolution")
    wave = torus_trig("wave", {(1, 0): 1.0})
    with pytest.raises(SingularityError) as exc:
        extend_by_series(srf, wave, PhasePoint("main", [0.0, 0.0], [1e150, 0.0]))
    assert exc.value.reason == "non-finite series"
    assert exc.value.last_good_sigma == 0j
