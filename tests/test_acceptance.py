"""Acceptance gate: the toolkit's headline guarantees, one test per claim.

Every test prints one PASS/FAIL line with the measured number next to its
bound, then asserts. Budgets are wall-clock seconds on a single core; they
are enforced, not decorative. Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they appear.
"""

import math
import time

import numpy as np
import pytest

from grauert.catalog import catalog
from grauert.extend import crosscheck, sphere_ambient, torus_trig
from grauert.flow import PhasePoint, SigmaPath, flow
from grauert.geometry import metric_inv_matrix
from grauert.jacobi import continue_f_to_i
from grauert.lagrangian import (
    FrameRays,
    j_tensor_from_frame,
    principal_angles,
)
from grauert.verify import estimate_tube_radius, run_battery, sample_tube_points
from oracles import (
    holomorphy_residual,
    homogeneity_residuals,
    j_tensor_from_f,
    tightening_comparison,
)

HALF_PI = 1.5707963267948966


def report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget:.0f}s"


def test_flat_torus_calibration():
    t0 = time.monotonic()
    model = catalog("flat_torus")
    pts = sample_tube_points(model, 10, 0, 0.1, 0.6)
    span = np.vstack([1j * np.eye(2), np.eye(2)])
    J_std = np.block([[np.zeros((2, 2)), -np.eye(2)],
                      [np.eye(2), np.zeros((2, 2))]])
    worst_angle = worst_j = 0.0
    for z in pts:
        F = FrameRays(model, [z], [1j]).at(1j)
        worst_angle = max(worst_angle, float(np.max(principal_angles(F, span))))
        J = j_tensor_from_frame(F)
        worst_j = max(worst_j, float(np.max(np.abs(J - J_std))))
    reports = run_battery(model, n_samples=50, seed=0)
    all_pass = all(r.verdict == "pass" for r in reports)
    elapsed = time.monotonic() - t0
    ok = worst_angle < 1e-10 and worst_j < 1e-10 and all_pass
    report(
        "flat calibration",
        ok,
        f"max principal angle {worst_angle:.1e} (<1e-10), "
        f"max J deviation {worst_j:.1e}, battery {'all pass' if all_pass else 'FAILED'}",
        elapsed,
        10.0,
    )


def test_sphere_closed_form_agreement():
    t0 = time.monotonic()
    model = catalog("round_sphere", radius=1.0)
    pts = sample_tube_points(model, 20, 3, 0.1, 1.2)
    worst_f = worst_j = 0.0
    for z in pts:
        gi = metric_inv_matrix(model, z.chart_id, z.q).real
        v = gi @ z.p.real
        rho = float(np.sqrt(v @ z.p.real))
        window = min(1.2, 0.75 * math.pi / (2 * rho))
        f_i, _ = continue_f_to_i(FrameRays(model, [z], [window, -window]), 0, window)
        target = np.diag([1j, 1j * math.tanh(rho) / rho])
        worst_f = max(worst_f, float(np.max(np.abs(f_i - target))))
        J_jac = j_tensor_from_f(model, z, f_i)
        J_flow = j_tensor_from_frame(FrameRays(model, [z], [1j]).at(1j))
        worst_j = max(worst_j, float(np.linalg.norm(J_flow - J_jac, 2)))
    elapsed = time.monotonic() - t0
    ok = worst_f < 1e-7 and worst_j < 1e-6
    report(
        "sphere closed form",
        ok,
        f"20 points rho in [0.1, 1.2]: continued f(i) vs diag(i, i tanh(rho)/rho) "
        f"{worst_f:.1e} (<1e-7), two-route J gap {worst_j:.1e} opnorm (<1e-6)",
        elapsed,
        60.0,
    )


def test_sphere_tube_radius():
    t0 = time.monotonic()
    model = catalog("round_sphere", radius=1.0)
    est = estimate_tube_radius(model, n_directions=8, sweep_cap=2.0,
                               resolution=1e-3, seed=7)
    err = abs(est.radius_continuation - HALF_PI)
    elapsed = time.monotonic() - t0
    ok = err < 0.01 and not est.capped["continuation"] and est.monotone
    report(
        "tube radius",
        ok,
        f"continuation radius {est.radius_continuation:.6f} vs pi/2, "
        f"error {err:.1e} (<0.01), monotone={est.monotone}",
        elapsed,
        120.0,
    )


def test_identity_battery_three_models():
    t0 = time.monotonic()
    lines = []
    all_ok = True
    for name, params in (
        ("flat_torus", {}),
        ("round_sphere", {"radius": 1.0}),
        ("surface_of_revolution", {"base": 2.0, "amp": 1.0}),
    ):
        reports = run_battery(catalog(name, **params), n_samples=50, seed=0)
        assert all(r.n_samples >= 50 for r in reports)
        bad = [r for r in reports if r.verdict != "pass"]
        all_ok = all_ok and not bad
        worst = max(r.max_residual / r.tolerance for r in reports)
        lines.append(f"{name} {'ok' if not bad else 'FAILED ' + str([r.check for r in bad])}"
                     f" (worst residual at {worst:.1e} of its tolerance)")
    elapsed = time.monotonic() - t0
    report("identity battery", all_ok, "; ".join(lines), elapsed, 600.0)


def test_extension_route_equivalence():
    t0 = time.monotonic()
    tor = catalog("flat_torus")
    sph = catalog("round_sphere", radius=1.0)
    cases = [
        (tor, torus_trig("wave", {(1, 0): 1.0})),
        (tor, torus_trig("mix", {(1, 0): 1.0, (2, 1): 0.3 - 0.2j, (0, -1): 0.5j})),
        (sph, sphere_ambient(sph, "height", (0.0, 0.0, 1.0))),
        (sph, sphere_ambient(sph, "x", (1.0, 0.0, 0.0))),
    ]
    worst_routes = worst_hom = worst_hol = 0.0
    for model, fn in cases:
        pts = sample_tube_points(model, 6, 1, 0.1, 0.5)
        for rep in crosscheck(model, fn, pts):
            worst_routes = max(worst_routes, rep["max_deviation"])
        for z in pts[:2]:
            for c in (0.5, 2.0):
                worst_hom = max(worst_hom, float(np.max(
                    homogeneity_residuals(model, fn, z, c, max_order=8))))
        worst_hol = max(worst_hol, holomorphy_residual(model, fn, pts[:3]))
    elapsed = time.monotonic() - t0
    ok = worst_routes < 1e-8 and worst_hom < 1e-9 and worst_hol <= 1e-5
    report(
        "extension equivalence",
        ok,
        f"route deviation {worst_routes:.1e} (<1e-8), "
        f"homogeneity defect through order 8 {worst_hom:.1e} (<1e-9), "
        f"holomorphy residual {worst_hol:.1e} (<=1e-5)",
        elapsed,
        120.0,
    )


def test_robustness_tolerance_and_paths():
    t0 = time.monotonic()
    tol = 1e-12
    rows = []
    for name in ("flat_torus", "round_sphere"):
        rows += tightening_comparison(catalog(name), n_samples=12, seed=0,
                                      flow_tol=tol, factor=10.0)
    moved = [r["check"] for r in rows if r["verdict_changed"]]
    worst_ratio = max(r["ratio"] for r in rows)
    # same endpoint along a straight path to i and a two-corner detour
    worst_path = 0.0
    for name, rho in (("round_sphere", 0.4), ("surface_of_revolution", 0.25)):
        model = catalog(name)
        for z in sample_tube_points(model, 3, 2, rho * 0.5, rho):
            a = flow(model, z, sigma=1j, tol=tol)
            b = flow(model, z, path=SigmaPath.via(0.6, 0.6 + 1j, 1j), tol=tol)
            assert a.point.chart_id == b.point.chart_id
            gap = max(float(np.max(np.abs(a.point.q - b.point.q))),
                      float(np.max(np.abs(a.point.p - b.point.p))))
            worst_path = max(worst_path, gap)
    elapsed = time.monotonic() - t0
    ok = not moved and worst_ratio <= 2.0 and worst_path < 100.0 * tol
    report(
        "robustness",
        ok,
        f"10x tightening: verdicts moved {moved or 'none'}, "
        f"worst residual ratio {worst_ratio:.2f} (<=2), "
        f"straight vs detour path gap {worst_path:.1e} (<{100 * tol:.0e})",
        elapsed,
        120.0,
    )
