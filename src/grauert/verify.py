"""Identity battery over sampled tube points, and empirical tube radii.

Each check recomputes one structural identity of the adapted complex
structure numerically over a deterministic low-discrepancy sample of tube
points and reports the worst residual against a stated tolerance. The checks
only consume public machinery from the other modules, so a pass certifies
cross-module consistency rather than one code path agreeing with itself.

Radius estimation turns breakdown into the measurement: for each sampled
unit covector the largest imaginary time that still works is located by
bisection, separately for plain continuation of the flow, transversality of
the continued distribution against its conjugate, and positivity of the
induced metric candidate. The reported radius of each kind is the infimum
over directions.

Sampling is Sobol with a fixed seed throughout, so reports are reproducible
bit for bit from the same configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.stats import norm, qmc

from .errors import GrauertError
from .flow import PhasePoint, flow, hamiltonian_vector_field
from .geometry import metric_matrix
from .jets import value
from .jacobi import continue_f_to_i, first_f_singularity
from .lagrangian import (
    distribution_at,
    j_tensor_from_frame,
    orthonormal_tangent_basis,
    positivity_check,
    principal_angles,
)

__all__ = [
    "VerificationReport",
    "TubeRadiusEstimate",
    "sample_tube_points",
    "check_theta_sigma_identity",
    "check_kahler_potential",
    "check_adaptedness",
    "check_involution",
    "check_scaling",
    "check_zero_section",
    "check_nijenhuis",
    "estimate_tube_radius",
    "run_battery",
    "tightening_comparison",
    "DEFAULT_TOLERANCES",
]

DEFAULT_TOLERANCES = {
    "adaptedness": 1e-5,
    "involution": 1e-7,
    "kahler_potential": 1e-6,
    "nijenhuis": 1e-4,
    "scaling": 1e-8,
    "theta_sigma": 1e-8,
    "zero_section": 1e-9,
}

THETA_SIGMAS = (0.35, 0.7, 0.45j, 0.8j)
SCALING_FACTORS = (0.5, 2.0)
SCALING_SIGMAS = (0.6, 1j)
ZERO_SECTION_SIGMAS = (0.3, 1.0, 2.0)


@dataclass(frozen=True)
class VerificationReport:
    model: str
    params: dict
    check: str
    n_samples: int
    max_residual: float
    tolerance: float
    worst: tuple = ()

    @property
    def verdict(self):
        return "pass" if self.max_residual <= self.tolerance else "fail"

    def to_record(self):
        return {
            "check": self.check,
            "model": self.model,
            "params": {k: _plain(v) for k, v in self.params.items()},
            "n_samples": self.n_samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "worst": [{"point": lbl, "residual": float(r)} for lbl, r in self.worst],
        }


@dataclass(frozen=True)
class TubeRadiusEstimate:
    model: str
    params: dict
    radius_continuation: float
    radius_transversality: float
    radius_positivity: float
    sweep_cap: float
    capped: dict
    monotone: bool
    n_directions: int
    pade_nearest_pole: float | None = None

    def to_record(self):
        return {
            "model": self.model,
            "params": {k: _plain(v) for k, v in self.params.items()},
            "radius_continuation": self.radius_continuation,
            "radius_transversality": self.radius_transversality,
            "radius_positivity": self.radius_positivity,
            "sweep_cap": self.sweep_cap,
            "capped": dict(self.capped),
            "monotone": self.monotone,
            "n_directions": self.n_directions,
            "pade_nearest_pole": self.pade_nearest_pole,
        }


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, tuple):
        return list(v)
    return v


def _label(z, extra=""):
    q = np.round(np.asarray(z.q).real, 3).tolist()
    p = np.round(np.asarray(z.p).real, 3).tolist()
    tail = f" {extra}" if extra else ""
    return f"{z.chart_id}:q={q},p={p}{tail}"


def _report(model, check, residuals, tolerance):
    """residuals: list of (label, value). Keeps the three worst for the record."""
    ranked = sorted(residuals, key=lambda t: -t[1])
    return VerificationReport(
        model=model.name,
        params=dict(model.params),
        check=check,
        n_samples=len(residuals),
        max_residual=float(ranked[0][1]) if ranked else 0.0,
        tolerance=tolerance,
        worst=tuple(ranked[:3]),
    )


# -- sampling -----------------------------------------------------------------


def sample_tube_points(model, n, seed, rho_min, rho_max, chart_id=None):
    """Deterministic low-discrepancy tube points: chart box x momentum shell.

    Positions fill the central 70% of the chart box; momentum directions come
    from inverse-normal-mapped Sobol coordinates normalized in the metric,
    scaled to |v| in [rho_min, rho_max].
    """
    cid = chart_id or model.default_chart
    ch = model.chart(cid)
    dim = model.dim
    eng = qmc.Sobol(d=2 * dim + 1, scramble=True, seed=seed)
    m = max(1, math.ceil(math.log2(max(n, 2))))
    u = eng.random_base2(m=m)
    while u.shape[0] < n:
        u = np.vstack([u, eng.random_base2(m=m)])
    u = u[:n]
    lo = ch.lo + 0.15 * ch.width()
    hi = ch.hi - 0.15 * ch.width()
    out = []
    for row in u:
        q = lo + row[:dim] * (hi - lo)
        raw = norm.ppf(np.clip(row[dim : 2 * dim], 1e-6, 1.0 - 1e-6))
        g = metric_matrix(model, cid, q.astype(complex)).real
        nrm = math.sqrt(float(raw @ g @ raw))
        rho = rho_min + row[-1] * (rho_max - rho_min)
        v = (rho / nrm) * raw
        out.append(PhasePoint(cid, q, g @ v))
    return out


def _grad_energy(model, cid, q, p):
    """Phase-space gradient (dE/dq, dE/dp) of the energy, read off its Hamiltonian field."""
    dq, dp = hamiltonian_vector_field(model, cid, list(q), list(p))
    return np.array([-value(x) for x in dp] + [value(x) for x in dq], dtype=complex)


# -- identity checks ----------------------------------------------------------


def check_theta_sigma_identity(model, points, sigmas=THETA_SIGMAS,
                               tolerance=DEFAULT_TOLERANCES["theta_sigma"],
                               flow_tol=1e-12):
    """Canonical 1-form on the continued distribution vs sigma times the energy derivative.

    For every frame column Z of the distribution at parameter sigma, the
    pairing p . Z_q must equal sigma times the derivative of the energy along
    Z; this ties the flow-transported frames to the symplectic structure.
    """
    residuals = []
    for z in points:
        dE = _grad_energy(model, z.chart_id, z.q, z.p)
        n = z.dim
        for s in sigmas:
            fr = distribution_at(model, z, s, tol=flow_tol)
            cols = fr.columns
            r = 0.0
            for j in range(cols.shape[1]):
                Z = cols[:, j]
                theta = complex(z.p @ Z[:n])
                r = max(r, abs(theta - s * complex(dE @ Z)))
            residuals.append((_label(z, f"sigma={s}"), r))
    return _report(model, "theta_sigma", residuals, tolerance)


def check_kahler_potential(model, points,
                           tolerance=DEFAULT_TOLERANCES["kahler_potential"],
                           flow_tol=1e-12, dbar_sign=1.0):
    """Twice the energy is a potential: Im of its dbar equals the canonical 1-form.

    dbar on functions is (d + i d.J)/2; the derivative of the potential is
    exact from the metric evaluators, J comes from the continued vertical
    distribution, and the identity is tested on the full coordinate basis.
    ``dbar_sign`` exists as a demonstration knob: anything but +1 breaks the
    calibration loudly, which is the point of having the calibration.
    """
    residuals = []
    for z in points:
        n = z.dim
        fr = distribution_at(model, z, 1j, tol=flow_tol)
        J = j_tensor_from_frame(fr)
        dkappa = 2.0 * _grad_energy(model, z.chart_id, z.q, z.p)
        r = 0.0
        for a in range(2 * n):
            dbar = 0.5 * (dkappa[a] + dbar_sign * 1j * (dkappa @ J[:, a]))
            theta = z.p[a].real if a < n else 0.0
            r = max(r, abs(dbar.imag - theta))
        residuals.append((_label(z), r))
    return _report(model, "kahler_potential", residuals, tolerance)


def check_adaptedness(model, points, sigma_max=0.5, tau_max=0.4, n_sigma=5,
                      n_tau=5, h=1e-4,
                      tolerance=DEFAULT_TOLERANCES["adaptedness"],
                      flow_tol=1e-12):
    """The geodesic strips are holomorphic curves for the computed structure.

    Each unit covector spans a strip (sigma, tau) -> (position at sigma, tau
    times momentum at sigma); J applied to the sigma-derivative must give the
    tau-derivative. The sigma-derivative is a central difference of the real
    flow, the tau-derivative is exact since the strip is linear in tau.
    """
    residuals = []
    for z in points:
        g = metric_matrix(model, z.chart_id, z.q).real
        gi = np.linalg.inv(g)
        speed = math.sqrt(float((z.p.real @ gi @ z.p.real)))
        zu = PhasePoint(z.chart_id, z.q, z.p / speed)
        states = {}
        for s in np.linspace(-sigma_max, sigma_max, n_sigma):
            for ds in (-h, 0.0, h):
                key = round(float(s + ds), 12)
                if key not in states:
                    states[key] = flow(model, zu, sigma=float(s + ds), tol=flow_tol).point
        for s in np.linspace(-sigma_max, sigma_max, n_sigma):
            c0 = states[round(float(s), 12)]
            cp = states[round(float(s + h), 12)]
            cm = states[round(float(s - h), 12)]
            if not (c0.chart_id == cp.chart_id == cm.chart_id):
                continue  # stencil straddles an atlas seam; skip the node
            dq = (cp.q - cm.q) / (2.0 * h)
            dp = (cp.p - cm.p) / (2.0 * h)
            for t in np.linspace(-tau_max, tau_max, n_tau):
                node = PhasePoint(c0.chart_id, c0.q.real, t * c0.p.real)
                fr = distribution_at(model, node, 1j, tol=flow_tol)
                J = j_tensor_from_frame(fr)
                push_sigma = np.concatenate([dq, t * dp])
                push_tau = np.concatenate([np.zeros_like(c0.q), c0.p])
                r = float(np.max(np.abs(J @ push_sigma - push_tau)))
                residuals.append((_label(zu, f"sigma={s:.2f},tau={t:.2f}"), r))
    return _report(model, "adaptedness", residuals, tolerance)


def check_involution(model, points,
                     tolerance=DEFAULT_TOLERANCES["involution"],
                     flow_tol=1e-12):
    """Momentum reversal is antiholomorphic: it conjugates J to -J."""
    residuals = []
    for z in points:
        n = z.dim
        S = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
        J1 = j_tensor_from_frame(distribution_at(model, z, 1j, tol=flow_tol))
        flipped = PhasePoint(z.chart_id, z.q, -z.p)
        J2 = j_tensor_from_frame(distribution_at(model, flipped, 1j, tol=flow_tol))
        r = float(np.max(np.abs(S @ J2 @ S + J1)))
        residuals.append((_label(z), r))
    return _report(model, "involution", residuals, tolerance)


def check_scaling(model, points, factors=SCALING_FACTORS, sigmas=SCALING_SIGMAS,
                  tolerance=DEFAULT_TOLERANCES["scaling"],
                  flow_tol=1e-12):
    """Fiber dilation intertwines the distributions at rescaled parameters.

    The distribution at the dilated point and parameter sigma must span the
    dilated image of the distribution at parameter c sigma; compared by
    principal angles so the frame normalization drops out.
    """
    residuals = []
    for z in points:
        n = z.dim
        for c in factors:
            S = np.diag(np.concatenate([np.ones(n), c * np.ones(n)]))
            scaled = PhasePoint(z.chart_id, z.q, c * z.p)
            for s in sigmas:
                left = distribution_at(model, scaled, s, tol=flow_tol).columns
                right = S @ distribution_at(model, z, c * s, tol=flow_tol).columns
                ang = principal_angles(left, right)
                r = float(np.max(ang)) if ang.size else 0.0
                residuals.append((_label(z, f"c={c},sigma={s}"), r))
    return _report(model, "scaling", residuals, tolerance)


def check_zero_section(model, points, sigmas=ZERO_SECTION_SIGMAS,
                       tolerance=DEFAULT_TOLERANCES["zero_section"],
                       flow_tol=1e-12):
    """On the zero section the flow jacobian is unipotent shear in the lift basis."""
    residuals = []
    for z in points:
        n = z.dim
        rest = PhasePoint(z.chart_id, z.q, np.zeros(n))
        V = orthonormal_tangent_basis(model, rest.chart_id, rest.q)
        g = metric_matrix(model, rest.chart_id, rest.q)
        L = np.zeros((2 * n, 2 * n), dtype=complex)
        L[:n, :n] = V
        L[n:, n:] = g @ V
        Linv = np.linalg.inv(L)
        for s in sigmas:
            res = flow(model, rest, sigma=s, variational=True, tol=flow_tol)
            want = np.eye(2 * n, dtype=complex)
            want[:n, n:] = s * np.eye(n)
            got = Linv @ res.jacobian @ L
            r = float(np.max(np.abs(got - want)))
            residuals.append((_label(rest, f"sigma={s}"), r))
    return _report(model, "zero_section", residuals, tolerance)


def _j_field(model, z, flow_tol):
    return j_tensor_from_frame(distribution_at(model, z, 1j, tol=flow_tol))


def check_nijenhuis(model, points, h=1e-3,
                    tolerance=DEFAULT_TOLERANCES["nijenhuis"],
                    flow_tol=1e-12):
    """Vanishing torsion of the J field, differenced over coordinate fields.

    N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] with X, Y running over the
    coordinate basis; the J derivatives are five-point central differences of
    step h, so the truncation error sits well below the J noise floor.
    """
    residuals = []
    for z in points:
        n = z.dim
        m = 2 * n
        J = _j_field(model, z, flow_tol)
        dJ = np.zeros((m, m, m), dtype=complex)  # dJ[j] = d_j J
        for j in range(m):
            dq = np.zeros(n)
            dp = np.zeros(n)
            (dq if j < n else dp)[j % n] = h
            at = lambda s: _j_field(
                model, PhasePoint(z.chart_id, z.q + s * dq, z.p + s * dp), flow_tol
            )
            dJ[j] = (-at(2.0) + 8.0 * at(1.0) - 8.0 * at(-1.0) + at(-2.0)) / (12.0 * h)
        r = 0.0
        for a in range(m):
            for b in range(a + 1, m):
                term = np.zeros(m, dtype=complex)
                for j in range(m):
                    term += J[j, a] * dJ[j][:, b] - J[j, b] * dJ[j][:, a]
                term += J @ (dJ[b][:, a] - dJ[a][:, b])
                r = max(r, float(np.max(np.abs(term))))
        residuals.append((_label(z), r))
    return _report(model, "nijenhuis", residuals, tolerance)


# -- tube radius --------------------------------------------------------------


def _largest_good_tau(pred, cap, resolution):
    """Largest tau in (0, cap] where pred holds, assuming a single crossing."""
    if pred(cap):
        return cap, True
    lo, hi = 0.0, cap
    if not pred(resolution):
        return 0.0, False
    lo = resolution
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, False


def estimate_tube_radius(model, n_directions=20, seed=7, sweep_cap=3.0,
                         resolution=1e-3, flow_tol=1e-12):
    """Per-direction breakdown radii, reported as the infimum over directions.

    The continuation radius of a direction is the distance to the nearest
    singularity of its spreading-matrix continuation in the complex time
    plane; by fiber scaling this is exactly the largest momentum magnitude
    whose unit-disk continuation stays clear of every pole. Real-axis
    singularities (conjugate points) are located by a scan with root
    polishing; off-axis singularities, which curved models without constant
    curvature do produce, are located as the filtered poles of a rational
    fit over the scanned window, and the direction's radius is the smaller
    of the two mechanisms. The nearest filtered pole modulus is also
    reported on its own so the two mechanisms stay separately visible.

    Transversality and positivity radii are measured along the imaginary
    axis directly, taking any breakdown of the frame computation as failure,
    so they are bounded by what this atlas can certify. Every non-capped
    direction is rechecked 10% beyond its located radius so a non-monotone
    or flickering failure would be flagged rather than silently averaged.
    """
    if not sweep_cap > 0:
        raise ValueError("sweep_cap must be positive")
    dirs = sample_tube_points(model, n_directions, seed, 1.0, 1.0)
    refine = min(resolution, 1e-6)

    def transversality_ok(z):
        def pred(tau):
            try:
                j_tensor_from_frame(distribution_at(model, z, 1j * tau, tol=flow_tol))
                return True
            except GrauertError:
                return False
        return pred

    def positivity_ok(z):
        def pred(tau):
            try:
                fr = distribution_at(model, z, 1j * tau, tol=flow_tol)
                min_eig, _ = positivity_check(fr)
                return min_eig > 0.0
            except GrauertError:
                return False
        return pred

    radii = {"continuation": [], "transversality": [], "positivity": []}
    capped = {"continuation": True, "transversality": True, "positivity": True}
    monotone = True
    pade_moduli = []
    for z in dirs:
        hit = first_f_singularity(model, z, tau_max=sweep_cap, coarse=0.05,
                                  refine=refine, tol=flow_tol)
        if hit is not None:
            # independent rescan with a shorter horizon must find it again
            again = first_f_singularity(model, z,
                                        tau_max=min(sweep_cap, 1.1 * hit + resolution),
                                        coarse=0.05, refine=refine, tol=flow_tol)
            if again is None or abs(again - hit) > resolution:
                monotone = False
        window = 0.8 * min(hit or sweep_cap, sweep_cap)
        off_axis = None
        try:
            _, diag = continue_f_to_i(model, z, window=window, tol=flow_tol)
            near = []
            for key, entry in diag["poles"].items():
                p, q = diag["fits"][key]
                dq = np.polynomial.polynomial.polyder(q)
                for pole in entry:
                    if not abs(pole) < 2.0 * sweep_cap:
                        continue
                    # spurious pole-zero pairs of the least-squares fit carry
                    # next to no residue; genuine singularities do not
                    x = pole / diag["window"]
                    denom = np.polynomial.polynomial.polyval(x, dq)
                    if abs(denom) < 1e-14:
                        continue
                    residue = np.polynomial.polynomial.polyval(x, p) / denom
                    if abs(residue) > 1e-4:
                        near.append(abs(pole))
            if near:
                pade_moduli.append(min(near))
                off_axis = min(near)
        except GrauertError:
            pass  # a degenerate window fit leaves the scan on its own
        found = [r for r in (hit, off_axis) if r is not None and r < sweep_cap]
        if found:
            capped["continuation"] = False
            radii["continuation"].append(min(found))
        else:
            radii["continuation"].append(sweep_cap)

        for name, maker in (
            ("transversality", transversality_ok),
            ("positivity", positivity_ok),
        ):
            pred = maker(z)
            r, hit_cap = _largest_good_tau(pred, sweep_cap, resolution)
            radii[name].append(r)
            if not hit_cap:
                capped[name] = False
                recheck = min(sweep_cap, 1.1 * r + resolution)
                if recheck > r + resolution and pred(recheck):
                    monotone = False
    return TubeRadiusEstimate(
        model=model.name,
        params=dict(model.params),
        radius_continuation=float(min(radii["continuation"])),
        radius_transversality=float(min(radii["transversality"])),
        radius_positivity=float(min(radii["positivity"])),
        sweep_cap=sweep_cap,
        capped=capped,
        monotone=monotone,
        n_directions=n_directions,
        pade_nearest_pole=float(min(pade_moduli)) if pade_moduli else None,
    )


# -- battery ------------------------------------------------------------------

_MODEL_RHO = {
    "round_sphere": (0.1, 0.5),
    "surface_of_revolution": (0.1, 0.32),
}

CHECK_NAMES = tuple(DEFAULT_TOLERANCES)


def run_battery(model, checks=None, n_samples=50, seed=0, flow_tol=1e-12,
                rho_range=None, n_strips=3, tolerances=None, dbar_sign=1.0):
    """Run the named checks (default: all) and return reports sorted by name.

    ``n_samples`` controls the main point cloud; the adaptedness check gets
    ``n_strips`` unit covectors with its own strip grid, and the scaling check
    resamples at smaller momentum so the doubled fiber stays well inside
    every model's safe region.
    """
    names = CHECK_NAMES if checks is None else tuple(checks)
    unknown = set(names) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    rho = rho_range or _MODEL_RHO.get(model.name, (0.1, 0.6))
    points = sample_tube_points(model, n_samples, seed, *rho)
    strips = sample_tube_points(model, n_strips, seed + 1, 1.0, 1.0)
    small = sample_tube_points(model, n_samples, seed + 2, 0.05, 0.25)
    # check name -> (check, points it runs on); built per call, so a check
    # function replaced on this module (as the benchmark's tracer does) is
    # the one run
    table = {
        "adaptedness": (check_adaptedness, strips),
        "involution": (check_involution, points),
        "kahler_potential": (partial(check_kahler_potential, dbar_sign=dbar_sign), points),
        "nijenhuis": (check_nijenhuis, points),
        "scaling": (check_scaling, small),
        "theta_sigma": (check_theta_sigma_identity, points),
        "zero_section": (check_zero_section, points),
    }
    reports = []
    for name in sorted(names):
        check, pts = table[name]
        reports.append(check(model, pts, tolerance=tols[name], flow_tol=flow_tol))
    return reports


def tightening_comparison(model, checks=None, n_samples=20, seed=0,
                          flow_tol=1e-12, factor=10.0):
    """Each check at the working integrator tolerance and at factor x tighter.

    Returns per-check records with both residuals, their ratio, and whether
    the verdict moved; residuals dominated by integration error would blow
    past ratio 2 here.
    """
    loose = run_battery(model, checks=checks, n_samples=n_samples, seed=seed,
                        flow_tol=flow_tol)
    tight = run_battery(model, checks=checks, n_samples=n_samples, seed=seed,
                        flow_tol=flow_tol / factor)
    out = []
    floor = 1e-13  # below this both runs sit on roundoff noise; ratios there are meaningless
    for a, b in zip(loose, tight):
        ratio = (b.max_residual + floor) / (a.max_residual + floor)
        out.append({
            "check": a.check,
            "residual": a.max_residual,
            "residual_tight": b.max_residual,
            "ratio": ratio,
            "verdict_changed": a.verdict != b.verdict,
        })
    return out
