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

The flows a check needs run as the lanes of a few calls of the flow kernel
(:func:`~grauert.flow.flow_lanes`, through :class:`~grauert.lagrangian.FrameRays`
for frames): every ray of every point of a ``FrameRays`` runs in one call.
The battery flows each ray of its main point cloud once, into the one
``FrameRays`` that theta_sigma, kahler_potential, involution and nijenhuis
read, and the radius scan reads all its directions from one. Every
independent route keeps a flow of its own, and a check reads its lanes in
the order of its points, so it still raises the error of the first failing
point.

Sampling is Sobol with a fixed seed throughout, so reports are reproducible
bit for bit from the same configuration.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import asdict, dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import GrauertError
from .flow import (
    MAX_STEPS,
    PhasePoint,
    diff5,
    flow_lanes,
    hamiltonian_vector_field,
    lane_result,
    segment_at,
    stencil_points,
)
from .geometry import metric_matrix
from .jets import value
from .jacobi import continue_f_to_i, first_f_singularity
from .lagrangian import (
    FrameRays,
    j_tensor_from_frame,
    lifted_basis,
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
# each adaptedness strip: sigma in [-max, max] and tau in [-max, max], nodes per axis
STRIP_SIGMA_MAX, STRIP_TAU_MAX, STRIP_NODES = 0.5, 0.4, 5
# step of the five-point stencil that differences the J field
NIJENHUIS_STEP = 1e-3
# the radius scan reads a frame every RADIUS_SCAN_STEP out to sweep_cap; the
# cap keeps that to at most as many reads per ray as the kernel takes steps
RADIUS_SCAN_STEP = 0.05
MAX_SWEEP_CAP = MAX_STEPS * RADIUS_SCAN_STEP
DEFAULT_RESOLUTION = 1e-3


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
            **asdict(self),
            "params": {k: _plain(v) for k, v in self.params.items()},
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
        return {**asdict(self), "params": {k: _plain(v) for k, v in self.params.items()}}


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


_SOBOL_BITS = 30


@cache
def _sobol_directions(d):
    """Unscrambled Sobol direction numbers of the first d dimensions, (d, 30) uint32.

    Joe-Kuo primitive polynomials and initial numbers from the table scipy
    ships with ``scipy.stats.qmc``, found without importing ``scipy.stats``;
    column j is direction number j scaled by 2^(29 - j).
    """
    stats = Path(importlib.util.find_spec("scipy").origin).parent / "stats"
    with np.load(stats / "_sobol_direction_numbers.npz") as table:
        poly, vinit = table["poly"][:d], table["vinit"][:d]
    v = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    for k in range(1, d):
        p = int(poly[k])
        deg = p.bit_length() - 1
        v[k, :deg] = vinit[k, :deg]
        for j in range(deg, _SOBOL_BITS):
            new = v[k, j - deg] ^ (v[k, j - deg] << deg)
            for i in range(1, deg):
                if (p >> (deg - i)) & 1:
                    new ^= v[k, j - i] << i
            v[k, j] = new
    return (v << np.arange(_SOBOL_BITS - 1, -1, -1)).astype(np.uint32)


def _sobol(d, m, seed):
    """The 2^m first points of a scrambled d-dimensional Sobol sequence, (2^m, d).

    Bit for bit ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)``:
    Matousek's linear matrix scramble plus digital shift, drawn from
    ``np.random.default_rng(seed)`` in scipy's order (shift bits, then the
    lower-triangular matrices, whose diagonal is set to 1), and point i is
    the shift XOR the scrambled direction numbers picked by the Gray code
    of i.
    """
    rng = np.random.default_rng(seed)
    shift = np.dot(rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32),
                   2 ** np.arange(_SOBOL_BITS, dtype=np.uint32))
    lms = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    diag = np.arange(_SOBOL_BITS)
    lms[:, diag, diag] = 1
    # bit c of a direction number, most significant first, is bit 29 - c
    msb_first = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    bits = (_sobol_directions(d)[:, :, None] >> msb_first) & 1
    scrambled = np.einsum("dpc,djc->djp", lms, bits) & 1  # parity of each row product
    directions = np.bitwise_or.reduce(scrambled.astype(np.uint32) << msb_first, axis=2)
    i = np.arange(2 ** m)
    gray = i ^ (i >> 1)
    picked = ((gray[:, None] >> np.arange(m)) & 1).astype(bool)
    columns = np.where(picked[:, :, None], directions[:, :m].T, np.uint32(0))
    return (shift ^ np.bitwise_xor.reduce(columns, axis=1)) * (1.0 / 2**_SOBOL_BITS)


def sample_tube_points(model, n, seed, rho_min, rho_max, chart_id=None):
    """Deterministic low-discrepancy tube points: chart box x momentum shell.

    The points are the first n rows of a scrambled Sobol sample in 2 dim + 1
    coordinates (:func:`_sobol`, bit-identical to ``scipy.stats.qmc.Sobol``
    with the same seed). Positions fill the central 70% of the chart box;
    momentum directions are the inverse-normal-mapped coordinates normalized
    in the metric, scaled to |v| in [rho_min, rho_max].
    """
    # norm.ppf is ndtri on (0, 1), and scipy.special loads without scipy.stats
    from scipy.special import ndtri

    cid = chart_id or model.default_chart
    ch = model.chart(cid)
    dim = model.dim
    # 2^m >= n rows
    u = _sobol(2 * dim + 1, max(1, math.ceil(math.log2(max(n, 2)))), seed)[:n]
    lo = ch.lo + 0.15 * ch.width()
    hi = ch.hi - 0.15 * ch.width()
    raws = ndtri(np.clip(u[:, dim : 2 * dim], 1e-6, 1.0 - 1e-6))
    out = []
    for row, raw in zip(u, raws):
        q = lo + row[:dim] * (hi - lo)
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


def check_theta_sigma_identity(frames, sigmas=THETA_SIGMAS,
                               tolerance=DEFAULT_TOLERANCES["theta_sigma"]):
    """Canonical 1-form on the continued distribution vs sigma times the energy derivative.

    For every frame column Z of the distribution at parameter sigma, the
    pairing p . Z_q must equal sigma times the derivative of the energy along
    Z; this ties the flow-transported frames to the symplectic structure.
    Every frame is read from ``frames``, a :class:`FrameRays` over the
    checked points whose rays reach every sigma of ``sigmas``, so one
    backward flow per ray per point serves every sigma on it.
    """
    model = frames.model
    residuals = []
    for k, z in enumerate(frames.points):
        dE = _grad_energy(model, z.chart_id, z.q, z.p)
        n = z.dim
        for s in sigmas:
            cols = frames.at(s, k)
            r = 0.0
            for j in range(cols.shape[1]):
                Z = cols[:, j]
                theta = complex(z.p @ Z[:n])
                r = max(r, abs(theta - s * complex(dE @ Z)))
            residuals.append((_label(z, f"sigma={s}"), r))
    return _report(model, "theta_sigma", residuals, tolerance)


def check_kahler_potential(frames, tolerance=DEFAULT_TOLERANCES["kahler_potential"],
                           dbar_sign=1.0):
    """Twice the energy is a potential: Im of its dbar equals the canonical 1-form.

    dbar on functions is (d + i d.J)/2; the derivative of the potential is
    exact from the metric evaluators, J comes from the continued vertical
    distribution (the frame at sigma = i read from ``frames``, a
    :class:`FrameRays` over the checked points), and the identity is tested
    on the full coordinate basis. ``dbar_sign`` exists as a demonstration
    knob: anything but +1 breaks the calibration loudly, which is the point
    of having the calibration.
    """
    model = frames.model
    residuals = []
    for k, z in enumerate(frames.points):
        n = z.dim
        J = j_tensor_from_frame(frames.at(1j, k))
        dkappa = 2.0 * _grad_energy(model, z.chart_id, z.q, z.p)
        r = 0.0
        for a in range(2 * n):
            dbar = 0.5 * (dkappa[a] + dbar_sign * 1j * (dkappa @ J[:, a]))
            theta = z.p[a].real if a < n else 0.0
            r = max(r, abs(dbar.imag - theta))
        residuals.append((_label(z), r))
    return _report(model, "kahler_potential", residuals, tolerance)


def check_adaptedness(model, points, tolerance=DEFAULT_TOLERANCES["adaptedness"],
                      flow_tol=1e-12):
    """The geodesic strips are holomorphic curves for the computed structure.

    Each unit covector spans a strip (sigma, tau) -> (position at sigma, tau
    times momentum at sigma); J applied to the sigma-derivative must give the
    tau-derivative, at STRIP_NODES x STRIP_NODES nodes of |sigma| <=
    STRIP_SIGMA_MAX, |tau| <= STRIP_TAU_MAX. Strip states come from one dense
    real flow per sign of sigma, the sigma-derivative is the Hamiltonian
    field at the state, and the tau-derivative is exact since the strip is
    linear in tau. The real flows of all strips run as lanes of one kernel
    call, and so do the backward flows of all nodes of all strips.
    """
    signs = (1.0, -1.0)
    units = []
    for z in points:
        g = metric_matrix(model, z.chart_id, z.q).real
        gi = np.linalg.inv(g)
        speed = math.sqrt(float((z.p.real @ gi @ z.p.real)))
        units.append(PhasePoint(z.chart_id, z.q, z.p / speed))
    rays = flow_lanes(model, [zu for zu in units for _ in signs],
                      sigma=[sgn * STRIP_SIGMA_MAX for _ in units for sgn in signs],
                      tol=flow_tol)
    # per strip: its rows (sigma, q, p, dq, dp), or the error of its rays
    strips, nodes = [], []
    taus = np.linspace(-STRIP_TAU_MAX, STRIP_TAU_MAX, STRIP_NODES)
    for i in range(len(units)):
        try:
            segments = {sgn: lane_result(out).segments
                        for sgn, out in zip(signs, rays[2 * i : 2 * i + 2])}
        except GrauertError as e:
            strips.append(e)
            continue
        rows = []
        for s in np.linspace(-STRIP_SIGMA_MAX, STRIP_SIGMA_MAX, STRIP_NODES):
            seg, t_local = segment_at(segments[math.copysign(1.0, s)], abs(s))
            q, p = (x.real for x in seg.state_at(t_local))
            dq, dp = (np.array(x, dtype=complex) for x in
                      hamiltonian_vector_field(model, seg.chart_id, list(q), list(p)))
            nodes.extend(PhasePoint(seg.chart_id, q, t * p) for t in taus)
            rows.append((s, q, p, dq, dp))
        strips.append(rows)
    frames = FrameRays(model, nodes, [1j], tol=flow_tol)
    residuals = []
    k = 0
    for zu, rows in zip(units, strips):
        if isinstance(rows, Exception):
            raise rows
        for s, q, p, dq, dp in rows:
            for t in taus:
                J = j_tensor_from_frame(frames.at(1j, k))
                k += 1
                push_sigma = np.concatenate([dq, t * dp])
                push_tau = np.concatenate([np.zeros_like(q), p])
                r = float(np.max(np.abs(J @ push_sigma - push_tau)))
                residuals.append((_label(zu, f"sigma={s:.2f},tau={t:.2f}"), r))
    return _report(model, "adaptedness", residuals, tolerance)


def check_involution(frames, tolerance=DEFAULT_TOLERANCES["involution"]):
    """Momentum reversal is antiholomorphic: it conjugates J to -J.

    J at a point is read at sigma = i from ``frames``, a :class:`FrameRays`
    over the checked points. The flipped points are flows of their own, the
    lanes of one kernel call.
    """
    flipped = [PhasePoint(z.chart_id, z.q, -z.p) for z in frames.points]
    flipped_frames = FrameRays(frames.model, flipped, [1j], tol=frames.tol)
    residuals = []
    for k, z in enumerate(frames.points):
        n = z.dim
        S = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
        J1 = j_tensor_from_frame(frames.at(1j, k))
        J2 = j_tensor_from_frame(flipped_frames.at(1j, k))
        r = float(np.max(np.abs(S @ J2 @ S + J1)))
        residuals.append((_label(z), r))
    return _report(frames.model, "involution", residuals, tolerance)


def check_scaling(model, points, factors=SCALING_FACTORS, sigmas=SCALING_SIGMAS,
                  tolerance=DEFAULT_TOLERANCES["scaling"],
                  flow_tol=1e-12):
    """Fiber dilation intertwines the distributions at rescaled parameters.

    The distribution at the dilated point and parameter sigma must span the
    dilated image of the distribution at parameter c sigma; compared by
    principal angles so the frame normalization drops out. The frames at
    c sigma share one backward flow per ray per point; each dilated point
    keeps flows of its own, one per ray of ``sigmas``, the route being
    checked against. The points' rays are one kernel call, and the dilated
    points' rays another.
    """
    frames = FrameRays(model, points, [c * s for c in factors for s in sigmas], tol=flow_tol)
    scaled = [PhasePoint(z.chart_id, z.q, c * z.p) for z in points for c in factors]
    scaled_frames = FrameRays(model, scaled, sigmas, tol=flow_tol)
    residuals = []
    for k, z in enumerate(points):
        n = z.dim
        for i, c in enumerate(factors):
            S = np.diag(np.concatenate([np.ones(n), c * np.ones(n)]))
            for s in sigmas:
                left = scaled_frames.at(s, k * len(factors) + i)
                right = S @ frames.at(c * s, k)
                ang = principal_angles(left, right)
                r = float(np.max(ang)) if ang.size else 0.0
                residuals.append((_label(z, f"c={c},sigma={s}"), r))
    return _report(model, "scaling", residuals, tolerance)


def check_zero_section(model, points, tolerance=DEFAULT_TOLERANCES["zero_section"],
                       flow_tol=1e-12):
    """On the zero section the flow jacobian is unipotent shear in the lift basis.

    The times ZERO_SECTION_SIGMAS lie on one ray from 0; one dense
    variational flow per point to the farthest of them gives the jacobian at
    every one, and the flows of all points run as lanes of one kernel call.
    """
    reach = max(ZERO_SECTION_SIGMAS, key=abs)
    rests = [PhasePoint(z.chart_id, z.q, np.zeros(z.dim)) for z in points]
    rays = flow_lanes(model, rests, sigma=reach, variational=True, tol=flow_tol)
    residuals = []
    for rest, ray in zip(rests, rays):
        n = rest.dim
        L = lifted_basis(model, rest)  # at p = 0 the horizontal lifts have no momentum row
        Linv = np.linalg.inv(L)
        segments = lane_result(ray).segments
        for s in ZERO_SECTION_SIGMAS:
            seg, t_local = segment_at(segments, abs(s))
            want = np.eye(2 * n, dtype=complex)
            want[:n, n:] = s * np.eye(n)
            got = Linv @ seg.jacobian_at(t_local) @ L
            r = float(np.max(np.abs(got - want)))
            residuals.append((_label(rest, f"sigma={s}"), r))
    return _report(model, "zero_section", residuals, tolerance)


def check_nijenhuis(frames, tolerance=DEFAULT_TOLERANCES["nijenhuis"]):
    """Vanishing torsion of the J field, differenced over coordinate fields.

    N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] with X, Y running over the
    coordinate basis; the J derivatives are five-point central differences of
    step NIJENHUIS_STEP, so the truncation error sits well below the J noise
    floor. J at the centre is read at sigma = i from ``frames``, a
    :class:`FrameRays` over the checked points; the 4 stencil points per
    coordinate of every point are lanes of one kernel call, each its own
    backward flow.
    """
    model = frames.model
    stencils = [w for z in frames.points for w in stencil_points(z, NIJENHUIS_STEP)]
    stencil_frames = FrameRays(model, stencils, [1j], tol=frames.tol)
    residuals = []
    m = 2 * model.dim
    for c, z in enumerate(frames.points):
        J = j_tensor_from_frame(frames.at(1j, c))
        dJ = np.zeros((m, m, m), dtype=complex)  # dJ[j] = d_j J
        for j in range(m):  # lanes 4 (m c + j) + i are the stencil of coordinate j of z
            dJ[j] = diff5([j_tensor_from_frame(stencil_frames.at(1j, 4 * (m * c + j) + i))
                           for i in range(4)], NIJENHUIS_STEP)
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
    """Largest tau in (0, cap] where pred holds, assuming a single crossing.

    The first probe lies at DEFAULT_RESOLUTION or resolution, whichever is
    larger (within the cap): closer to 0 the frame is within about tau of
    the vertical frame, which meets its conjugate. The bisection ends at
    resolution, or once lo and hi are adjacent floats.
    """
    if pred(cap):
        return cap, True
    lo, hi = min(max(resolution, DEFAULT_RESOLUTION), cap), cap
    if not pred(lo):
        return 0.0, False
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, False


def estimate_tube_radius(model, n_directions=20, seed=7, sweep_cap=3.0,
                         resolution=DEFAULT_RESOLUTION, flow_tol=1e-12):
    """Per-direction breakdown radii, reported as the infimum over directions.

    The continuation radius of a direction is the distance to the nearest
    singularity of its spreading-matrix continuation in the complex time
    plane; by fiber scaling this is exactly the largest momentum magnitude
    whose unit-disk continuation stays clear of every pole. Real-axis
    singularities (conjugate points) are located by a scan with root
    polishing; off-axis singularities, which curved models without constant
    curvature do produce, are located as the poles of the rational
    continuation over the scanned window (:func:`continue_f_to_i`, which
    keeps only poles of non-negligible residue), and the direction's radius
    is the smaller of the two mechanisms. The nearest such pole within twice
    ``sweep_cap`` is also reported on its own so the two mechanisms stay
    separately visible.

    Transversality and positivity radii are measured along the imaginary
    axis directly, taking any breakdown of the frame computation as failure,
    so they are bounded by what this atlas can certify. Every non-capped
    direction is rechecked 10% beyond its located radius so a non-monotone
    or flickering failure would be flagged rather than silently averaged.

    Every direction has three dense backward variational flows, one per ray
    (positive and negative real time, positive imaginary time) out to
    ``sweep_cap``, and the rays of all directions run as the lanes of one
    kernel call; every frame the scans, fits and bisections use is read from
    them (:class:`~grauert.lagrangian.FrameRays`). The real-axis scan reads a
    frame every RADIUS_SCAN_STEP out to ``sweep_cap``, which is therefore at
    most MAX_SWEEP_CAP (ValueError above it).
    """
    if not 0 < sweep_cap <= MAX_SWEEP_CAP:
        raise ValueError(f"sweep_cap must be positive and at most {MAX_SWEEP_CAP:g}")
    if not resolution < sweep_cap:
        raise ValueError("resolution must be below sweep_cap")
    dirs = sample_tube_points(model, n_directions, seed, 1.0, 1.0)
    refine = min(resolution, 1e-6)
    frames = FrameRays(model, dirs, [sweep_cap, -sweep_cap, 1j * sweep_cap], tol=flow_tol)
    # what must hold of the frame at i tau for a direction to be good there
    tests = {
        "transversality": lambda F: j_tensor_from_frame(F) is not None,
        "positivity": lambda F: positivity_check(F)[0] > 0.0,
    }

    def holds(test, k):
        def pred(tau):
            try:
                return test(frames.at(1j * tau, k))
            except GrauertError:
                return False
        return pred

    radii = {"continuation": [], "transversality": [], "positivity": []}
    capped = {"continuation": True, "transversality": True, "positivity": True}
    monotone = True
    pade_moduli = []
    for k in range(len(dirs)):
        hit = first_f_singularity(frames, k, tau_max=sweep_cap, coarse=RADIUS_SCAN_STEP,
                                  refine=refine)
        if hit is not None:
            # a rescan on another sample grid and a shorter horizon must find
            # it again, up to resolution or the 4 eps (relative) of each brentq polish
            again = first_f_singularity(frames, k,
                                        tau_max=min(sweep_cap, 1.1 * hit + resolution),
                                        coarse=0.03, refine=refine)
            if again is None or abs(again - hit) > max(resolution, 8 * np.finfo(float).eps * hit):
                monotone = False
        window = 0.8 * min(hit or sweep_cap, sweep_cap)
        off_axis = None
        try:
            _, diag = continue_f_to_i(frames, k, window)
            near = [abs(pole) for poles in diag["poles"].values() for pole in poles
                    if abs(pole) < 2.0 * sweep_cap]
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

        for name, test in tests.items():
            pred = holds(test, k)
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
    every model's safe region. The main cloud's frames are one
    :class:`FrameRays`, flowed out to the times of the selected checks that
    read it and to no others, so each of its rays is flowed once.
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
    # one flow per ray of the main cloud, out to the times its selected readers use
    times = {"theta_sigma": THETA_SIGMAS, "kahler_potential": [1j], "involution": [1j],
             "nijenhuis": [1j]}
    frames = FrameRays(model, points, [s for name in names for s in times.get(name, ())],
                       tol=flow_tol)
    # check name -> the check with its inputs; built per call, so a check
    # function replaced on this module (as the benchmark's tracer does) is
    # the one run
    table = {
        "adaptedness": partial(check_adaptedness, model, strips, flow_tol=flow_tol),
        "involution": partial(check_involution, frames),
        "kahler_potential": partial(check_kahler_potential, frames, dbar_sign=dbar_sign),
        "nijenhuis": partial(check_nijenhuis, frames),
        "scaling": partial(check_scaling, model, small, flow_tol=flow_tol),
        "theta_sigma": partial(check_theta_sigma_identity, frames),
        "zero_section": partial(check_zero_section, model, points, flow_tol=flow_tol),
    }
    return [table[name](tolerance=tols[name]) for name in sorted(names)]


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
