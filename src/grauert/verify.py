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

The battery's flows are the lanes of one call of the flow kernel
(:func:`~grauert.flow.flow_lanes`), through
:meth:`~grauert.lagrangian.FrameRays.batch`. It flows each ray of the main
point cloud once, into the ``FrameRays`` that theta_sigma,
kahler_potential, involution and nijenhuis read, and every independent
route into a ``FrameRays`` of its own that its check takes as an argument:
the flipped points, the Nijenhuis stencils, the scaled points, the zero
section and the adaptedness nodes. Each ray is still its own lane, so the
routes stay independent. A strip is shifted along itself by the real flow,
so adaptedness tests each sampled covector's strip at sigma = 0 and flows
no strip. A check reads its frames, J tensors and angles as stacks, and
still raises the error of its first failing point. The radius scan reads
all its directions from one ``FrameRays``.

Sampling is Sobol with a fixed seed throughout, so reports are reproducible
bit for bit from the same configuration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache, partial

import numpy as np

from .errors import GrauertError, InvalidParamsError
from .flow import (
    MAX_STEPS,
    PhasePoint,
    diff5,
    hamiltonian_vector_field,
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
    "flipped_points",
    "scaled_points",
    "rest_points",
    "nijenhuis_points",
    "strip_nodes",
    "estimate_tube_radius",
    "run_battery",
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
# adaptedness samples STRIP_NODES unit covectors per strip and tests each at sigma = 0, these tau
STRIP_NODES = 5
STRIP_TAUS = np.linspace(-0.4, 0.4, STRIP_NODES)
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
    """residuals: list of ((point, extra), value). Keeps the three worst for the record.

    Only those three are labelled (see :func:`_label`).
    """
    ranked = sorted(residuals, key=lambda t: -t[1])
    return VerificationReport(
        model=model.name,
        params=dict(model.params),
        check=check,
        n_samples=len(residuals),
        max_residual=float(ranked[0][1]) if ranked else 0.0,
        tolerance=tolerance,
        worst=tuple((_label(*where), r) for where, r in ranked[:3]),
    )


# -- sampling -----------------------------------------------------------------


_SOBOL_BITS = 30
# the first rows of Joe and Kuo's direction-number table (new-joe-kuo-6.21201,
# as scipy.stats.qmc ships it): a primitive polynomial, bit i the coefficient
# of x^i, then the initial direction numbers m_1 .. m_deg of its degree deg
_JOE_KUO = (
    (1, 1),
    (3, 1),
    (7, 1, 3),
    (11, 1, 3, 1),
    (13, 1, 1, 1),
    (19, 1, 1, 3, 3),
    (25, 1, 3, 5, 13),
    (37, 1, 1, 5, 5, 17),
    (41, 1, 1, 5, 5, 5),
    (47, 1, 1, 7, 11, 19),
    (55, 1, 1, 5, 1, 1),
    (59, 1, 1, 1, 3, 11),
    (61, 1, 3, 5, 5, 31),
    (67, 1, 3, 3, 9, 7, 49),
    (91, 1, 1, 1, 15, 21, 21),
    (97, 1, 3, 1, 13, 27, 49),
    (103, 1, 1, 1, 15, 7, 5),
    (109, 1, 3, 1, 15, 13, 25),
    (115, 1, 1, 5, 5, 19, 61),
    (131, 1, 3, 7, 11, 23, 15, 103),
    (137, 1, 3, 7, 13, 13, 15, 69),
)


@cache
def _sobol_directions(d):
    """Unscrambled Sobol direction numbers of the first d dimensions, (d, 30) uint32.

    From the Joe-Kuo rows in ``_JOE_KUO``, so d is at most 21 (a model of
    dim <= 10); :class:`InvalidParamsError` above that. Column j is
    direction number j scaled by 2^(29 - j).
    """
    if d > len(_JOE_KUO):
        raise InvalidParamsError(f"the Sobol sampler covers {len(_JOE_KUO)} dimensions "
                                 f"(model dim <= {(len(_JOE_KUO) - 1) // 2}), got {d}")
    v = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    for k in range(1, d):
        p, *m = _JOE_KUO[k]
        deg = p.bit_length() - 1
        v[k, :deg] = m
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


# Cephes ndtri.c tables, highest degree first; the leading 1.0 of each Q is implicit there
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_EXP_M2 = 0.13533528323661269189


def _horner(x, coef):
    """Cephes ``polevl``; from 0.0, so a leading 1.0 gives ``p1evl``'s x + c1 exactly."""
    acc = 0.0
    for c in coef:
        acc = acc * x + c
    return acc


def _ndtri(y):
    """Inverse normal CDF of a float y in (exp(-32), 1 - exp(-32)), ``scipy.special.ndtri``'s bits.

    Cephes ``ndtri`` operation for operation: a rational in (y - 1/2)^2 for e^-2 < y < 1 - e^-2,
    else z - ln z / z - r(1/z), z = sqrt(-2 ln y) on the nearer tail; its z >= 8 branch is left out.
    """
    upper = y > 1.0 - _EXP_M2
    y = 1.0 - y if upper else y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242  # sqrt(2 pi) as Cephes rounds it
    z = math.sqrt(-2.0 * math.log(y))
    w = 1.0 / z
    x = z - math.log(z) / z - w * _horner(w, _NDTRI_P1) / _horner(w, _NDTRI_Q1)
    return x if upper else -x


def sample_tube_points(model, n, seed, rho_min, rho_max, chart_id=None):
    """Deterministic low-discrepancy tube points: chart box x momentum shell.

    The points are the first n rows of a scrambled Sobol sample in 2 dim + 1
    coordinates (:func:`_sobol`, bit-identical to ``scipy.stats.qmc.Sobol``
    with the same seed). Positions fill the central 70% of the chart box;
    momentum directions are the coordinates clipped to [1e-6, 1 - 1e-6] and mapped by
    :func:`_ndtri`, normalized in the metric, scaled to |v| in [rho_min, rho_max].
    """
    cid = chart_id or model.default_chart
    ch = model.chart(cid)
    dim = model.dim
    # 2^m >= n rows
    u = _sobol(2 * dim + 1, max(1, math.ceil(math.log2(max(n, 2)))), seed)[:n]
    lo = ch.lo + 0.15 * ch.width()
    hi = ch.hi - 0.15 * ch.width()
    clipped = np.clip(u[:, dim : 2 * dim], 1e-6, 1.0 - 1e-6)
    raws = np.array([_ndtri(y) for y in clipped.ravel().tolist()]).reshape(clipped.shape)
    q = lo + u[:, :dim] * (hi - lo)
    # one metric evaluation over the lanes of the sample; the stacked products
    # take the per-point routes of raw @ g @ raw and g @ v, so every bit is theirs
    g = metric_matrix(model, cid, q.astype(complex)).real
    nrm = np.sqrt((raws[:, None, :] @ g @ raws[:, :, None])[:, 0, 0])
    rho = rho_min + u[:, -1] * (rho_max - rho_min)
    p = (g @ ((rho / nrm)[:, None] * raws)[:, :, None])[:, :, 0]
    return [PhasePoint(cid, qk, pk) for qk, pk in zip(q, p)]


def _grad_energy(model, cid, q, p):
    """Phase-space gradient (dE/dq, dE/dp) of the energy, read off its Hamiltonian field."""
    dq, dp = hamiltonian_vector_field(model, cid, list(q), list(p))
    return np.array([-value(x) for x in dp] + [value(x) for x in dq], dtype=complex)


# -- identity checks ----------------------------------------------------------


def flipped_points(points):
    """Each point with its momentum reversed: the second route of the involution check."""
    return [PhasePoint(z.chart_id, z.q, -z.p) for z in points]


def scaled_points(points, factors):
    """Each point with its momentum dilated by each of ``factors``, point by point."""
    return [PhasePoint(z.chart_id, z.q, c * z.p) for z in points for c in factors]


def rest_points(points):
    """Each point's foot on the zero section (momentum 0)."""
    return [PhasePoint(z.chart_id, z.q, np.zeros(z.dim)) for z in points]


def nijenhuis_points(points):
    """The five-point stencils of step NIJENHUIS_STEP around each point, point by point."""
    return [w for z in points for w in stencil_points(z, NIJENHUIS_STEP)]


def strip_nodes(covectors):
    """The nodes (q, tau p) of each covector's strip at sigma = 0, tau in STRIP_TAUS."""
    return [PhasePoint(z.chart_id, z.q, t * z.p) for z in covectors for t in STRIP_TAUS]


def _read_in_order(reads):
    """``[read(ks) for read, ks in reads]``, each read one stacked call.

    The first axis of every ``ks`` runs over the check's points. If a read
    fails, they run again index by index in a point-by-point pass's order,
    so the error raised is that pass's first.
    """
    try:
        return [read(ks) for read, ks in reads]
    except GrauertError:
        for p in range(len(reads[0][1])):
            for read, ks in reads:
                for k in np.ravel(ks[p]):
                    read(k)
        raise


def _j_at_i(frames):
    """The reader of J at sigma = i of the points ``ks`` of ``frames``."""
    return lambda ks: j_tensor_from_frame(frames.at(1j, ks))


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
    F = frames.at(np.asarray(sigmas, dtype=complex), np.arange(len(frames.points))[:, None])
    residuals = []
    for k, z in enumerate(frames.points):
        dE = _grad_energy(model, z.chart_id, z.q, z.p)
        n = z.dim
        for s, cols in zip(sigmas, F[k]):
            r = 0.0
            for j in range(cols.shape[1]):
                Z = cols[:, j]
                theta = complex(z.p @ Z[:n])
                r = max(r, abs(theta - s * complex(dE @ Z)))
            residuals.append(((z, f"sigma={s}"), r))
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
    (Js,) = _read_in_order([(_j_at_i(frames), np.arange(len(frames.points)))])
    residuals = []
    for z, J in zip(frames.points, Js):
        n = z.dim
        dkappa = 2.0 * _grad_energy(model, z.chart_id, z.q, z.p)
        r = 0.0
        for a in range(2 * n):
            dbar = 0.5 * (dkappa[a] + dbar_sign * 1j * (dkappa @ J[:, a]))
            theta = z.p[a].real if a < n else 0.0
            r = max(r, abs(dbar.imag - theta))
        residuals.append(((z, ""), r))
    return _report(model, "kahler_potential", residuals, tolerance)


def check_adaptedness(strips, nodes, tolerance=DEFAULT_TOLERANCES["adaptedness"]):
    """The geodesic strips are holomorphic curves for the computed structure.

    Each unit covector (q, p) spans a strip sigma + i tau -> tau gamma'(sigma);
    J applied to its sigma-derivative (dq, tau dp), with (dq, dp) the
    Hamiltonian field at (q, p), must give its tau-derivative (0, p) at the
    nodes (q, tau p) of sigma = 0, for each tau of STRIP_TAUS. The strip of
    the covector flowed to sigma is the strip shifted by sigma, so testing
    every strip at sigma = 0 covers the others. ``strips`` is a
    :class:`FrameRays` over the covectors, read for its model and points
    only, and ``nodes`` one over their :func:`strip_nodes` at sigma = i.
    """
    model = strips.model
    C, T = len(strips.points), len(STRIP_TAUS)
    (Js,) = _read_in_order([(_j_at_i(nodes), np.arange(C * T).reshape(C, T))])
    residuals = []
    for z, Jz in zip(strips.points, Js):
        dq, dp = (np.array(x, dtype=complex) for x in
                  hamiltonian_vector_field(model, z.chart_id, list(z.q), list(z.p)))
        push_tau = np.concatenate([np.zeros_like(z.q), z.p])
        for t, J in zip(STRIP_TAUS, Jz):
            r = float(np.max(np.abs(J @ np.concatenate([dq, t * dp]) - push_tau)))
            residuals.append(((z, f"tau={t:.2f}"), r))
    return _report(model, "adaptedness", residuals, tolerance)


def check_involution(frames, flipped, tolerance=DEFAULT_TOLERANCES["involution"]):
    """Momentum reversal is antiholomorphic: it conjugates J to -J.

    J at a point is read at sigma = i from ``frames``, a :class:`FrameRays`
    over the checked points, and at its flipped point from ``flipped``, one
    over :func:`flipped_points` of them: flows of their own.
    """
    ks = np.arange(len(frames.points))
    J1, J2 = _read_in_order([(_j_at_i(frames), ks), (_j_at_i(flipped), ks)])
    residuals = []
    for k, z in enumerate(frames.points):
        n = z.dim
        S = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
        r = float(np.max(np.abs(S @ J2[k] @ S + J1[k])))
        residuals.append(((z, ""), r))
    return _report(frames.model, "involution", residuals, tolerance)


def check_scaling(frames, scaled, factors=SCALING_FACTORS, sigmas=SCALING_SIGMAS,
                  tolerance=DEFAULT_TOLERANCES["scaling"]):
    """Fiber dilation intertwines the distributions at rescaled parameters.

    The distribution at the dilated point and parameter sigma must span the
    dilated image of the distribution at parameter c sigma; compared by
    principal angles so the frame normalization drops out. ``frames`` is a
    :class:`FrameRays` over the checked points reaching every c sigma;
    ``scaled`` is one over their :func:`scaled_points` by ``factors`` for
    the times ``sigmas``, flows of their own: the route checked against.
    """
    P, C, S = len(frames.points), len(factors), len(sigmas)
    # read r = (k C + i) S + j: the dilated point k C + i at sigmas[j], and point k at
    # factors[i] sigmas[j]
    dilated, j = np.divmod(np.arange(P * C * S), S)
    k, i = np.divmod(dilated, C)
    c, sig = np.asarray(factors)[i], np.asarray(sigmas, dtype=complex)[j]
    ((left, right),) = _read_in_order([(
        lambda r: (scaled.at(sig[r], dilated[r]), frames.at(c[r] * sig[r], k[r])),
        np.arange(P * C * S).reshape(P, C * S))])
    n = frames.model.dim
    left, right = left.reshape(-1, 2 * n, n), right.reshape(-1, 2 * n, n)
    right[:, n:] *= c[:, None, None]  # the dilation diag(1, c) of the fibre
    angles = principal_angles(left, right)
    residuals = [((frames.points[kk], f"c={factors[ii]},sigma={sigmas[jj]}"),
                  float(np.max(ang)) if ang.size else 0.0)
                 for kk, ii, jj, ang in zip(k, i, j, angles)]
    return _report(frames.model, "scaling", residuals, tolerance)


def check_zero_section(rests, tolerance=DEFAULT_TOLERANCES["zero_section"]):
    """On the zero section the flow jacobian is unipotent shear in the lift basis.

    ``rests`` is a :class:`FrameRays` over points on the zero section
    (:func:`rest_points`) for the times -ZERO_SECTION_SIGMAS, whose backward
    ray is one forward flow per point through every ZERO_SECTION_SIGMAS.
    """
    model = rests.model
    ks = np.arange(len(rests.points))[:, None]
    (Bs,) = _read_in_order([(lambda k: rests.jacobian(-np.asarray(ZERO_SECTION_SIGMAS), k), ks)])
    residuals = []
    for rest, B in zip(rests.points, Bs):
        n = rest.dim
        L = lifted_basis(model, rest)  # at p = 0 the horizontal lifts have no momentum row
        got = np.linalg.inv(L) @ B @ L
        for s, g in zip(ZERO_SECTION_SIGMAS, got):
            want = np.eye(2 * n, dtype=complex)
            want[:n, n:] = s * np.eye(n)
            r = float(np.max(np.abs(g - want)))
            residuals.append(((rest, f"sigma={s}"), r))
    return _report(model, "zero_section", residuals, tolerance)


def check_nijenhuis(frames, stencils, tolerance=DEFAULT_TOLERANCES["nijenhuis"]):
    """Vanishing torsion of the J field, differenced over coordinate fields.

    N(X,Y) = [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] with X, Y running over the
    coordinate basis; the J derivatives are five-point central differences of
    step NIJENHUIS_STEP, so the truncation error sits well below the J noise
    floor. J at the centre is read at sigma = i from ``frames``, a
    :class:`FrameRays` over the checked points, and at the stencil points
    from ``stencils``, one over :func:`nijenhuis_points` of them, each its
    own backward flow.
    """
    model = frames.model
    m = 2 * model.dim
    P = len(frames.points)
    Jc, Js = _read_in_order([(_j_at_i(frames), np.arange(P)),
                             (_j_at_i(stencils), np.arange(4 * m * P).reshape(P, m, 4))])
    residuals = []
    for c, z in enumerate(frames.points):
        J = Jc[c]
        # Js[c, j] is the stencil of coordinate j of z
        dJ = [diff5(list(Js[c, j]), NIJENHUIS_STEP) for j in range(m)]  # dJ[j] = d_j J
        r = 0.0
        for a in range(m):
            for b in range(a + 1, m):
                term = np.zeros(m, dtype=complex)
                for j in range(m):
                    term += J[j, a] * dJ[j][:, b] - J[j, b] * dJ[j][:, a]
                term += J @ (dJ[b][:, a] - dJ[a][:, b])
                r = max(r, float(np.max(np.abs(term))))
        residuals.append(((z, ""), r))
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
    them (:class:`~grauert.lagrangian.FrameRays`). The scans read their
    grids and the window its 21 samples as stacked reads; the root
    polishing and the bisections read one frame at a time. The real-axis
    scan reads a frame every RADIUS_SCAN_STEP out to ``sweep_cap``, which is
    therefore positive and at most MAX_SWEEP_CAP; the bisections resolve each
    radius to within ``resolution``, which must lie below it.
    :class:`InvalidParamsError` otherwise.
    """
    if not resolution < sweep_cap:
        raise InvalidParamsError("tube-radius needs resolution < sweep_cap")
    if sweep_cap > MAX_SWEEP_CAP:
        raise InvalidParamsError(f"sweep_cap must be at most {MAX_SWEEP_CAP:g}, got {sweep_cap:g}")
    if not sweep_cap > 0:
        raise InvalidParamsError(f"sweep_cap must be positive, got {sweep_cap:g}")
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
    ``n_strips`` x STRIP_NODES unit covectors of its own, each tested at
    STRIP_NODES nodes, and the scaling check resamples at smaller momentum
    so the doubled fiber stays well inside every model's safe region. The
    main cloud's frames are one :class:`FrameRays`, flowed out to the times
    of the selected checks that read it and to no others, so each of its
    rays is flowed once. One :meth:`FrameRays.batch`, the battery's one
    kernel call, builds it with the selected checks' own routes.
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
    covectors = sample_tube_points(model, n_strips * STRIP_NODES, seed + 1, 1.0, 1.0)
    small = sample_tube_points(model, n_samples, seed + 2, 0.05, 0.25)
    # the main cloud's rays reach the times its selected readers use
    times = {"theta_sigma": THETA_SIGMAS, "kahler_potential": [1j], "involution": [1j],
             "nijenhuis": [1j]}
    # the (points, times) of the FrameRays each selected check takes besides the main cloud's
    own = {
        "adaptedness": [(covectors, []), (strip_nodes(covectors), [1j])],
        "involution": [(flipped_points(points), [1j])],
        "nijenhuis": [(nijenhuis_points(points), [1j])],
        "scaling": [(small, [c * s for c in SCALING_FACTORS for s in SCALING_SIGMAS]),
                    (scaled_points(small, SCALING_FACTORS), SCALING_SIGMAS)],
        "zero_section": [(rest_points(points), [-s for s in ZERO_SECTION_SIGMAS])],
    }
    batch = iter(FrameRays.batch(
        model, [(points, [s for name in names for s in times.get(name, ())])]
        + [request for name in names for request in own.get(name, ())], flow_tol))
    frames = next(batch)
    rays = {name: [next(batch) for _ in own.get(name, ())] for name in names}
    # check name -> the check with its inputs; built per call, so a check
    # function replaced on this module (as the benchmark's tracer does) is
    # the one run
    table = {
        "adaptedness": partial(check_adaptedness, *rays.get("adaptedness", ())),
        "involution": partial(check_involution, frames, *rays.get("involution", ())),
        "kahler_potential": partial(check_kahler_potential, frames, dbar_sign=dbar_sign),
        "nijenhuis": partial(check_nijenhuis, frames, *rays.get("nijenhuis", ())),
        "scaling": partial(check_scaling, *rays.get("scaling", ())),
        "theta_sigma": partial(check_theta_sigma_identity, frames),
        "zero_section": partial(check_zero_section, *rays.get("zero_section", ())),
    }
    return [table[name](tolerance=tols[name]) for name in sorted(names)]
