"""Spreading matrices along real geodesics and their rational continuation.

The spreading matrix f(tau) at a phase point relates configuration spread to
covariant momentum spread of the shifted-vertical frame, sampled here along
REAL flow times only. Its entries are meromorphic in the time parameter with
poles at conjugate-point times, so values on a real window continue to
imaginary time by a rational fit (AAA, through ``rational_continuation``,
the one place that knows how a fit is stored); comparing that continuation
with a direct imaginary-time flow is the central two-route consistency check
of the package. The fit is scipy's AAA without its clean-up step, written
in numpy: the residue filter of ``rational_continuation`` drops the
spurious pole-zero pairs that step would remove, and the poles are the
eigenvalues of a deflated arrowhead matrix polished by Newton steps on the
fit's denominator. The pole scan polishes its roots with a plain-float
port of scipy's ``brentq``.

``f_samples`` takes the spreading matrix from the backward-flow frame: it
reads a point of a :class:`~grauert.lagrangian.FrameRays` built by the
caller for the times it will sample, so every frame comes from one dense
backward flow per ray of times, and all its samples are one stacked read
(one polynomial evaluation and one linear solve for the stack). The
rational continuation samples through it, the pole scan reads each
direction's grid in such stacks, and only the scan's root polishing reads
one frame at a time; each reader builds the lifted basis of its point once
(:func:`~grauert.lagrangian.lifted_basis`) for all its frames. The module
loads numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConjugatePointError,
    PadeDegeneracyError,
    SingularityError,
)
from .lagrangian import VERTICAL_COND_LIMIT, lift_coefficients, lifted_basis

__all__ = [
    "f_samples",
    "first_f_singularity",
    "rational_continuation",
    "continue_f_to_i",
]


def _vertical_det(L, F):
    """Real part of det c, c the vertical block of the frame F in L; F may be a stack."""
    _, c = lift_coefficients(L, F)
    return np.linalg.det(c).real


def f_samples(frames, k, taus):
    """Spreading matrices of point k of ``frames`` at the given real times.

    All in one fixed basis at the point, its momentum-led g-orthonormal
    basis; ``frames`` (a :class:`FrameRays`) must have been given times
    reaching every tau in both directions. The frames of all samples are one
    stacked read, decomposed and inverted as one stack, so a frame that
    cannot be read raises its error (the first in order) before any pole is
    looked for. Raises :class:`ConjugatePointError`, naming the first such
    sample in the order given, if a sample sits numerically on a
    conjugate-point pole.
    """
    L = lifted_basis(frames.model, frames.points[k])
    b, c = lift_coefficients(L, frames.at(taus, k))
    poles = np.linalg.cond(c) > VERTICAL_COND_LIMIT
    if poles.any():
        tau = taus[poles.argmax()]
        raise ConjugatePointError(f"spreading matrix pole at real time {tau}", sigma=tau)
    return b @ np.linalg.inv(c)


# the pole scan reads its grid in stacks of this many times, so a pole near 0
# costs no reads far past it and a stack stays small at any tau_max
SCAN_BLOCK = 64


def _brentq(f, a, b, xtol):
    """A root of f in the sign-changing bracket [a, b], ``scipy.optimize.brentq``'s bits.

    Brent's method (Brent 1973) as scipy's ``brentq.c`` has it, step for step
    on Python floats, with its defaults rtol = 4 eps and 100 iterations.
    ValueError on a bracket whose ends have the same sign or on a NaN value,
    RuntimeError when the iterations run out.
    """
    rtol, maxiter = 4 * np.finfo(float).eps, 100

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge in {maxiter} iterations")


def first_f_singularity(frames, k, tau_max=3.0, coarse=0.1, refine=1e-6):
    """Smallest |tau| <= tau_max with a spreading-matrix pole on the real axis, or None.

    Poles are located as sign changes of the real part of the vertical-block
    determinant, which decays through zero linearly at a conjugate point.
    The scan grid is coarse, 2 coarse, ... (accumulated) up to tau_max, in
    both time directions of point k of ``frames`` (a :class:`FrameRays`).
    Each direction reads its grid in stacked reads of SCAN_BLOCK times, up
    to the block holding its first sign change (or exact zero); where its
    ray broke down, it keeps the grid times up to the breakdown's last good
    time. A read that fails otherwise raises, wherever it lies in its block.
    The first sign change is polished by root finding on the dense output
    of the backward flow, one frame at a time. ValueError unless ``coarse``
    is positive and finite and ``tau_max`` is finite and within the rays'
    reach in both real directions.
    """
    if not 0 < coarse < np.inf:
        raise ValueError(f"coarse must be positive and finite, got {coarse}")
    reach = min(frames.reach.get(1.0, 0.0), frames.reach.get(-1.0, 0.0))
    if not tau_max <= reach:  # NaN and inf too: a reach is finite
        raise ValueError(f"tau_max must be finite and within the rays' real reach {reach}, "
                         f"got {tau_max}")
    ts = []
    t = coarse
    while t <= tau_max + 1e-12:
        ts.append(t)
        t += coarse
    L = lifted_basis(frames.model, frames.points[k])
    hits = []
    d0 = _vertical_det(L, frames.at(0.0, k))
    for sgn in (1.0, -1.0):
        d = lambda t: _vertical_det(L, frames.at(sgn * t, k))
        t_prev, d_prev = 0.0, d0
        start = 0
        while start < len(ts):
            grid = ts[start:start + SCAN_BLOCK]
            start += SCAN_BLOCK
            try:
                ds = d(np.array(grid))
            except SingularityError as e:  # the ray broke down (left the atlas) in this block:
                grid = [t for t in grid if t <= abs(e.last_good_sigma) + 1e-12]
                ds = d(np.array(grid))
                start = len(ts)  # scan up to there and no further
            grid, ds = [t_prev, *grid], np.concatenate([[d_prev], ds])
            change = np.flatnonzero((ds[1:] == 0.0) | (np.sign(ds[1:]) != np.sign(ds[:-1])))
            if change.size:
                i = change[0] + 1
                hits.append(grid[i] if ds[i] == 0.0
                            else _brentq(d, grid[i - 1], grid[i], xtol=refine))
                break
            t_prev, d_prev = grid[-1], ds[-1]
    return min(hits) if hits else None


# -- rational continuation ------------------------------------------------------

_NODES = np.cos(np.pi * np.arange(21) / 20)  # Chebyshev points of [-1, 1]


def _aaa(z, f):
    """Support points, values and weights of the AAA fit to f on z, and its miss.

    z is sorted and distinct; the miss is the fit's largest error at a sample.
    scipy's ``AAA(z, f, rtol=1e-14, max_terms=9, clean_up=False)`` step for
    step (Nakatsukasa-Sete-Trefethen, 2018), its rescaling of ill-conditioned
    Loewner matrices included. Only its tall branch: z must have at least 18
    samples.
    """
    rtol, max_terms = 1e-14, 9
    M = z.size
    mask = np.ones(M, dtype=bool)
    atol = rtol * np.linalg.norm(f, ord=np.inf)
    zj = np.empty(max_terms, dtype=complex)
    fj = np.empty(max_terms, dtype=complex)
    C = np.empty((M, max_terms), dtype=complex)  # Cauchy matrix
    A = np.empty((M, max_terms), dtype=complex)  # Loewner matrix
    R = np.repeat(np.mean(f), M)
    ill_conditioned = False
    for m in range(max_terms):
        # the next support point is the worst-fitted sample
        jj = np.argmax(np.abs(f[mask] - R[mask]))
        zj[m] = z[mask][jj]
        fj[m] = f[mask][jj]
        with np.errstate(divide="ignore", invalid="ignore"):  # the support rows are masked
            C[:, m] = 1 / (z - z[mask][jj])
            A[:, m] = (f - fj[m]) * C[:, m]
        mask[np.nonzero(mask)[0][jj]] = False
        if not ill_conditioned:
            _, s, V = np.linalg.svd(A[mask, : m + 1], full_matrices=False)
            with np.errstate(divide="ignore", invalid="ignore"):
                ill_conditioned = s[0] / s[-1] > 1 / (3 * np.finfo(float).eps)
        if ill_conditioned:
            col_norm = np.linalg.norm(A[mask, : m + 1], axis=0)
            _, s, V = np.linalg.svd(A[mask, : m + 1] / col_norm, full_matrices=False)
        mm = s == np.min(s)  # a multiple smallest singular value: a non-sparse weight vector
        wj = V.conj()[mm, :].sum(axis=0) / np.sqrt(mm.sum())
        if ill_conditioned:
            wj /= col_norm
        i0 = wj != 0
        with np.errstate(invalid="ignore"):
            N = C[:, : m + 1][:, i0] @ (wj[i0] * fj[: m + 1][i0])
            D = C[:, : m + 1][:, i0] @ wj[i0]
        D_inf = np.isinf(D) | np.isnan(D)  # the support points: interpolated
        D[D_inf] = 1
        N[D_inf] = f[D_inf]
        R = N / D
        err = np.linalg.norm(f - R, ord=np.inf)
        if err <= atol:
            break
    keep = wj != 0
    return zj[: m + 1][keep], fj[: m + 1][keep], wj[keep], float(err)


def _barycentric(zj, fj, wj, x):
    """Values at the points x of the barycentric fit with support zj, values fj, weights wj."""
    x = np.ravel(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # inf/inf at the support points
        CC = 1 / np.subtract.outer(x, zj)
        r = (CC @ (wj * fj)[:, None] / (CC @ wj[:, None]))[:, 0]
    for k in np.flatnonzero(np.isnan(r)):
        if np.any(x[k] == zj):
            r[k] = fj[x[k] == zj][0]
    return r


def _poles(zj, wj):
    """Zeros of the fit's denominator sum_j wj / (x - zj): its finite poles.

    In y = 1/(x - s) they are the zeros of sum_j cj / (y - bj), bj = 1/(zj - s)
    and cj = wj bj, other than y = 0; those are the eigenvalues of the
    arrowhead pencil of that sum deflated to the m - 1 dimensions of
    sum_j cj vj = 0. A pole near infinity (sum_j wj near 0, nearly polynomial
    data) lands near y = 0, where it spoils no other; the shift s sits off the
    support by twice its extent. Three Newton steps on the denominator then
    polish each pole to what the fit itself resolves.
    """
    if wj.size < 2:
        return np.empty(0, dtype=complex)
    s = 2j * np.max(np.abs(zj))
    b = 1 / (zj - s)
    c = wj * b
    Q = np.linalg.qr(c.conj()[:, None], mode="complete")[0][:, 1:]  # c @ Q = 0
    K = Q.conj().T @ (b[:, None] * Q) - np.outer(Q.conj().sum(axis=0), (c * b) @ Q) / c.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        x = s + 1 / np.linalg.eigvals(K)
        for _ in range(3):
            CC = 1 / np.subtract.outer(x, zj)
            step = (CC @ wj) / -(CC**2 @ wj)
            x = np.where(np.isfinite(step), x - step, x)
    return x[np.isfinite(x)]


def rational_continuation(xs, ys, target):
    """Value at ``target`` of a type (8, 8) rational fit to samples, and its poles.

    The fit is AAA (Nakatsukasa-Sete-Trefethen, 2018) with 9 support points,
    the other samples validate it; it needs at least 18 distinct finite
    sample times (ValueError otherwise) and finite samples
    (:class:`PadeDegeneracyError` otherwise). The poles are the eigenvalues
    of a deflated arrowhead matrix, polished by Newton steps on the fit's
    denominator, and the ones returned are those whose |residue| exceeds
    1e-4: that filter drops the spurious pole-zero pairs of a fit, so AAA's
    clean-up step is not run. Raises :class:`PadeDegeneracyError` when the
    fit misses a sample by more than 1e-6 max(1, max|y|), which is what
    non-rational (e.g. kinked) data produces, or when ``target`` sits on a
    fitted pole.
    """
    ys = np.asarray(ys, dtype=complex)
    if not np.all(np.isfinite(ys)):
        raise PadeDegeneracyError("a sample to fit is not finite")
    xs, first = np.unique(np.asarray(xs), return_index=True)
    ys = ys[first]
    if xs.size < 18 or not np.all(np.isfinite(xs)):
        raise ValueError("a rational fit needs 18 or more distinct finite sample times")
    zj, fj, wj, miss = _aaa(xs, ys)
    if miss > 1e-6 * max(1.0, float(np.max(np.abs(ys)))):
        raise PadeDegeneracyError(
            f"rational fit does not reproduce the samples (residual {miss:.3e})"
        )
    poles = _poles(zj, wj)
    if np.any(np.abs(poles - target) <= 1e-12 * max(1.0, abs(target))):
        raise PadeDegeneracyError(f"rational fit has a pole at {target}")
    with np.errstate(divide="ignore", invalid="ignore"):
        C = 1 / np.subtract.outer(poles, zj)
        residues = (C @ (fj * wj)) / (-(C**2) @ wj)
    return complex(_barycentric(zj, fj, wj, target)[0]), poles[np.abs(residues) > 1e-4]


def continue_f_to_i(frames, k, window):
    """Continue the spreading matrix of point k of ``frames`` from a real window to time i.

    Samples the matrix at the 21 Chebyshev points of [-window, window] with
    :func:`f_samples` (``frames`` must reach ``window`` both ways), and
    continues each entry to i by :func:`rational_continuation` in the scaled
    time tau / window. Returns (f_at_i, diagnostics) where diagnostics holds
    the sample times under "taus" and, under "poles", each entry's fitted
    poles of non-negligible residue mapped back to the time plane.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    taus = window * _NODES
    fs = f_samples(frames, k, taus)
    n = frames.model.dim
    f_i = np.empty((n, n), dtype=complex)
    poles = {}
    for a in range(n):
        for b in range(n):
            f_i[a, b], x_poles = rational_continuation(_NODES, fs[:, a, b], 1j / window)
            poles[(a, b)] = window * x_poles
    return f_i, {"poles": poles, "taus": taus}
