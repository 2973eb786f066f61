"""Complex Lagrangian distributions from the time-shifted vertical bundle.

At a phase point z and complex time sigma, the distribution of interest is
the vertical subspace carried from the point one backward flow away:
push the vertical space at w = flow(-sigma)(z) forward through flow(sigma).
Numerically that is a single backward variational flow: if B is the jacobian
of the backward map at z, the forward pushforward is B^{-1} restricted to
vertical columns (inverse function theorem; no second integration). Along a
ray of times sigma the backward flow's dense output gives B(sigma) at every
point of the ray, so one flow per ray serves every sample on it.

There is one frame builder, :class:`FrameRays`. It takes a batch of points
and the times its reads will use, works out the rays and their reach from
those times, and runs every ray of every point as a lane of one flow kernel
call; :meth:`FrameRays.at` reads a frame. A single frame
(:func:`distribution_at`) is a read of a one-point :class:`FrameRays` given
just that time. A frame is its (2n, n) complex column array and nothing
more: the point it sits at is the caller's to keep.

At sigma = i and real z these n complex directions are the (1,0) subspace of
an almost complex structure on the tube, recovered from the frame by
J = [iF | -i conj(F)] [F | conj(F)]^{-1}, which squares to -I by
construction. The slope of the frame against the horizontal/vertical lifts
of a tangent basis is the spreading matrix whose closed form is known on
symmetric models, and positivity of -i omega(F_j, conj F_k) is the convexity
certificate for the induced Kahler metric. Those lifts depend on the point
alone, never on sigma, so a caller builds the 2n x 2n lifted basis
[Xi | Eta] of a point once (:func:`lifted_basis`) and decomposes every frame
it reads there against it.

scipy is imported inside :func:`principal_angles`, the one function that
uses it, so importing this module loads numpy alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFrameError, SingularityError, TransversalityError
from .flow import flow_lanes, segment_at
from .geometry import christoffel, metric_inv_matrix, metric_matrix

__all__ = [
    "symplectic_form_matrix",
    "vertical_frame",
    "distribution_at",
    "FrameRays",
    "orthonormal_tangent_basis",
    "lifted_basis",
    "lift_coefficients",
    "f_matrix_from_frame",
    "j_tensor_from_frame",
    "positivity_check",
    "principal_angles",
]

# smallest singular value ratio of [F | conj F] below which a frame counts as
# meeting its conjugate
TRANSVERSALITY_THRESHOLD = 1e-8


def symplectic_form_matrix(n):
    O = np.zeros((2 * n, 2 * n), dtype=complex)
    O[:n, n:] = np.eye(n)
    O[n:, :n] = -np.eye(n)
    return O


def vertical_frame(n):
    F = np.zeros((2 * n, n), dtype=complex)
    F[n:, :] = np.eye(n)
    return F


def _solve(A, B, what):
    """A^{-1} B; DegenerateFrameError if A is singular or the solution is not finite."""
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError(f"{what} is singular") from exc
    if not np.isfinite(X).all():
        raise DegenerateFrameError(f"{what}: the solution is not finite")
    return X


def distribution_at(model, z, sigma):
    """Frame of the sigma-shifted vertical distribution at z.

    A one-point, one-ray read of :class:`FrameRays` given just sigma: one
    backward variational flow, and the same frame and errors as any other
    read of a ray through sigma.
    """
    return FrameRays(model, [z], [sigma]).at(sigma)


class FrameRays:
    """Frames of the sigma-shifted vertical distribution at points, for the times ``sigmas``.

    The one frame builder: every frame pushed through the backward flow is
    read here. The times a caller will read decide the rays: each direction
    sigma/|sigma| among ``sigmas`` is one ray, reaching the largest |sigma|
    on it. Every ray of every point is a dense backward variational flow, to
    time -reach along the ray, and all of them run as the lanes of one
    :func:`~grauert.flow.flow_lanes` call when the batch is built, which
    keeps its ``model``, ``points`` and ``tol`` for the readers. The frame of
    point k at sigma is then B(sigma)^{-1} V with B(sigma) read from the
    accepted step polynomial of k's lane on the ray through sigma, so every
    sample on a ray shares its flow. A read in a direction that was not
    given, or beyond its ray's reach, raises ValueError. A backward flow that
    breaks down keeps its accepted steps, and a frame beyond its last good
    time raises the :class:`SingularityError` of the breakdown (same reason
    and last good time); a point whose flow cannot start raises its error on
    every read past sigma = 0.
    """

    def __init__(self, model, points, sigmas, tol=1e-12):
        self.model, self.points, self.tol = model, list(points), tol
        self._vertical = vertical_frame(model.dim)
        self.reach = {}  # ray direction -> the largest |sigma| on it
        for sigma in map(complex, sigmas):
            if sigma != 0:
                u = self._direction(sigma / abs(sigma))
                self.reach[u] = max(self.reach.get(u, 0.0), abs(sigma))
        keys = [(k, u) for k in range(len(self.points)) for u in self.reach]
        outcomes = flow_lanes(model, [self.points[k] for k, _ in keys],
                              sigma=[-self.reach[u] * u for _, u in keys],
                              variational=True, tol=tol) if keys else []
        self._rays = {}  # (point, direction) -> (segments, good reach, error or None)
        for key, out in zip(keys, outcomes):
            if isinstance(out, SingularityError):
                self._rays[key] = (out.segments, abs(out.last_good_sigma), out)
            elif isinstance(out, Exception):
                self._rays[key] = ([], 0.0, out)
            else:
                self._rays[key] = (out.segments, self.reach[key[1]], None)

    def _direction(self, u):
        """The ray direction u lies on: a known one within roundoff, else u itself."""
        return next((v for v in self.reach if abs(v - u) <= 1e-12), u)

    def at(self, sigma, k=0):
        """Frame of point k at sigma, read from its ray through sigma: a (2n, n) array."""
        sigma = complex(sigma)
        s = abs(sigma)
        B = np.eye(2 * self.model.dim, dtype=complex)
        if s > 0:
            u = self._direction(sigma / s)
            if s > self.reach.get(u, 0.0) + 1e-12:
                raise ValueError(f"sigma {sigma} lies beyond the rays' reach {self.reach}")
            segments, reach, error = self._rays[k, u]
            if s > reach + 1e-12:
                if not isinstance(error, SingularityError):
                    raise error
                raise SingularityError(
                    f"frame at {sigma} lies past the backward flow's breakdown: {error}",
                    last_good_sigma=error.last_good_sigma,
                    reason=error.reason,
                )
            if segments:
                seg, t_local = segment_at(segments, s)
                B = seg.jacobian_at(t_local)
        return _solve(B, self._vertical, "backward jacobian")


def orthonormal_tangent_basis(model, chart_id, q, p):
    """g-orthonormal tangent basis; the first vector follows the momentum p unless p vanishes.

    Orthonormality is with respect to the bilinear (unconjugated) extension
    of the metric, so the basis continues holomorphically off the real slice.
    Columns of the result are the basis vectors.
    """
    n = model.dim
    g = metric_matrix(model, chart_id, q)
    cands = []
    if np.max(np.abs(p)) > 1e-14:
        cands.append(metric_inv_matrix(model, chart_id, q) @ np.asarray(p, dtype=complex))
    cands.extend(np.eye(n, dtype=complex)[:, i] for i in range(n))
    basis = []
    for c in cands:
        w = c.astype(complex)
        for b in basis:
            w = w - (b @ g @ w) * b
        nrm2 = w @ g @ w
        if abs(nrm2) < 1e-20:
            continue
        basis.append(w / np.sqrt(nrm2))
        if len(basis) == n:
            break
    if len(basis) < n:
        raise DegenerateFrameError("could not complete a g-orthonormal basis")
    return np.stack(basis, axis=1)


def lifted_basis(model, z, basis=None):
    """The 2n x 2n matrix [Xi | Eta] of lifts of a tangent basis at the phase point z.

    Horizontal lift of v is (v, Gp v) with (Gp)_{lm} = Gamma^k_{lm} p_k, the
    momentum row of parallel transport; vertical lift is (0, g v). The basis
    columns default to the momentum-led g-orthonormal basis. The matrix
    depends on the point alone, so one build serves every frame read there.
    """
    n = model.dim
    if basis is None:
        basis = orthonormal_tangent_basis(model, z.chart_id, z.q, z.p)
    G = christoffel(model, z.chart_id, list(np.asarray(z.q, dtype=complex)))
    p = np.asarray(z.p, dtype=complex)
    Gp = np.array(
        [[sum(p[k] * G[k][l][m] for k in range(n)) for m in range(n)] for l in range(n)],
        dtype=complex,
    )
    g = metric_matrix(model, z.chart_id, z.q)
    Xi = np.vstack([basis, Gp @ basis])
    Eta = np.vstack([np.zeros((n, n), dtype=complex), g @ basis])
    return np.hstack([Xi, Eta])


def lift_coefficients(L, F):
    """(b, c) with F = Xi b + Eta c in the lifted basis L = [Xi | Eta]."""
    coef = _solve(L, F, "lifted basis")
    n = F.shape[1]
    return coef[:n, :], coef[n:, :]


def f_matrix_from_frame(L, F):
    """Spreading matrix of the frame F in the lifted basis L.

    With F decomposed by :func:`lift_coefficients` as Xi b + Eta c, the
    result is f = b c^{-1}, the matrix relating configuration spread to
    covariant momentum spread. A nearly singular vertical coefficient block
    signals a conjugate-point degeneracy of the frame.
    """
    b, c = lift_coefficients(L, F)
    if np.linalg.cond(c) > 1e8:
        raise DegenerateFrameError(
            "vertical coefficients of the frame are numerically singular"
        )
    return b @ np.linalg.inv(c)


def j_tensor_from_frame(F):
    """Real 2n x 2n tensor with J^2 = -I whose +i eigenspace is the span of F."""
    W = np.hstack([F, np.conj(F)])
    sv = np.linalg.svd(W, compute_uv=False)
    if sv[-1] < TRANSVERSALITY_THRESHOLD * sv[0]:
        raise TransversalityError(
            f"frame meets its conjugate: singular value ratio {sv[-1] / sv[0]:.3e}"
        )
    V = np.hstack([1j * F, -1j * np.conj(F)])
    return V @ np.linalg.inv(W)


def positivity_check(F):
    """Smallest eigenvalue of the hermitian form -i omega(F_j, conj F_k).

    Positive definiteness certifies that the frame F spans a strictly
    positive Lagrangian; the value is the margin.
    """
    O = symplectic_form_matrix(F.shape[1])
    H = -1j * (F.T @ O @ np.conj(F))
    H = 0.5 * (H + np.conj(H.T))
    eigs = np.linalg.eigvalsh(H)
    return float(eigs[0]), H


def principal_angles(A, B):
    """Principal angles between the column spans of two frames."""
    from scipy.linalg import subspace_angles

    return subspace_angles(np.asarray(A), np.asarray(B))
