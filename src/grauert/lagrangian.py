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
call; :meth:`FrameRays.batch` builds several in one such call, each ray
still a flow of its own. :meth:`FrameRays.at` reads a frame, or a stack of
them at arrays of times and points, with one polynomial evaluation and one
linear solve for the stack. A single frame (:func:`distribution_at`) is a
read of a one-point :class:`FrameRays` given just that time. A frame is its
(2n, n) complex column array and nothing more: the point it sits at is the
caller's to keep. The readers of frames (J tensor, positivity, lift
coefficients, principal angles) take stacks (..., 2n, n) as well.

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

The module needs numpy alone; principal angles follow scipy's
``subspace_angles`` without importing it.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DegenerateFrameError, SingularityError, TransversalityError
from .flow import DEFAULT_ORDER, flow_lanes, segment_at
from .jets import eval_poly
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
# condition number of a frame's vertical coefficient block above which the
# frame counts as sitting on a conjugate point
VERTICAL_COND_LIMIT = 1e8


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
    """A^{-1} B for a matrix A or a stack of them (B broadcast against it).

    DegenerateFrameError if an A is singular or its solution is not finite;
    over a stack, that of the first such A in order.
    """
    try:
        X = np.linalg.solve(A, B)
        if np.isfinite(X).all():
            return X
        singular = None
    except np.linalg.LinAlgError as exc:
        singular = exc
    if A.ndim > 2:  # the stack's first failing solve raises its own error
        for a, b in zip(A, np.broadcast_to(B, A.shape[:-2] + B.shape[-2:])):
            _solve(a, b, what)
    if singular is not None:
        raise DegenerateFrameError(f"{what} is singular") from singular
    raise DegenerateFrameError(f"{what}: the solution is not finite")


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
    keeps its ``model``, ``points`` and ``tol`` for the readers; this is the
    one-request case of :meth:`batch`. The frame of point k at sigma is then
    B(sigma)^{-1} V with B(sigma) (:meth:`jacobian`) read from the accepted
    step polynomial of k's lane on the ray through sigma, so every sample on
    a ray shares its flow. A read in a direction that was not given, or
    beyond its ray's reach, raises ValueError. A backward flow that breaks
    down keeps its accepted steps, and a frame beyond its last good time
    raises the :class:`SingularityError` of the breakdown (same reason and
    last good time); a point whose flow cannot start raises its error on
    every read past sigma = 0.
    """

    def __init__(self, model, points, sigmas, tol=1e-12):
        self._plan(model, points, sigmas, tol)
        _flow_rays([self])

    @classmethod
    def batch(cls, model, requests, tol):
        """One FrameRays per (points, sigmas) of ``requests``, all flowed in one kernel call.

        Each ray is still its own lane, so each reads what it would built alone.
        """
        batch = [cls.__new__(cls) for _ in requests]
        for rays, (points, sigmas) in zip(batch, requests):
            rays._plan(model, points, sigmas, tol)
        _flow_rays(batch)
        return batch

    def _plan(self, model, points, sigmas, tol):
        self.model, self.points, self.tol = model, list(points), tol
        m = 2 * model.dim
        self._vertical = vertical_frame(model.dim)
        # a step polynomial whose jacobian is I at every time, the read at 0,
        # stored as a step stores its coefficients: order by order
        self._rest = np.zeros((DEFAULT_ORDER + 1, m, 1 + m), dtype=complex).transpose(1, 2, 0)
        self._rest[:, 1:, 0] = np.eye(m)
        self.reach = {}  # ray direction -> the largest |sigma| on it
        for sigma in map(complex, sigmas):
            if sigma != 0:
                u = self._direction(sigma / abs(sigma))
                self.reach[u] = max(self.reach.get(u, 0.0), abs(sigma))
        self._rays = {}  # (point, direction) -> (segments, good reach, error or None)

    def _direction(self, u):
        """The ray direction u lies on: a known one within roundoff, else u itself."""
        return next((v for v in self.reach if abs(v - u) <= 1e-12), u)

    def _jacobians(self, sigma, k):
        """B(sigma) of point k per read, and the first failing read's error or None.

        The reads are ``sigma`` and ``k`` broadcast; B is (*shape, 2n, 2n),
        or (reads, 2n, 2n) over the reads before the first failing one, from
        one evaluation of their step polynomials.
        """
        if isinstance(sigma, numbers.Number) and isinstance(k, numbers.Integral):
            shape, reads = (), [(complex(sigma), k)]  # one read, without a broadcast
        else:
            reads = np.broadcast(np.asarray(sigma, dtype=complex), k)
            shape, reads = reads.shape, [(complex(s), int(kk)) for s, kk in reads]
        steps, ts, error = [], [], None
        for s, kk in reads:
            step, t_local = self._rest, 0.0
            r = abs(s)
            if r > 0:
                u = self._direction(s / r)
                if r > self.reach.get(u, 0.0) + 1e-12:
                    raise ValueError(f"sigma {s} lies beyond the rays' reach {self.reach}")
                segments, reach, err = self._rays[kk, u]
                if r > reach + 1e-12:
                    error = err
                    if isinstance(err, SingularityError):
                        error = SingularityError(
                            f"frame at {s} lies past the backward flow's breakdown: {err}",
                            last_good_sigma=err.last_good_sigma,
                            reason=err.reason,
                        )
                    break
                if segments:
                    seg, t_local = segment_at(segments, r)
                    step = seg.coeffs
            steps.append(step)
            ts.append(t_local)
        if error is not None and not steps:  # no earlier read to evaluate
            raise error
        # one read's own step and its time as a number, which numpy evaluates
        # fastest, or a copy of every read's that keeps each order's block
        # contiguous, as a step does
        if len(steps) == 1:
            steps, t = steps[0], ts[0]
        else:
            m, R, N = self._rest.shape
            steps = np.array([c.transpose(2, 0, 1) for c in steps]).reshape(-1, N, m, R)
            steps = steps.transpose(0, 2, 3, 1)
            t = np.array(ts)[:, None, None]
        B = eval_poly(steps, t)[..., 1:]
        return (B if error is not None else B.reshape(shape + B.shape[-2:])), error

    def jacobian(self, sigma, k):
        """B(sigma) of point k, the backward flow's jacobian: (2n, 2n), stacked like :meth:`at`."""
        B, error = self._jacobians(sigma, k)
        if error is not None:
            raise error
        return B

    def at(self, sigma, k=0):
        """Frame of point k at sigma, read from its ray through sigma: a (2n, n) array.

        ``sigma`` and ``k`` may be arrays, broadcast against each other; the
        frames (*shape, 2n, n) of all reads come from one polynomial
        evaluation and one solve, and the first failing read raises.
        """
        B, error = self._jacobians(sigma, k)
        F = _solve(B, self._vertical, "backward jacobian")
        if error is not None:
            raise error
        return F


def _flow_rays(batch):
    """Flow every ray of every FrameRays of ``batch`` (one model and tol) as a lane of one call."""
    keys = [(rays, k, u) for rays in batch for k in range(len(rays.points)) for u in rays.reach]
    if not keys:
        return
    first = batch[0]
    outcomes = flow_lanes(first.model, [rays.points[k] for rays, k, _ in keys],
                          sigma=[-rays.reach[u] * u for rays, _, u in keys],
                          variational=True, tol=first.tol)
    for (rays, k, u), out in zip(keys, outcomes):
        if isinstance(out, SingularityError):
            rays._rays[k, u] = (out.segments, abs(out.last_good_sigma), out)
        elif isinstance(out, Exception):
            rays._rays[k, u] = ([], 0.0, out)
        else:
            rays._rays[k, u] = (out.segments, rays.reach[u], None)


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
    """(b, c) with F = Xi b + Eta c in the lifted basis L = [Xi | Eta]; F may be a stack."""
    coef = _solve(L, F, "lifted basis")
    n = F.shape[-1]
    return coef[..., :n, :], coef[..., n:, :]


def f_matrix_from_frame(L, F):
    """Spreading matrix of the frame F in the lifted basis L.

    With F decomposed by :func:`lift_coefficients` as Xi b + Eta c, the
    result is f = b c^{-1}, the matrix relating configuration spread to
    covariant momentum spread. A nearly singular vertical coefficient block
    signals a conjugate-point degeneracy of the frame.
    """
    b, c = lift_coefficients(L, F)
    if np.linalg.cond(c) > VERTICAL_COND_LIMIT:
        raise DegenerateFrameError(
            "vertical coefficients of the frame are numerically singular"
        )
    return b @ np.linalg.inv(c)


def j_tensor_from_frame(F):
    """Real 2n x 2n tensor with J^2 = -I whose +i eigenspace is the span of F.

    F may be a stack (..., 2n, n) of frames, and J is stacked alike; the
    first frame in order that meets its conjugate raises TransversalityError.
    """
    W = np.concatenate([F, np.conj(F)], axis=-1)
    sv = np.linalg.svd(W, compute_uv=False).reshape(-1, W.shape[-1])
    bad = sv[:, -1] < TRANSVERSALITY_THRESHOLD * sv[:, 0]
    if bad.any():
        first = sv[bad.argmax()]
        raise TransversalityError(
            f"frame meets its conjugate: singular value ratio {first[-1] / first[0]:.3e}"
        )
    V = np.concatenate([1j * F, -1j * np.conj(F)], axis=-1)
    return V @ np.linalg.inv(W)


def positivity_check(F):
    """Smallest eigenvalue of the hermitian form -i omega(F_j, conj F_k), and the form.

    Positive definiteness certifies that the frame F spans a strictly
    positive Lagrangian; the value is the margin. F may be a stack
    (..., 2n, n); margins and forms are then stacked alike.
    """
    O = symplectic_form_matrix(F.shape[-1])
    H = -1j * (F.mT @ O @ np.conj(F))
    H = 0.5 * (H + np.conj(H.mT))
    return np.linalg.eigvalsh(H)[..., 0], H


def principal_angles(A, B):
    """Principal angles between the column spans of two full-rank frames, or two stacks.

    scipy's ``subspace_angles`` on stacks: Q from thin SVDs, cosines the
    singular values of Q_A^H Q_B, and where a cosine squared is at least 1/2
    the arcsine of a singular value of Q_B - Q_A Q_A^H Q_B, which keeps
    small angles accurate.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.shape[-1] < B.shape[-1]:
        A, B = B, A
    QA = np.linalg.svd(A, full_matrices=False)[0]
    QB = np.linalg.svd(B, full_matrices=False)[0]
    QA_H_QB = np.conj(QA.mT) @ QB
    cosines = np.linalg.svd(QA_H_QB, compute_uv=False)
    sines = np.linalg.svd(QB - QA @ QA_H_QB, compute_uv=False)
    return np.where(cosines**2 >= 0.5, np.arcsin(np.clip(sines, -1.0, 1.0)),
                    np.arccos(np.clip(cosines[..., ::-1], -1.0, 1.0)))
