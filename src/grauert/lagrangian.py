"""Complex Lagrangian distributions from the time-shifted vertical bundle.

At a phase point z and complex time sigma, the distribution of interest is
the vertical subspace carried from the point one backward flow away:
push the vertical space at w = flow(-sigma)(z) forward through flow(sigma).
Numerically that is a single backward variational flow: if B is the jacobian
of the backward map at z, the forward pushforward is B^{-1} restricted to
vertical columns (inverse function theorem; no second integration).

At sigma = i and real z these n complex directions are the (1,0) subspace of
an almost complex structure on the tube, recovered from the frame by
J = [iF | -i conj(F)] [F | conj(F)]^{-1}, which squares to -I by
construction. The slope of the frame against the horizontal/vertical lifts
of a tangent basis is the spreading matrix whose closed form is known on
symmetric models, and positivity of -i omega(F_j, conj F_k) is the convexity
certificate for the induced Kahler metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateFrameError, PositivityError, TransversalityError
from .flow import flow
from .geometry import christoffel, metric_inv_matrix, metric_matrix

__all__ = [
    "LagrangianFrame",
    "symplectic_form_matrix",
    "vertical_frame",
    "distribution_at",
    "orthonormal_tangent_basis",
    "lifted_frames",
    "lift_coefficients",
    "f_matrix_from_frame",
    "j_tensor_from_frame",
    "positivity_check",
    "principal_angles",
]


def symplectic_form_matrix(n):
    O = np.zeros((2 * n, 2 * n), dtype=complex)
    O[:n, n:] = np.eye(n)
    O[n:, :n] = -np.eye(n)
    return O


def vertical_frame(n):
    F = np.zeros((2 * n, n), dtype=complex)
    F[n:, :] = np.eye(n)
    return F


@dataclass(frozen=True)
class LagrangianFrame:
    """n-column frame of a complex Lagrangian subspace at a phase point."""

    chart_id: str
    q: np.ndarray
    p: np.ndarray
    sigma: complex
    columns: np.ndarray  # (2n, n)
    backward_chart: str  # chart where the backward flow ended

    @property
    def n(self):
        return self.columns.shape[1]

    def lagrangian_residual(self):
        """Max |omega(F_j, F_k)|; zero for an exactly Lagrangian span."""
        O = symplectic_form_matrix(self.n)
        return float(np.max(np.abs(self.columns.T @ O @ self.columns)))


def distribution_at(model, z, sigma, order=16, tol=1e-12):
    """Frame of the sigma-shifted vertical distribution at z by one backward flow."""
    back = flow(model, z, sigma=-sigma, variational=True, order=order, tol=tol)
    B = back.jacobian
    n = model.dim
    F = np.linalg.solve(B, vertical_frame(n))
    return LagrangianFrame(
        chart_id=z.chart_id,
        q=z.q.copy(),
        p=z.p.copy(),
        sigma=complex(sigma),
        columns=F,
        backward_chart=back.point.chart_id,
    )


def orthonormal_tangent_basis(model, chart_id, q, p=None):
    """g-orthonormal tangent basis; the first vector follows the momentum when given.

    Orthonormality is with respect to the bilinear (unconjugated) extension
    of the metric, so the basis continues holomorphically off the real slice.
    Columns of the result are the basis vectors.
    """
    n = model.dim
    g = metric_matrix(model, chart_id, q)
    cands = []
    if p is not None and np.max(np.abs(p)) > 1e-14:
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


def lifted_frames(model, chart_id, q, p, V):
    """Horizontal and vertical lifts of the tangent basis columns of V.

    Horizontal lift of v is (v, Gp v) with (Gp)_{lm} = Gamma^k_{lm} p_k, the
    momentum row of parallel transport; vertical lift is (0, g v).
    """
    n = model.dim
    G = christoffel(model, chart_id, list(np.asarray(q, dtype=complex)))
    p = np.asarray(p, dtype=complex)
    Gp = np.array(
        [[sum(p[k] * G[k][l][m] for k in range(n)) for m in range(n)] for l in range(n)],
        dtype=complex,
    )
    g = metric_matrix(model, chart_id, q)
    Xi = np.vstack([V, Gp @ V])
    Eta = np.vstack([np.zeros((n, n), dtype=complex), g @ V])
    return Xi, Eta


def lift_coefficients(model, frame, basis=None):
    """(b, c) with frame columns = Xi b + Eta c in the lifts of ``basis``.

    Xi and Eta are the horizontal and vertical lifts of the basis (default:
    momentum-led g-orthonormal basis).
    """
    if basis is None:
        basis = orthonormal_tangent_basis(model, frame.chart_id, frame.q, frame.p)
    Xi, Eta = lifted_frames(model, frame.chart_id, frame.q, frame.p, basis)
    coef = np.linalg.solve(np.hstack([Xi, Eta]), frame.columns)
    return coef[: frame.n, :], coef[frame.n :, :]


def f_matrix_from_frame(model, frame, basis=None):
    """Spreading matrix of a frame in a lifted tangent basis.

    With the frame decomposed by :func:`lift_coefficients` as Xi b + Eta c,
    the result is f = b c^{-1}, the matrix relating configuration spread to
    covariant momentum spread. A nearly singular vertical coefficient block
    signals a conjugate-point degeneracy of the frame.
    """
    b, c = lift_coefficients(model, frame, basis)
    if np.linalg.cond(c) > 1e8:
        raise DegenerateFrameError(
            "vertical coefficients of the frame are numerically singular"
        )
    return b @ np.linalg.inv(c)


def j_tensor_from_frame(frame, threshold=1e-8):
    """Real 2n x 2n tensor with J^2 = -I whose +i eigenspace is the frame span."""
    F = frame.columns
    W = np.hstack([F, np.conj(F)])
    sv = np.linalg.svd(W, compute_uv=False)
    if sv[-1] < threshold * sv[0]:
        raise TransversalityError(
            f"frame meets its conjugate: singular value ratio {sv[-1] / sv[0]:.3e}"
        )
    V = np.hstack([1j * F, -1j * np.conj(F)])
    return V @ np.linalg.inv(W)


def positivity_check(frame, raise_on_fail=False):
    """Smallest eigenvalue of the hermitian form -i omega(F_j, conj F_k).

    Positive definiteness certifies that the frame spans a strictly
    positive Lagrangian; the value is the margin.
    """
    F = frame.columns
    O = symplectic_form_matrix(frame.n)
    H = -1j * (F.T @ O @ np.conj(F))
    H = 0.5 * (H + np.conj(H.T))
    eigs = np.linalg.eigvalsh(H)
    if raise_on_fail and eigs[0] <= 0:
        raise PositivityError(f"hermitian pairing not positive: min eig {eigs[0]:.3e}")
    return float(eigs[0]), H


def principal_angles(A, B):
    """Principal angles between the column spans of two frames."""
    return scipy.linalg.subspace_angles(np.asarray(A), np.asarray(B))
