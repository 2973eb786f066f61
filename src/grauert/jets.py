"""Truncated power-series scalars with first-order derivative channels, over lanes.

One class does triple duty:

* ``L > 1, R == 1``: a truncated Taylor series in one (complex) parameter.
  Functions of a flow's state series are evaluated this way, and
  elementary functions (sincos, exp, ...) use the classical coefficient
  recurrences; sin and cos come as one pair from one recurrence.
* ``L == 1, R > 1``: a first-order dual number with ``R - 1`` derivative
  channels, used to push jacobians through closed-form maps (chart
  transitions, embeddings) without hand-coded derivative formulas.
* ``L > 1, R > 1``: both at once. The series integrator seeds the channels
  of the position polynomials with the identity, once per doubling pass, so
  the channels of the field X(z(s)) carry the position columns of its
  jacobian series DX(z(s)); the momentum polynomials are value series, and
  the integrator adds the momentum columns by the chain rule on value
  series. The flow's jacobian series then follows from the linear
  recurrence of the first variational equation.

Coefficients live in one complex array of shape (..., R, L); row 0 is the
value series, rows 1..R-1 the channels. The leading axes are lanes: a jet
holds one independent scalar per lane, and every operation acts on all lanes
at once, which is how the flow kernel integrates many trajectories with one
pass of a model evaluator. A jet without leading axes is one scalar. Two jets
in one operation have the same lanes and series length, and the same
channels unless one is a value series (R == 1), which acts as if its channel
rows were zeros. Products use the first-order rule in the channels (channels
never multiply each other) and full truncated Cauchy products along the
series axis, realized as small Toeplitz matmuls so the inner loops stay in
BLAS. Order k of a product reads orders up to k only, so a jet records how
many channel orders it computes (``exact``, by default all): operations
compute the channel columns below the smaller count of their operands and
leave zeros past it; the value series stays whole.

Scalars (int/float/complex/numpy numbers) mix freely with jets. The
functions at module level (``sincos``, ``exp``, ...) dispatch on type, so model
evaluators written against them run unchanged on plain numbers, duals, or
series, one lane or many.

Series functions never raise. One whose argument has a vanishing constant
term (reciprocal, log, sqrt) gives non-finite coefficients, in that lane
only: every product, gather and recurrence acts lane by lane, so a lane
never reads another. Callers that expect it build under ``np.errstate`` and
test each lane's coefficients for finiteness.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "Jet",
    "value",
    "sincos",
    "exp",
    "log",
    "sqrt",
    "eval_poly",
    "is_plain_zero",
]


# the exact channel orders of a jet that computes them all
_ALL = sys.maxsize

_TOEP_IDX: dict[int, np.ndarray] = {}
# Temporaries of at most _SMALL complex entries (128 KiB, glibc's default mmap
# threshold) are made fresh. Larger ones go to _TOEP_WORK, one flat buffer grown
# to the largest yet served, or are avoided: made fresh per call, they would be
# mapped and unmapped, or trim and refault the heap, every pass.
_SMALL = 8192
_TOEP_WORK = np.empty(0, dtype=complex)


def _toep(series):
    """Transposed lower-triangular Toeplitz matrices, one per lane.

    ``x @ _toep(a)`` is the truncated Cauchy product of x's rows with a. Entry
    [j, i] is a[i - j], zero above i = j; it is gathered from the series with
    L - 1 zeros in front of it. A large result is a view of the shared
    workspace, valid until the next call.
    """
    global _TOEP_WORK
    L = series.shape[-1]
    idx = _TOEP_IDX.get(L)
    if idx is None:
        i = np.arange(L)
        idx = _TOEP_IDX[L] = L - 1 + i[None, :] - i[:, None]
    padded = np.zeros(series.shape[:-1] + (2 * L - 1,), dtype=complex)
    padded[..., L - 1 :] = series
    size = series.size * L
    if size <= _SMALL:
        return padded.take(idx, axis=-1)
    if _TOEP_WORK.size < size:
        _TOEP_WORK = np.empty(size, dtype=complex)
    out = _TOEP_WORK[:size].reshape(series.shape[:-1] + (L, L))
    # the indices are in range, so "clip" gathers what "raise" would, without
    # the temporary that "raise" buffers the output through
    return padded.take(idx, axis=-1, out=out, mode="clip")


class Jet:
    __slots__ = ("c", "exact")

    def __init__(self, c, exact=_ALL):
        self.c = c
        # channel orders below this are computed; the columns past it are zeros
        self.exact = exact

    # -- taxonomy ---------------------------------------------------------
    @property
    def R(self):
        return self.c.shape[-2]

    @property
    def val(self):
        """Constant (order-0) value, per lane."""
        return self.c[..., 0, 0]

    @property
    def grad(self):
        """Order-0 value of each derivative channel, shape (..., R-1)."""
        return self.c[..., 1:, 0]

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Jet):
            if is_plain_zero(other):
                return self
            out = self.c.copy()
            out[..., 0, 0] += other
            return Jet(out, self.exact)
        a, b = self.c, other.c
        k = self.exact if self.exact <= other.exact else other.exact
        if a.shape == b.shape:
            return Jet(a + b, k)
        if not _has_channels(a, b):
            a, b = b, a
        out = a.copy()
        out[..., 0, :] += b[..., 0, :]
        return Jet(out, k)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c, self.exact)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            out = self.c.copy()
            out[..., 0, 0] -= other
            return Jet(out, self.exact)
        if self.c.shape != other.c.shape:
            return self + (-other)
        return Jet(self.c - other.c, self.exact if self.exact <= other.exact else other.exact)

    def __rsub__(self, other):
        out = -self.c
        out[..., 0, 0] += other
        return Jet(out, self.exact)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other, self.exact)
        a, b = self.c, other.c
        k = self.exact if self.exact <= other.exact else other.exact
        if a.shape != b.shape and not _has_channels(a, b):
            a = np.zeros_like(b)
            a[..., :1, :] = self.c
        out = a @ _toep(b[..., 0, :])
        if b.shape[-2] > 1:
            out[..., 1:, :k] += b[..., 1:, :k] @ _toep(a[..., 0, :k])
        if k < b.shape[-1]:
            out[..., 1:, k:] = 0.0
        return Jet(out, k)

    __rmul__ = __mul__

    def reciprocal(self):
        c = self.c
        r0 = _recip_series(c[..., 0, :])
        if c.shape[-2] == 1:
            return Jet(r0[..., None, :])
        k = self.exact
        out = np.empty_like(c)
        out[..., 0, :] = r0
        # d(1/b) = -db / b^2
        t = _toep(r0[..., :k])
        out[..., 1:, :k] = -((c[..., 1:, :k] @ t) @ t)
        if k < c.shape[-1]:
            out[..., 1:, k:] = 0.0
        return Jet(out, k)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * (1.0 / other), self.exact)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- transcendental maps ----------------------------------------------
    def _apply(self, val_series, dval_series):
        c = self.c
        if c.shape[-2] == 1:
            return Jet(val_series[..., None, :])
        k = self.exact
        out = np.empty_like(c)
        out[..., 0, :] = val_series
        out[..., 1:, :k] = c[..., 1:, :k] @ _toep(dval_series[..., :k])
        if k < c.shape[-1]:
            out[..., 1:, k:] = 0.0
        return Jet(out, k)

    def sincos(self):
        s, co = _sincos_series(self.c[..., 0, :])
        return self._apply(s, co), self._apply(co, -s)

    def exp(self):
        e = _exp_series(self.c[..., 0, :])
        return self._apply(e, e)

    def log(self):
        g = _log_series(self.c[..., 0, :])
        return self._apply(g, _recip_series(self.c[..., 0, :]))

    def sqrt(self):
        s = _sqrt_series(self.c[..., 0, :])
        return self._apply(s, 0.5 * _recip_series(s))


def _has_channels(a, b):
    """Whether a is the one with channels, of two coefficient arrays of different shapes.

    They mix only when they have the same lanes and series length and one of
    them is a value series (one row); any other difference raises.
    """
    (*lanes_a, ra, la), (*lanes_b, rb, lb) = a.shape, b.shape
    if lanes_a != lanes_b or la != lb or min(ra, rb) > 1:
        raise ValueError(f"jet shapes differ: {a.shape} and {b.shape}")
    return a.shape[-2] > 1


# -- series recurrences, all lanes at once -------------------------------------
#
# Each takes a series with lanes, (..., L), and works on it flattened to
# (lanes, L). Each order is one lane-wise dot product with the orders below it,
# written straight into its column. The fixed factors of a recurrence (its
# weights) are conjugated up front: np.vecdot conjugates its first argument, so
# the sums come out unconjugated.

_RATIOS: dict[int, np.ndarray] = {}


def _ratios(L):
    """j / k at [k, j] for orders j, k < L (row 0: j)."""
    cached = _RATIOS.get(L)
    if cached is None:
        j = np.arange(L, dtype=float)
        cached = _RATIOS[L] = j[None, :] / np.maximum(j, 1.0)[:, None]
    return cached


def _scaled_weights(fc):
    """k -> conj(j f_j / k), j = 1..k, from fc = conj(f): one product for all k while small."""
    r = _ratios(fc.shape[-1])
    if fc.size * fc.shape[-1] <= _SMALL:
        w = fc[..., None, :] * r
        return lambda k: w[..., k, 1 : k + 1]
    return lambda k: fc[..., 1 : k + 1] * r[k, 1 : k + 1]


def _lanes(f):
    return f.reshape(-1, f.shape[-1])


def _recip_series(b):
    shape = b.shape
    b = _lanes(b)
    b0 = b[:, 0]
    w = np.conj(b / -b0[:, None])
    r = np.zeros(b.shape, dtype=complex)
    r[:, 0] = 1.0 / b0
    for k in range(1, shape[-1]):
        np.vecdot(w[:, 1 : k + 1], r[:, k - 1 :: -1], out=r[:, k])
    return r.reshape(shape)


def _exp_series(f):
    shape = f.shape
    f = _lanes(f)
    w = _scaled_weights(np.conj(f))
    e = np.zeros(f.shape, dtype=complex)
    e[:, 0] = np.exp(f[:, 0])
    for k in range(1, shape[-1]):
        np.vecdot(w(k), e[:, k - 1 :: -1], out=e[:, k])
    return e.reshape(shape)


def _sincos_series(f):
    # rows 0 and 1 of sc are the sin and cos series; order k of both comes
    # from one product with the orders below it
    shape = f.shape
    f = _lanes(f)
    w = _scaled_weights(np.conj(f)[:, None, :])
    sc = np.zeros((f.shape[0], 2, shape[-1]), dtype=complex)
    sc[:, 0, 0] = np.sin(f[:, 0])
    sc[:, 1, 0] = np.cos(f[:, 0])
    for k in range(1, shape[-1]):
        d = np.vecdot(w(k), sc[:, :, k - 1 :: -1])
        sc[:, 0, k] = d[:, 1]
        sc[:, 1, k] = -d[:, 0]
    return sc[:, 0].reshape(shape), sc[:, 1].reshape(shape)


def _log_series(f):
    # g_k = f_k / f0 - sum_{0 < j < k} (j / k) g_j f_{k-j} / f0
    shape = f.shape
    f = _lanes(f)
    f0 = f[:, 0]
    w = np.conj(_toep(f).swapaxes(-1, -2) * _ratios(shape[-1]) / f0[:, None, None])
    g = (f / f0[:, None]).astype(complex, copy=False)
    g[:, 0] = np.log(f0)
    for k in range(2, shape[-1]):
        g[:, k] -= np.vecdot(w[:, k, 1:k], g[:, 1:k])
    return g.reshape(shape)


def _sqrt_series(f):
    shape = f.shape
    f = _lanes(f)
    s0 = np.sqrt(f[:, 0])
    s = np.zeros(f.shape, dtype=complex)
    s[:, 0] = s0
    for k in range(1, shape[-1]):
        acc = np.vecdot(np.conj(s[:, 1:k]), s[:, k - 1 : 0 : -1])
        s[:, k] = (f[:, k] - acc) / (2.0 * s0)
    return s.reshape(shape)


# -- accessors --------------------------------------------------------------


def value(x):
    return x.c[..., 0, 0] if isinstance(x, Jet) else x


def is_plain_zero(x):
    """True for a plain-number zero, a structural zero of a model evaluator.

    A jet or a lane array is never one, even with all entries zero, so
    skipping the products of plain zeros changes no result.
    """
    return not isinstance(x, (Jet, np.ndarray)) and x == 0


def eval_poly(coeffs, dt):
    """Horner evaluation of series coefficients along the last axis.

    ``dt`` is a number, or an array broadcasting against ``coeffs[..., 0]``
    (one parameter per lane).
    """
    out = np.zeros(coeffs.shape[:-1], dtype=complex)
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        out = out * dt + coeffs[..., k]
    return out


# -- dispatching math ------------------------------------------------------


def sincos(x):
    """(sin x, cos x); a jet runs one coefficient recurrence for both."""
    return x.sincos() if isinstance(x, Jet) else (np.sin(x), np.cos(x))


def exp(x):
    return x.exp() if isinstance(x, Jet) else np.exp(x)


def log(x):
    return x.log() if isinstance(x, Jet) else np.log(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else np.sqrt(np.asarray(x, dtype=complex))
