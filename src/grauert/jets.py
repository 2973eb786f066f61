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
  of the state polynomial with the identity, once per doubling pass, so the
  channels of the field X(z(s)) carry its jacobian series DX(z(s)); the
  flow's jacobian series then follows from the linear recurrence of the
  first variational equation.

Coefficients live in one complex array of shape (..., R, L); row 0 is the
value series, rows 1..R-1 the channels. The leading axes are lanes: a jet
holds one independent scalar per lane, and every operation acts on all lanes
at once, which is how the flow kernel integrates many trajectories with one
pass of a model evaluator. A jet without leading axes is one scalar. Two jets
in one operation have one shape: the same lanes, channels and series length.
Products use the first-order rule in the channels (channels never multiply
each other) and full truncated Cauchy products along the series axis,
realized as small Toeplitz matmuls so the inner loops stay in BLAS.

Scalars (int/float/complex/numpy numbers) mix freely with jets. The
functions at module level (``sincos``, ``exp``, ...) dispatch on type, so model
evaluators written against them run unchanged on plain numbers, duals, or
series, one lane or many.

A series function whose argument has a vanishing constant term (reciprocal,
log, sqrt) raises :class:`SeriesBreakdown`, which names the lanes it
happened in.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet",
    "SeriesBreakdown",
    "value",
    "constant",
    "variable",
    "sincos",
    "exp",
    "log",
    "sqrt",
    "eval_poly",
    "is_plain_zero",
]


class SeriesBreakdown(ZeroDivisionError):
    """A series with a vanishing constant term; ``lanes`` is True in the lanes where it vanished."""

    def __init__(self, what, lanes):
        super().__init__(f"{what} of series with vanishing constant term")
        self.lanes = lanes


_TOEP_IDX: dict[int, np.ndarray] = {}


def _toep(series):
    """Transposed lower-triangular Toeplitz matrices, one per lane.

    ``x @ _toep(a)`` is the truncated Cauchy product of x's rows with a. Entry
    [j, i] is a[i - j], zero above i = j; it is gathered from the series with
    L - 1 zeros in front of it.
    """
    L = series.shape[-1]
    idx = _TOEP_IDX.get(L)
    if idx is None:
        i = np.arange(L)
        idx = _TOEP_IDX[L] = L - 1 + i[None, :] - i[:, None]
    padded = np.zeros(series.shape[:-1] + (2 * L - 1,), dtype=complex)
    padded[..., L - 1 :] = series
    return padded.take(idx, axis=-1)


class Jet:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

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
            return Jet(out)
        return Jet(self.c + _operand(self, other))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            out = self.c.copy()
            out[..., 0, 0] -= other
            return Jet(out)
        return Jet(self.c - _operand(self, other))

    def __rsub__(self, other):
        out = -self.c
        out[..., 0, 0] += other
        return Jet(out)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other)
        a, b = self.c, _operand(self, other)
        out = a @ _toep(b[..., 0, :])
        if b.shape[-2] > 1:
            out[..., 1:, :] += b[..., 1:, :] @ _toep(a[..., 0, :])
        return Jet(out)

    __rmul__ = __mul__

    def reciprocal(self):
        c = self.c
        r0 = _recip_series(c[..., 0, :])
        if c.shape[-2] == 1:
            return Jet(r0[..., None, :])
        out = np.empty_like(c)
        out[..., 0, :] = r0
        # d(1/b) = -db / b^2
        t = _toep(r0)
        out[..., 1:, :] = -((c[..., 1:, :] @ t) @ t)
        return Jet(out)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * (1.0 / other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- transcendental maps ----------------------------------------------
    def _apply(self, val_series, dval_series):
        c = self.c
        if c.shape[-2] == 1:
            return Jet(val_series[..., None, :])
        out = np.empty_like(c)
        out[..., 0, :] = val_series
        out[..., 1:, :] = c[..., 1:, :] @ _toep(dval_series)
        return Jet(out)

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


def _operand(a, b):
    """b's coefficients, for an operation with a: two jets in one operation have one shape."""
    if a.c.shape != b.c.shape:
        raise ValueError(f"jet shapes differ: {a.c.shape} and {b.c.shape}")
    return b.c


# -- series recurrences, all lanes at once -------------------------------------
#
# Each takes a series with lanes, (..., L), and works on it flattened to
# (lanes, L). Each order is one lane-wise dot product with the orders below it,
# written straight into its column. The fixed factors of a recurrence (its
# weights) are scaled and conjugated once up front: np.vecdot conjugates its
# first argument, so the sums come out unconjugated.

_RATIOS: dict[int, np.ndarray] = {}


def _ratios(L):
    """j / k at [k, j] for orders j, k < L (row 0: j)."""
    cached = _RATIOS.get(L)
    if cached is None:
        j = np.arange(L, dtype=float)
        cached = _RATIOS[L] = j[None, :] / np.maximum(j, 1.0)[:, None]
    return cached


def _lanes(f):
    return f.reshape(-1, f.shape[-1])


def _require_nonzero(c0, what, shape):
    if not np.all(c0):
        raise SeriesBreakdown(what, (c0 == 0).reshape(shape))


def _recip_series(b):
    shape = b.shape
    b = _lanes(b)
    b0 = b[:, 0]
    _require_nonzero(b0, "reciprocal", shape[:-1])
    w = np.conj(b / -b0[:, None])
    r = np.zeros(b.shape, dtype=complex)
    r[:, 0] = 1.0 / b0
    for k in range(1, shape[-1]):
        np.vecdot(w[:, 1 : k + 1], r[:, k - 1 :: -1], out=r[:, k])
    return r.reshape(shape)


def _exp_series(f):
    shape = f.shape
    f = _lanes(f)
    # conj(j f_j / k) at [lane, k, j]
    w = np.conj(f)[:, None, :] * _ratios(shape[-1])
    e = np.zeros(f.shape, dtype=complex)
    e[:, 0] = np.exp(f[:, 0])
    for k in range(1, shape[-1]):
        np.vecdot(w[:, k, 1 : k + 1], e[:, k - 1 :: -1], out=e[:, k])
    return e.reshape(shape)


def _sincos_series(f):
    # rows 0 and 1 of sc are the sin and cos series; order k of both comes
    # from one product with the orders below it
    shape = f.shape
    f = _lanes(f)
    w = np.conj(f)[:, None, None, :] * _ratios(shape[-1])[:, None, :]
    sc = np.zeros((f.shape[0], 2, shape[-1]), dtype=complex)
    sc[:, 0, 0] = np.sin(f[:, 0])
    sc[:, 1, 0] = np.cos(f[:, 0])
    for k in range(1, shape[-1]):
        d = np.vecdot(w[:, k, :, 1 : k + 1], sc[:, :, k - 1 :: -1])
        sc[:, 0, k] = d[:, 1]
        sc[:, 1, k] = -d[:, 0]
    return sc[:, 0].reshape(shape), sc[:, 1].reshape(shape)


def _log_series(f):
    # g_k = f_k / f0 - sum_{0 < j < k} (j / k) g_j f_{k-j} / f0
    shape = f.shape
    f = _lanes(f)
    f0 = f[:, 0]
    _require_nonzero(f0, "log", shape[:-1])
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
    _require_nonzero(s0, "sqrt", shape[:-1])
    s = np.zeros(f.shape, dtype=complex)
    s[:, 0] = s0
    for k in range(1, shape[-1]):
        acc = np.vecdot(np.conj(s[:, 1:k]), s[:, k - 1 : 0 : -1])
        s[:, k] = (f[:, k] - acc) / (2.0 * s0)
    return s.reshape(shape)


# -- constructors and accessors ------------------------------------------


def constant(x, L=1):
    c = np.zeros((1, L), dtype=complex)
    c[0, 0] = x
    return Jet(c)


def variable(x, channel, n_channels):
    """Dual-seeded scalar: value x, unit sensitivity in one channel."""
    c = np.zeros((1 + n_channels, 1), dtype=complex)
    c[0, 0] = x
    c[1 + channel, 0] = 1.0
    return Jet(c)


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
    return x.sqrt() if isinstance(x, Jet) else np.sqrt(complex(x))
