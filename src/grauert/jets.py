"""Truncated power-series scalars with first-order derivative channels.

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

Coefficients live in a single (R, L) complex array; row 0 is the value
series, rows 1..R-1 the channels. Products use the first-order rule in the
channels (channels never multiply each other) and full truncated Cauchy
products along the series axis, realized as small Toeplitz matmuls so the
inner loops stay in BLAS.

Scalars (int/float/complex/numpy numbers) mix freely with jets. The
functions at module level (``sincos``, ``exp``, ...) dispatch on type, so model
evaluators written against them run unchanged on plain numbers, duals, or
series.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet",
    "value",
    "constant",
    "variable",
    "sincos",
    "exp",
    "log",
    "sqrt",
    "arccos",
    "eval_poly",
    "is_plain_zero",
]

_TOEP_IDX: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _toep_parts(L):
    cached = _TOEP_IDX.get(L)
    if cached is None:
        i = np.arange(L)
        d = i[:, None] - i[None, :]
        mask = d >= 0
        cached = (np.where(mask, d, 0), mask)
        _TOEP_IDX[L] = cached
    return cached


def _toep(series):
    """Lower-triangular Toeplitz matrix: _toep(a) @ x == truncated conv(a, x)."""
    idx, mask = _toep_parts(series.shape[0])
    return series[idx] * mask


def _conv1(a, b):
    L = a.shape[0]
    return np.convolve(a, b)[:L]


class Jet:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    # -- taxonomy ---------------------------------------------------------
    @property
    def L(self):
        return self.c.shape[1]

    @property
    def R(self):
        return self.c.shape[0]

    @property
    def val(self):
        """Constant (order-0) value."""
        return self.c[0, 0]

    @property
    def grad(self):
        """Order-0 value of each derivative channel, shape (R-1,)."""
        return self.c[1:, 0]

    def copy(self):
        return Jet(self.c.copy())

    def __repr__(self):
        return f"Jet(L={self.L}, R={self.R}, val={self.c[0, 0]!r})"

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Jet):
            out = self.c.copy()
            out[0, 0] += other
            return Jet(out)
        a, b = self.c, other.c
        if a.shape == b.shape:
            return Jet(a + b)
        return Jet(_broadcast_add(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            out = self.c.copy()
            out[0, 0] -= other
            return Jet(out)
        a, b = self.c, other.c
        if a.shape == b.shape:
            return Jet(a - b)
        return Jet(_broadcast_add(a, -b))

    def __rsub__(self, other):
        out = -self.c
        out[0, 0] += other
        return Jet(out)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * other)
        a, b = self.c, other.c
        if a.shape[1] != b.shape[1]:
            raise ValueError("jet truncation lengths differ")
        out = a @ _toep(b[0]).T
        if b.shape[0] > 1:
            extra = b[1:] @ _toep(a[0]).T
            if a.shape[0] == 1:
                out = np.concatenate([out, extra], axis=0)
            elif a.shape[0] == b.shape[0]:
                out[1:] += extra
            else:
                raise ValueError("jet channel counts differ")
        return Jet(out)

    __rmul__ = __mul__

    def reciprocal(self):
        c = self.c
        r0 = _recip_series(c[0])
        if c.shape[0] == 1:
            return Jet(r0[None, :])
        out = np.empty_like(c)
        out[0] = r0
        # d(1/b) = -db / b^2
        out[1:] = -(c[1:] @ _toep(_conv1(r0, r0)).T)
        return Jet(out)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * (1.0 / other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise TypeError("only nonnegative integer powers")
        if n == 0:
            return constant(1.0, L=self.L)
        out = self
        for _ in range(int(n) - 1):
            out = out * self
        return out

    # -- transcendental maps ----------------------------------------------
    def _apply(self, val_series, dval_series):
        c = self.c
        if c.shape[0] == 1:
            return Jet(val_series[None, :])
        out = np.empty_like(c)
        out[0] = val_series
        out[1:] = c[1:] @ _toep(dval_series).T
        return Jet(out)

    def sincos(self):
        s, co = _sincos_series(self.c[0])
        return self._apply(s, co), self._apply(co, -s)

    def exp(self):
        e = _exp_series(self.c[0])
        return self._apply(e, e)

    def log(self):
        g = _log_series(self.c[0])
        return self._apply(g, _recip_series(self.c[0]))

    def sqrt(self):
        s = _sqrt_series(self.c[0])
        return self._apply(s, 0.5 * _recip_series(s))

    def arccos(self):
        # principal branch via arccos w = -i log(w + i sqrt(1 - w^2));
        # constant term must stay away from +-1
        if self.L == 1:
            v = self.c[0, 0]
            val = np.array([np.arccos(v)], dtype=complex)
            dval = np.array([-1.0 / np.sqrt(1.0 - v * v)], dtype=complex)
            return self._apply(val, dval)
        s = (1.0 - self * self).sqrt()
        return (self + 1j * s).log() * (-1j)


def _broadcast_add(a, b):
    if a.shape[1] != b.shape[1]:
        raise ValueError("jet truncation lengths differ")
    if a.shape[0] == 1:
        out = b.copy()
        out[0] += a[0]
        return out
    if b.shape[0] == 1:
        out = a.copy()
        out[0] += b[0]
        return out
    raise ValueError("jet channel counts differ")


def _recip_series(b):
    L = b.shape[0]
    b0 = b[0]
    if b0 == 0:
        raise ZeroDivisionError("series has vanishing constant term")
    r = np.zeros(L, dtype=complex)
    r[0] = 1.0 / b0
    for k in range(1, L):
        r[k] = -np.dot(b[1 : k + 1], r[k - 1 :: -1]) / b0
    return r


def _exp_series(f):
    L = f.shape[0]
    e = np.zeros(L, dtype=complex)
    e[0] = np.exp(f[0])
    jf = np.arange(L) * f
    for k in range(1, L):
        e[k] = np.dot(jf[1 : k + 1], e[k - 1 :: -1]) / k
    return e


def _sincos_series(f):
    L = f.shape[0]
    s = np.zeros(L, dtype=complex)
    c = np.zeros(L, dtype=complex)
    s[0] = np.sin(f[0])
    c[0] = np.cos(f[0])
    jf = np.arange(L) * f
    for k in range(1, L):
        s[k] = np.dot(jf[1 : k + 1], c[k - 1 :: -1]) / k
        c[k] = -np.dot(jf[1 : k + 1], s[k - 1 :: -1]) / k
    return s, c


def _log_series(f):
    L = f.shape[0]
    f0 = f[0]
    if f0 == 0:
        raise ZeroDivisionError("log of series with vanishing constant term")
    g = np.zeros(L, dtype=complex)
    g[0] = np.log(f0)
    jg = np.zeros(L, dtype=complex)
    for k in range(1, L):
        acc = np.dot(jg[1:k], f[k - 1 : 0 : -1]) if k >= 2 else 0.0
        g[k] = (f[k] - acc / k) / f0
        jg[k] = k * g[k]
    return g


def _sqrt_series(f):
    L = f.shape[0]
    s = np.zeros(L, dtype=complex)
    s0 = np.sqrt(f[0])
    if s0 == 0:
        raise ZeroDivisionError("sqrt of series with vanishing constant term")
    s[0] = s0
    for k in range(1, L):
        acc = np.dot(s[1:k], s[k - 1 : 0 : -1]) if k >= 2 else 0.0
        s[k] = (f[k] - acc) / (2.0 * s0)
    return s


# -- constructors and accessors ------------------------------------------


def constant(x, L=1, R=1):
    c = np.zeros((R, L), dtype=complex)
    c[0, 0] = x
    return Jet(c)


def variable(x, channel, n_channels, L=1):
    """Dual-seeded scalar: value x, unit sensitivity in one channel."""
    c = np.zeros((1 + n_channels, L), dtype=complex)
    c[0, 0] = x
    c[1 + channel, 0] = 1.0
    return Jet(c)


def value(x):
    return x.c[0, 0] if isinstance(x, Jet) else x


def is_plain_zero(x):
    """True for a plain-number zero, a structural zero of a model evaluator.

    A jet is never one, even with all coefficients zero, so skipping the
    products of plain zeros changes no result.
    """
    return not isinstance(x, Jet) and x == 0


def eval_poly(coeffs, dt):
    """Horner evaluation of series coefficients along the last axis."""
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


def arccos(x):
    return x.arccos() if isinstance(x, Jet) else np.arccos(complex(x))
