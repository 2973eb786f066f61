"""Series/dual arithmetic: ring identities, recurrences, derivative channels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grauert import jets
from grauert.jets import Jet, constant, eval_poly, variable


def poly_jet(coeffs, R=1):
    c = np.zeros((R, len(coeffs)), dtype=complex)
    c[0, :] = coeffs
    return Jet(c)


def series_coeffs(L=8, lo=-2.0, hi=2.0):
    val = st.floats(lo, hi, allow_nan=False)
    pair = st.tuples(val, val).map(lambda t: complex(*t))
    return st.lists(pair, min_size=L, max_size=L)


def close(a, b, tol=1e-10):
    return np.allclose(a, b, rtol=tol, atol=tol)


@settings(max_examples=40, deadline=None)
@given(series_coeffs(), series_coeffs(), series_coeffs())
def test_mul_associative_distributive(a, b, c):
    ja, jb, jc = poly_jet(a), poly_jet(b), poly_jet(c)
    lhs = (ja * jb) * jc
    rhs = ja * (jb * jc)
    assert close(lhs.c, rhs.c, 1e-9)
    assert close((ja * (jb + jc)).c, (ja * jb + ja * jc).c, 1e-9)


@settings(max_examples=40, deadline=None)
@given(series_coeffs(L=6))
def test_exp_inverse(a):
    j = poly_jet(a)
    prod = j.exp() * (-j).exp()
    expected = np.zeros(6, dtype=complex)
    expected[0] = 1.0
    assert close(prod.c[0], expected, 1e-8)


@settings(max_examples=40, deadline=None)
@given(series_coeffs(L=6))
def test_sincos_pythagoras(a):
    j = poly_jet(a)
    s, c = j.sincos()
    one = s * s + c * c
    expected = np.zeros(6, dtype=complex)
    expected[0] = 1.0
    assert close(one.c[0], expected, 1e-8)


@settings(max_examples=40, deadline=None)
@given(series_coeffs(L=6))
def test_division_roundtrip(a):
    coeffs = list(a)
    coeffs[0] += 4.0  # keep the constant term away from zero
    j = poly_jet(coeffs)
    back = (constant(1.0, L=6) / j) * j
    expected = np.zeros(6, dtype=complex)
    expected[0] = 1.0
    assert close(back.c[0], expected, 1e-8)


def test_known_taylor_coefficients():
    # t as a series variable around 0.3: value row [0.3, 1, 0, ...]
    L = 9
    c = np.zeros((1, L), dtype=complex)
    c[0, 0] = 0.3
    c[0, 1] = 1.0
    t = Jet(c)
    s, _ = t.sincos()
    k = np.arange(L)
    fact = np.array([math.factorial(int(i)) for i in k], dtype=float)
    # d^k sin / dt^k at 0.3 cycles sin, cos, -sin, -cos
    derivs = [np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)]
    expected = np.array([derivs[i % 4](0.3) for i in k]) / fact
    assert close(s.c[0], expected, 1e-12)

    e = t.exp()
    assert close(e.c[0], np.exp(0.3) / fact, 1e-12)

    g = t.log()
    dlog = [np.log(0.3)] + [
        (-1.0) ** (i + 1) * math.factorial(i - 1) / 0.3**i for i in range(1, L)
    ]
    assert close(g.c[0], np.array(dlog) / fact, 1e-11)


def test_sqrt_squares_back():
    c = np.array([[2.0, 0.5, -0.25, 0.125, 0.3]], dtype=complex)
    j = Jet(c)
    r = j.sqrt()
    assert close((r * r).c, c, 1e-12)


def test_dual_channel_is_derivative():
    # f(x) = sin(x) exp(x) / (2 + x); channel carries f'(x)
    x0 = 0.7
    x = variable(x0, channel=0, n_channels=1)
    f = x.sincos()[0] * x.exp() / (x + 2.0)
    fp = (
        (np.cos(x0) + np.sin(x0)) * np.exp(x0) / (2 + x0)
        - np.sin(x0) * np.exp(x0) / (2 + x0) ** 2
    )
    assert abs(f.val - np.sin(x0) * np.exp(x0) / (2 + x0)) < 1e-14
    assert abs(f.grad[0] - fp) < 1e-13


def test_series_with_channels_chain():
    # channels propagate through series multiplication: d/da of (a*t)^2 = 2 a t^2
    L = 4
    c = np.zeros((2, L), dtype=complex)
    a0 = 1.3
    c[0, 0] = a0
    c[1, 0] = 1.0  # sensitivity to a
    a = Jet(c)
    tc = np.zeros((2, L), dtype=complex)  # t does not depend on a
    tc[0, 1] = 1.0
    t = Jet(tc)
    s = a * t
    f = s * s
    assert close(f.c[0], [0, 0, a0**2, 0], 1e-14)
    assert close(f.c[1], [0, 0, 2 * a0, 0], 1e-14)


def test_jets_of_different_shapes_do_not_mix():
    a, t = Jet(np.ones((2, 4), dtype=complex)), Jet(np.ones((1, 4), dtype=complex))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(ValueError, match=r"\(2, 4\) and \(1, 4\)"):
            op(a, t)


def test_eval_poly_matches_numpy():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    dt = 0.37 - 0.21j
    expected = np.array([np.polyval(row[::-1], dt) for row in coeffs])
    assert close(eval_poly(coeffs, dt), expected, 1e-13)


def test_zero_constant_reciprocal_raises():
    j = poly_jet([0.0, 1.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        j.reciprocal()


def test_dispatch_on_plain_numbers():
    assert jets.sincos(0.3) == (np.sin(0.3), np.cos(0.3))
    assert jets.sqrt(-4.0) == 2j
    assert jets.value(3.5) == 3.5
