"""Series/dual arithmetic: ring identities, recurrences, derivative channels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grauert import jets
from grauert.jets import Jet, eval_poly
from oracles import constant, variable


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
    # only a value series mixes with a jet of another shape; lanes, lengths and
    # two channel counts above one do not
    pairs = [((2, 4), (3, 4)), ((3, 2, 4), (2, 4)), ((3, 2, 4), (4, 1, 4)),
             ((2, 4), (1, 5)), ((3, 1, 4), (1, 4))]
    for sa, sb in pairs:
        a, b = Jet(np.ones(sa, dtype=complex)), Jet(np.ones(sb, dtype=complex))
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="jet shapes differ") as err:
                    op(x, y)
                assert str(x.c.shape) in str(err.value) and str(y.c.shape) in str(err.value)


def test_value_series_mixes_as_zero_channel_rows():
    # a value series with a jet that has channels: the same bits as with
    # explicit zero channel rows, either operand first, with and without lanes
    rng = np.random.default_rng(4)
    for lanes in ((), (5,)):
        a = Jet(rng.normal(size=lanes + (3, 6)) + 1j * rng.normal(size=lanes + (3, 6)))
        v = rng.normal(size=lanes + (1, 6)) + 1j * rng.normal(size=lanes + (1, 6))
        padded = np.zeros(lanes + (3, 6), dtype=complex)
        padded[..., :1, :] = v
        t, tz = Jet(v), Jet(padded)
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            for got, want in ((op(a, t), op(a, tz)), (op(t, a), op(tz, a))):
                assert got.c.shape == want.c.shape
                assert np.array_equal(got.c, want.c)


def test_channels_past_the_exact_orders_are_zeros():
    # a jet with k exact channel orders: products, reciprocals and series
    # functions give the value series of the full jet to the bit, its first k
    # channel orders to roundoff, and zeros past them
    rng = np.random.default_rng(8)
    L, k = 9, 4
    for lanes in ((), (5,)):
        full = [rng.normal(size=lanes + (3, L)) + 1j * rng.normal(size=lanes + (3, L)) + 3.0
                for _ in range(2)]
        cut = [c.copy() for c in full]
        for c in cut:
            c[..., 1:, k:] = 0.0
        v = rng.normal(size=lanes + (1, L)) + 1j * rng.normal(size=lanes + (1, L))
        ops = [lambda x, y: x * y, lambda x, y: x / y, lambda x, y: x + 2.0 * y,
               lambda x, y: (x - y) * Jet(v), lambda x, y: Jet(v) * x - y,
               lambda x, y: x.sincos()[1] * y.exp(), lambda x, y: x.log() - y.sqrt()]
        for op in ops:
            want = op(Jet(full[0]), Jet(full[1]))
            got = op(Jet(cut[0], k), Jet(cut[1], k))
            assert got.exact == k
            assert np.array_equal(got.c[..., 0, :], want.c[..., 0, :])
            assert close(got.c[..., 1:, :k], want.c[..., 1:, :k], 1e-13)
            assert not np.any(got.c[..., 1:, k:])


def test_eval_poly_matches_numpy():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    dt = 0.37 - 0.21j
    expected = np.array([np.polyval(row[::-1], dt) for row in coeffs])
    assert close(eval_poly(coeffs, dt), expected, 1e-13)


def test_vanishing_constant_term_breaks_down_in_its_lane_only():
    # reciprocal, log and sqrt never raise: a lane whose constant term is 0
    # gets non-finite coefficients, and every other lane keeps the bits it
    # has in a batch without it. L = 41 gathers through the shared workspace.
    rng = np.random.default_rng(29)
    for R, L in ((1, 8), (3, 8), (3, 41)):
        c = rng.normal(size=(5, R, L)) + 1j * rng.normal(size=(5, R, L)) + 2.0
        c[2, 0, 0] = 0.0
        rest = np.delete(c, 2, axis=0)
        for op in (Jet.reciprocal, Jet.log, Jet.sqrt):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                got, want = op(Jet(c)).c, op(Jet(rest)).c
            assert not np.isfinite(got[2]).all(), (op.__name__, R, L)
            assert np.array_equal(np.delete(got, 2, axis=0), want), (op.__name__, R, L)
            assert np.isfinite(want).all()


def test_dispatch_on_plain_numbers():
    assert jets.sincos(0.3) == (np.sin(0.3), np.cos(0.3))
    assert jets.sqrt(-4.0) == 2j
    assert jets.value(3.5) == 3.5


def test_sqrt_takes_lane_arrays_and_keeps_plain_bits():
    # like log, exp and sincos, sqrt takes a lane array; a plain number keeps
    # the bits of the principal complex root
    x = np.array([-4.0, 2.0, 1.0 + 1.0j, -0.0, 3e-300])
    got = jets.sqrt(x)
    assert got.shape == x.shape
    assert np.array_equal(got, np.array([np.sqrt(complex(e)) for e in x]))
    for e in (-4.0, 2.0, 7, 1.0 + 1.0j, -0.0, np.float64(0.3)):
        r = jets.sqrt(e)
        assert np.array(r).tobytes() == np.array(np.sqrt(complex(e))).tobytes()
        assert type(r) is np.complex128


# -- the shared Toeplitz workspace ----------------------------------------------

# (lanes, R, L): lane counts and series lengths of the kernel's jets, no lane axis
# for lanes 0; the order mixes growing and shrinking shapes
WORKSPACE_SHAPES = [(3, 5, 17), (233, 5, 17), (48, 1, 41), (0, 3, 1), (7, 1, 2), (48, 3, 41)]


def _fresh_toep(series):
    """The Toeplitz gather into a new C-ordered array per call: no workspace to share."""
    L = series.shape[-1]
    i = np.arange(L)
    padded = np.concatenate([np.zeros(series.shape[:-1] + (L - 1,), dtype=complex), series], -1)
    return padded.take(L - 1 + i[None, :] - i[:, None], axis=-1)


def _gathering_ops(lanes, R, L):
    """Every jet operation that gathers Toeplitz matrices, on seeded jets of one shape."""
    rng = np.random.default_rng(lanes * 1000 + R * 100 + L)
    shape = (lanes, R, L) if lanes else (R, L)
    a, b = (Jet(rng.normal(size=shape) + 1j * rng.normal(size=shape) + 3.0) for _ in range(2))
    return [lambda: a * b, a.reciprocal, lambda: a.sincos()[0], a.exp, a.log, a.sqrt, lambda: b * a]


def test_products_interleaved_across_shapes_keep_their_bits(monkeypatch):
    ops = [_gathering_ops(*s) for s in WORKSPACE_SHAPES]
    monkeypatch.setattr(jets, "_TOEP_WORK", np.empty(0, dtype=complex))
    # interleaved: each operation round the shapes in turn, every result held to the end
    held = [[None] * len(row) for row in ops]
    for k in range(len(ops[0])):
        for s, row in enumerate(ops):
            held[s][k] = row[k]().c
    assert jets._TOEP_WORK.size == max(max(lanes, 1) * L * L for lanes, _, L in WORKSPACE_SHAPES)
    # alone: each shape by itself, every gather a new array
    monkeypatch.setattr(jets, "_toep", _fresh_toep)
    for row, got in zip(ops, held):
        for op, c in zip(row, got):
            assert np.array_equal(op().c, c)


def _all_orders_weights(f):
    """conj(j f_j / k) at [lane, k, j], every order at once: the reference weights."""
    L = f.shape[-1]
    j = np.arange(L, dtype=float)
    return np.conj(f)[:, None, :] * (j[None, :] / np.maximum(j, 1.0)[:, None])


def test_exp_and_sincos_recurrences_equal_the_all_orders_reference():
    rng = np.random.default_rng(3)
    for lanes, L in ((1, 2), (48, 41), (233, 17)):
        f = rng.normal(size=(lanes, L)) + 1j * rng.normal(size=(lanes, L))
        w = _all_orders_weights(f)
        e = np.zeros_like(f)
        sc = np.zeros((lanes, 2, L), dtype=complex)
        e[:, 0], sc[:, 0, 0], sc[:, 1, 0] = np.exp(f[:, 0]), np.sin(f[:, 0]), np.cos(f[:, 0])
        for k in range(1, L):
            e[:, k] = np.vecdot(w[:, k, 1 : k + 1], e[:, k - 1 :: -1])
            d = np.vecdot(w[:, k, None, 1 : k + 1], sc[:, :, k - 1 :: -1])
            sc[:, 0, k], sc[:, 1, k] = d[:, 1], -d[:, 0]
        assert np.array_equal(jets._exp_series(f), e)
        s, c = jets._sincos_series(f)
        assert np.array_equal(s, sc[:, 0]) and np.array_equal(c, sc[:, 1])
