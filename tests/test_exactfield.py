import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrov3.exactfield import (DivisionByZeroFunction, Point, PoleAtPoint, Poly,
                                RatFn, sample_points)


def P(terms):
    return Poly(terms, 4)


X1 = RatFn.var(2)
X2 = RatFn.var(3)
Y1 = RatFn.var(0)
ONE = RatFn.const(1)


# -- strategies ------------------------------------------------------------------


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
exponents = st.tuples(*(st.integers(0, 2) for _ in range(4)))


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(exponents)] = draw(coeffs)
    return Poly(terms, 4)


@st.composite
def ratfns(draw):
    num = draw(polys())
    den = draw(polys(max_terms=3))
    if den.is_zero():
        den = Poly.const(1, 4)
    return RatFn(num, den)


# -- basic examples ----------------------------------------------------------------


def test_inverse_pair():
    assert (X2 * (1 / X2) - 1).is_zero()


def test_common_denominator():
    assert (X1 / X2 + (X2 - X1) / X2 - 1).is_zero()


def test_commutativity_canonical_zero():
    assert (X1 * X2 - X2 * X1).is_zero()


def test_divide_by_zero_function():
    with pytest.raises(DivisionByZeroFunction):
        ONE / RatFn.const(0)


def test_diff_examples():
    # d(x2)/dx1 = 0 and d(x2)/dx2 = 1
    assert X2.diff(2).is_zero()
    assert (X2.diff(3) - 1).is_zero()
    # quotient rule: d(1/x2)/dx2 = -1/x2^2
    assert ((1 / X2).diff(3) + 1 / (X2 * X2)).is_zero()


def test_eval_examples():
    p = Point(0, 0, 1, 1)
    assert X2.eval(p.coords) == 1
    f = X1 * (1 - Y1) * X2 / 4
    assert f.eval(p.coords) == Fraction(1, 4)
    with pytest.raises(PoleAtPoint):
        (1 / X2).eval(Point(0, 0, 1, 0).coords)


def test_is_zero_examples():
    assert ((X1 + X2) - (X2 + X1)).is_zero()
    assert (X1 / X2 - X1 * (1 / X2)).is_zero()
    # all-zero solution data leaves the constant 1 in the second residual
    assert not RatFn.const(1).is_zero()


def test_arith_dispatch():
    assert ONE + ONE == RatFn.const(2)
    assert (ONE - ONE).is_zero()
    assert (X1 * X2).eval((0, 0, 2, 3)) == 6
    assert (X1 / X2).eval((0, 0, 2, 3)) == Fraction(2, 3)
    with pytest.raises(TypeError):
        ONE + "x"


def test_canonical_form_den_positive_primitive():
    f = RatFn(Poly({(0, 0, 0, 0): Fraction(2, 3)}), Poly({(0, 0, 0, 1): -4}))
    _, lead = f.den.leading_term()
    assert lead > 0
    assert f.den.content() == 1
    assert f == RatFn(Poly({(0, 0, 0, 0): -1}), Poly({(0, 0, 0, 1): 6}))


def test_monomial_reduction():
    f = RatFn(Poly({(0, 0, 1, 2): 1}), Poly({(0, 0, 1, 1): 1}))
    assert f == X2
    assert f.den.is_constant()


# -- algebraic laws ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ratfns(), ratfns(), ratfns())
def test_field_axioms(f, g, h):
    assert ((f + g) + h) == (f + (g + h))
    assert ((f * g) * h) == (f * (g * h))
    assert (f * (g + h)) == (f * g + f * h)
    assert (f + g) == (g + f)
    assert (f * g) == (g * f)


@settings(max_examples=60, deadline=None)
@given(ratfns(), ratfns(), st.integers(0, 3))
def test_leibniz_rule(f, g, i):
    assert (f * g).diff(i) == f.diff(i) * g + f * g.diff(i)


@settings(max_examples=60, deadline=None)
@given(ratfns(), st.integers(0, 3), st.integers(0, 3))
def test_mixed_partials_commute(f, i, j):
    assert f.diff(i).diff(j) == f.diff(j).diff(i)


@settings(max_examples=40, deadline=None)
@given(ratfns())
def test_diff_linear(f):
    assert (3 * f).diff(1) == 3 * f.diff(1)


# -- numeric cross-check ----------------------------------------------------------------


def test_diff_matches_finite_differences():
    rng = random.Random(7)
    f = (X1 * X1 * X2 + Y1 * X2 - 3) / (X2 * X2 + 1)
    h = 1e-5
    checked = 0
    for _ in range(100):
        pt = [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 2)]
        i = rng.randrange(4)
        up = list(pt)
        dn = list(pt)
        up[i] += h
        dn[i] -= h
        fd = (f.eval(up) - f.eval(dn)) / (2 * h)
        exact = f.diff(i).eval(pt)
        scale = max(1.0, abs(exact))
        assert abs(fd - exact) / scale < 1e-6
        checked += 1
    assert checked == 100


floats = st.floats(min_value=-3, max_value=3, allow_nan=False)
float_points = st.tuples(floats, floats, floats, st.floats(min_value=0.25, max_value=3))


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=200, deadline=None)
@given(polys(), float_points)
def test_poly_float_fn_is_eval_float_path(p, pt):
    assert _same_bits(p.float_fn()(*pt), p.eval(pt))
    npt = np.array(pt)                       # numpy scalar coordinates, as in the mirror
    assert _same_bits(p.float_fn()(*npt), p.eval(npt))


@settings(max_examples=200, deadline=None)
@given(ratfns(), float_points)
def test_ratfn_float_fn_is_eval_float_path(f, pt):
    try:
        want = f.eval(pt)
    except PoleAtPoint:
        with pytest.raises(PoleAtPoint):
            f.float_fn()(*pt)
        return
    assert _same_bits(f.float_fn()(*pt), want)


def test_float_fn_on_arrays_matches_points():
    f = (X1 * X1 * X2 + Y1 * X2 - 3) / (X2 * X2 + 1)
    rng = np.random.default_rng(2)
    cols = [rng.uniform(-2, 2, 50), rng.uniform(-2, 2, 50), rng.uniform(-2, 2, 50),
            rng.uniform(0.5, 2, 50)]
    got = f.float_fn()(*cols)
    want = np.array([f.eval(pt) for pt in zip(*cols)])
    assert got.shape == (50,)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # scalar coordinates broadcast against arrays; a constant gives a scalar
    assert f.float_fn()(0.5, 0.5, cols[2], 1.0).shape == (50,)
    assert RatFn.const(Fraction(3, 2)).float_fn()(*cols) == 1.5


def test_ratfn_float_fn_pole_in_array():
    f = Y1 / (X2 - 1)
    fn = f.float_fn()
    assert fn(0.5, 0.0, 0.0, 2.0) == 0.5
    with pytest.raises(PoleAtPoint):
        fn(np.array([0.5, 1.0]), 0.0, 0.0, np.array([2.0, 1.0]))
    with pytest.raises(PoleAtPoint):
        fn(0.5, 0.0, 0.0, 1.0)


# -- serialization ------------------------------------------------------------------------


def test_json_roundtrip():
    f = (X1 * X2 - 7) / (X2 ** 3)
    data = json.loads(json.dumps(f.to_json()))
    g = RatFn.from_json(data)
    assert f == g


def test_poly_sqrt():
    p = (Poly.var(2) + Poly.var(3)) * (Poly.var(2) + Poly.var(3))
    assert p.sqrt() == Poly.var(2) + Poly.var(3)
    with pytest.raises(ValueError):
        Poly.var(2).sqrt()
    assert (RatFn.var(3) ** 2).sqrt() == RatFn.var(3)


def test_poly_integrate_inverts_diff():
    p = Poly({(2, 1, 0, 0): Fraction(3, 2), (0, 3, 0, 0): -1}, 4)
    assert p.integrate(0).diff(0) == p


def test_sample_points_deterministic():
    a = sample_points(10, seed=3)
    b = sample_points(10, seed=3)
    assert [p.coords for p in a] == [p.coords for p in b]
    assert all(Fraction(1, 2) <= p.coords[3] <= 2 for p in a)
