"""Fixed-seed property tests for the Borel series algebra at weight <= 8."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ospq.scalars import rat, P, SQRT2, HALF
from ospq.borel import BorelSeries, binomial_series

W = 8
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=25)

coeffs = st.builds(lambda a, b, c: rat(a) + rat(b) * P + rat(c) * SQRT2,
                   st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 1))
monomials = st.tuples(st.integers(0, 1), st.integers(0, 2),
                      st.integers(0, W // 2)).filter(lambda k: k[0] + 2 * k[2] <= W)
series = st.dictionaries(monomials, coeffs, min_size=1, max_size=4).map(
    lambda t: BorelSeries(W, t))


@st.composite
def x_series(draw, constant):
    """A series in X alone whose constant term is drawn from ``constant``."""
    body = draw(st.dictionaries(st.integers(1, W // 2), coeffs, max_size=3))
    return BorelSeries.in_x(W, {0: draw(constant), **body})


exponents = st.sampled_from([Fraction(n, 2) for n in (-2, -1, 0, 1, 3, 4)])
bases = st.sampled_from([P, HALF * P, rat(1) + SQRT2 * P])


def restrict(f, w):
    return BorelSeries(w, dict(f.terms()))


@PROPERTY
@given(series, series, series)
def test_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(series, series, series)
def test_product_distributes_over_sum(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@PROPERTY
@given(series, series, st.integers(0, W - 1))
def test_truncation_is_a_quotient(a, b, w):
    assert (restrict(a * b, w).terms()
            == (restrict(a, w) * restrict(b, w)).terms())


def one_plus(c):
    return BorelSeries.in_x(W, {0: rat(1), 1: c})


@PROPERTY
@given(exponents, exponents, bases)
def test_binomial_exponent_law(a, b, c):
    assert binomial_series(a, c, W) * binomial_series(b, c, W) == binomial_series(a + b, c, W)


@PROPERTY
@given(st.integers(0, 5), coeffs)
def test_binomial_integer_exponent_is_repeated_product(a, c):
    power = BorelSeries.one(W)
    for _ in range(a):
        power = power * one_plus(c)
    assert binomial_series(a, c, W) == power


@PROPERTY
@given(coeffs)
def test_sqrt_squares_back(c):
    root = binomial_series(Fraction(1, 2), c, W)
    assert root * root == one_plus(c)


@PROPERTY
@given(coeffs)
def test_inverse_is_two_sided(c):
    one, inverse = BorelSeries.one(W), binomial_series(-1, c, W)
    assert one_plus(c) * inverse == one
    assert inverse * one_plus(c) == one


@PROPERTY
@given(x_series(coeffs), x_series(coeffs))
def test_derivative_leibniz_rule(f, g):
    # X d/dX keeps every coefficient up to the bound, so both sides agree at W
    lhs = (f * g).x_derivative()
    rhs = f.x_derivative() * g + f * g.x_derivative()
    assert lhs.weight_bound == rhs.weight_bound == W
    assert lhs == rhs
