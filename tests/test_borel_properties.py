"""Fixed-seed property tests for the Borel series algebra at weight <= 8."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ospq.scalars import rat, P, SQRT2
from ospq.borel import BorelSeries

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


unit_x_series = x_series(st.sampled_from([rat(1), rat(-2), rat("1/3")]))
square_x_series = x_series(st.sampled_from([rat(1), rat(4), rat("1/9")]))


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


@PROPERTY
@given(square_x_series)
def test_sqrt_squares_back(f):
    root = f.sqrt()
    assert root * root == f


@PROPERTY
@given(unit_x_series)
def test_inverse_is_two_sided(f):
    one = BorelSeries.one(W)
    assert f * f.inverse() == one
    assert f.inverse() * f == one


@PROPERTY
@given(x_series(coeffs), x_series(coeffs))
def test_derivative_leibniz_rule(f, g):
    # X d/dX keeps every coefficient up to the bound, so both sides agree at W
    lhs = (f * g).x_derivative()
    rhs = f.x_derivative() * g + f * g.x_derivative()
    assert lhs.weight_bound == rhs.weight_bound == W
    assert lhs == rhs
