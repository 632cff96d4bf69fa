"""Fixed-seed property tests for Scalar, the ring Q(sqrt2)[p].

Random scalars are sums of up to four terms (a + b*s) * p^i with small
exponents, built through the public constructors only.
"""

from fractions import Fraction
from operator import mul

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ospq.scalars import Scalar, P, rat, SQRT2, format_scalar
from ospq.freealg import SuperPoly
from ospq.serialize import format_matrix, format_poly, parse_matrix, parse_poly
from ospq.supermatrix import SuperMatrix
from ospq import frt

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
units = st.builds(lambda a, b: rat(a) + rat(b) * SQRT2, fractions, fractions).filter(bool)
monomials = st.integers(0, 4).map(lambda k: P ** k)
terms = st.builds(mul, units, monomials)
scalars = st.lists(terms, max_size=4).map(lambda ts: sum(ts, Scalar.zero()))
nonzero_scalars = scalars.filter(bool)
values = st.dictionaries(st.just("p"), fractions, max_size=1)


@PROPERTY
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a - a == Scalar.zero() and a * Scalar.one() == a


@PROPERTY
@given(scalars)
def test_sqrt2_squares_to_two(a):
    assert SQRT2 * SQRT2 == rat(2)
    assert (a * SQRT2) * SQRT2 == a * rat(2)


@PROPERTY
@given(scalars, scalars, values)
def test_substitute_is_a_ring_map(a, b, vals):
    assert (a + b).substitute(**vals) == a.substitute(**vals) + b.substitute(**vals)
    assert (a * b).substitute(**vals) == a.substitute(**vals) * b.substitute(**vals)
    assert Scalar.one().substitute(**vals) == Scalar.one()
    assert SQRT2.substitute(**vals) == SQRT2


@PROPERTY
@given(scalars, nonzero_scalars)
def test_divide_exact_inverts_multiplication(a, b):
    assert (a * b).divide_exact(b) == a


@PROPERTY
@given(units)
def test_unit_inverse_of_nonzero_constants(u):
    assert u * u.unit_inverse() == Scalar.one()
    assert rat(1) / u == u.unit_inverse()


words = st.lists(st.sampled_from(frt.ALPHABET.letters), max_size=3).map(tuple)
polys = st.dictionaries(words, scalars, max_size=4).map(
    lambda t: SuperPoly(frt.ALPHABET, t))


@PROPERTY
@given(polys)
def test_parse_inverts_format(f):
    assert parse_poly(frt.ALPHABET, format_poly(f)) == f


@PROPERTY
@given(st.lists(polys, min_size=9, max_size=9))
def test_parse_matrix_inverts_format_matrix(entries):
    m = SuperMatrix(frt.ALPHABET, [entries[i:i + 3] for i in (0, 3, 6)])
    assert parse_matrix(frt.ALPHABET, format_matrix(m)) == m


@PROPERTY
@given(terms, words.filter(bool))
def test_one_monomial_coefficient_is_not_parenthesized(c, word):
    # c * word is written as format_scalar(c) followed by the word, so a
    # coefficient a + b*s times one monomial carries one pair of parentheses
    if c == rat(1) or c == rat(-1):
        return
    f = SuperPoly.word(frt.ALPHABET, word, c)
    assert format_poly(f) == format_scalar(c) + "*" + "*".join(word)
