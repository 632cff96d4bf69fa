"""Fixed-seed property tests for the Hopf maps of the 6-letter algebra.

The coproduct ``delta`` of ``frt.hopf_maps()`` and ``frt.counit`` extend
their values on the generators as algebra maps, and its ``antipode`` as a
graded anti-homomorphism; the coproduct and antipode images of the
generators are taken at p = 2.  These properties hold already in the free
algebra, before any reduction and for any generator images, so they are
checked on random Z2-homogeneous polynomials f and g there, with Scalar
coefficients:

    Delta(fg) = Delta(f) Delta(g)   (the Koszul product of the tensor square)
    eps(fg) = eps(f) eps(g)
    S(fg) = (-1)^{|f||g|} S(g) S(f)
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ospq import frt
from ospq.scalars import rat, P
from ospq.freealg import SuperPoly

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=20)

A = frt.ALPHABET
grades = st.integers(0, 1)
coeffs = st.builds(lambda a, b: rat(a) + rat(b) * P,
                   st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def homogeneous_polys(draw, grade):
    pool = [w for w in A.words_up_to(2) if A.grade(w) == grade]
    terms = draw(st.dictionaries(st.sampled_from(pool), coeffs, min_size=1,
                                 max_size=3))
    return SuperPoly(A, terms)


@PROPERTY
@given(st.data(), grades, grades)
def test_coproduct_is_multiplicative(data, gf, gg):
    f, g = data.draw(homogeneous_polys(gf)), data.draw(homogeneous_polys(gg))
    delta = frt.hopf_maps().delta
    assert delta(f * g) == delta(f) * delta(g)


@PROPERTY
@given(st.data(), grades, grades)
def test_counit_is_multiplicative(data, gf, gg):
    f, g = data.draw(homogeneous_polys(gf)), data.draw(homogeneous_polys(gg))
    assert frt.counit(f * g) == frt.counit(f) * frt.counit(g)


@PROPERTY
@given(st.data(), grades, grades)
def test_antipode_is_a_graded_anti_homomorphism(data, gf, gg):
    f, g = data.draw(homogeneous_polys(gf)), data.draw(homogeneous_polys(gg))
    antipode = frt.hopf_maps().antipode
    expected = antipode(g) * antipode(f)
    assert antipode(f * g) == (-expected if gf and gg else expected)
