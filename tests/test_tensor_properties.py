"""Fixed-seed property tests for the graded products.

SuperPoly is a ring; TensorElement, ExactBorelTensor and the graded Kronecker
product ``kron`` are associative and obey the Koszul rule
(x ox y)(u ox v) = (-1)^{|y||u|} xu ox yv on homogeneous factors.  Both
element tensors run the one product of ``freealg.GradedTensor``, each with
its own leg keys, so these properties test that product on words and on the
monomials v^eps h^m K^n of the exact Borel algebra.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ospq.scalars import Scalar, rat, P
from ospq.freealg import GradedAlphabet, SuperPoly, TensorElement, SCALAR_ALPHABET
from ospq.borel import ExactBorel, ExactBorelTensor
from ospq.supermatrix import SuperMatrix, entry_grade, kron

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=25)

ALPHABET = GradedAlphabet(("u", "v", "w"), {"u": 0, "v": 1, "w": 1})
grades = st.integers(0, 1)
coeffs = st.builds(lambda a, b: rat(a) + rat(b) * P,
                   st.integers(-3, 3), st.integers(-2, 2))
words = st.lists(st.sampled_from(ALPHABET.letters), max_size=3).map(tuple)


def signed(sign, x):
    return x.scale(rat(-1)) if sign else x


# -- SuperPoly ----------------------------------------------------------

polys = st.dictionaries(words, coeffs, max_size=4).map(
    lambda t: SuperPoly(ALPHABET, t))


@st.composite
def homogeneous_polys(draw, grade):
    pool = [w for w in ALPHABET.words_up_to(2) if ALPHABET.grade(w) == grade]
    terms = draw(st.dictionaries(st.sampled_from(pool), coeffs, min_size=1,
                                 max_size=3))
    return SuperPoly(ALPHABET, terms)


@PROPERTY
@given(polys, polys, polys)
def test_superpoly_ring_axioms(a, b, c):
    zero, one = SuperPoly.zero(ALPHABET), SuperPoly.one(ALPHABET)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a - a == zero and a + zero == a
    assert a * one == a == one * a and (a * zero).is_zero


# -- TensorElement ------------------------------------------------------

tensors = st.lists(st.tuples(polys, polys), min_size=1, max_size=2).map(
    lambda pairs: sum((TensorElement.of(x, y) for x, y in pairs[1:]),
                      TensorElement.of(*pairs[0])))


@PROPERTY
@given(tensors, tensors, tensors)
def test_tensor_element_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(st.data(), grades, grades)
def test_tensor_element_koszul_rule(data, gy, gu):
    x, v = data.draw(polys), data.draw(polys)
    y, u = data.draw(homogeneous_polys(gy)), data.draw(homogeneous_polys(gu))
    lhs = TensorElement.of(x, y) * TensorElement.of(u, v)
    assert lhs == signed(gy * gu, TensorElement.of(x * u, y * v))


# -- ExactBorelTensor ---------------------------------------------------

@st.composite
def exact_elements(draw, grade=None):
    """An exact Borel element at p = 1; with ``grade`` every term has
    v-exponent grade."""
    eps = st.integers(0, 1) if grade is None else st.just(grade)
    key = st.tuples(eps, st.integers(0, 2), st.integers(-2, 2))
    return ExactBorel(draw(st.dictionaries(key, st.integers(-3, 3), min_size=1,
                                           max_size=3)))


exact_tensors = st.lists(st.tuples(exact_elements(), exact_elements()), min_size=1,
                         max_size=2).map(
    lambda pairs: sum((ExactBorelTensor.of(x, y) for x, y in pairs[1:]),
                      ExactBorelTensor.of(*pairs[0])))


@PROPERTY
@given(exact_tensors, exact_tensors, exact_tensors)
def test_borel_tensor_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(st.data(), grades, grades)
def test_borel_tensor_koszul_rule(data, gy, gu):
    x, v = data.draw(exact_elements()), data.draw(exact_elements())
    y, u = data.draw(exact_elements(gy)), data.draw(exact_elements(gu))
    lhs = ExactBorelTensor.of(x, y) * ExactBorelTensor.of(u, v)
    assert lhs == signed(gy * gu, ExactBorelTensor.of(x * u, y * v))


# -- kron ---------------------------------------------------------------

SLOTS = [(i, j) for i in range(3) for j in range(3)]


def _matrix(entries):
    rows = [[Scalar.zero()] * 3 for _ in range(3)]
    for (i, j), c in entries.items():
        rows[i][j] = c
    return SuperMatrix.from_scalars(rows, SCALAR_ALPHABET)


matrices = st.dictionaries(st.sampled_from(SLOTS), coeffs, min_size=3,
                           max_size=6).map(_matrix)


def homogeneous_matrices(grade):
    """Constant 3x3 matrices with entries only in the slots of ``grade``."""
    slots = [(i, j) for i, j in SLOTS if entry_grade(3, i + 1, j + 1) == grade]
    return st.dictionaries(st.sampled_from(slots), coeffs, min_size=2,
                           max_size=4).map(_matrix)


@PROPERTY
@given(matrices, matrices, matrices)
def test_kron_is_associative(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


@PROPERTY
@given(st.data(), grades, grades)
def test_kron_mixed_product_rule(data, gb, gc):
    a, d = data.draw(matrices), data.draw(matrices)
    b, c = data.draw(homogeneous_matrices(gb)), data.draw(homogeneous_matrices(gc))
    assert kron(a, b) @ kron(c, d) == signed(gb * gc, kron(a @ c, b @ d))
