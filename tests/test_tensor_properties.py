"""Fixed-seed property tests for the graded products.

SuperPoly is a ring; TensorElement, BorelTensor (at weight <= 8) and the
graded Kronecker product ``kron`` are associative and obey the Koszul rule
(x ox y)(u ox v) = (-1)^{|y||u|} xu ox yv on homogeneous factors.  Both
element tensors run the one product of ``freealg.GradedTensor``, each with
its own leg keys, so these properties test that product on words and on
truncated Borel monomials.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ospq.scalars import Scalar, rat, P
from ospq.freealg import GradedAlphabet, SuperPoly, TensorElement, SCALAR_ALPHABET
from ospq.borel import BorelSeries, BorelTensor
from ospq.supermatrix import SuperMatrix, entry_grade, kron

W = 8
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


# -- BorelTensor --------------------------------------------------------

@st.composite
def borel_series(draw, grade=None):
    """A series at weight W; with ``grade`` every term has V-exponent grade."""
    eps = st.integers(0, 1) if grade is None else st.just(grade)
    key = st.tuples(eps, st.integers(0, 2), st.integers(0, W // 2)).filter(
        lambda k: k[0] + 2 * k[2] <= W)
    return BorelSeries(W, draw(st.dictionaries(key, coeffs, min_size=1,
                                               max_size=3)))


borel_tensors = st.lists(st.tuples(borel_series(), borel_series()), min_size=1,
                         max_size=2).map(
    lambda pairs: sum((BorelTensor.of(x, y) for x, y in pairs[1:]),
                      BorelTensor.of(*pairs[0])))


@PROPERTY
@given(borel_tensors, borel_tensors, borel_tensors)
def test_borel_tensor_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(st.data(), grades, grades)
def test_borel_tensor_koszul_rule(data, gy, gu):
    x, v = data.draw(borel_series()), data.draw(borel_series())
    y, u = data.draw(borel_series(gy)), data.draw(borel_series(gu))
    lhs = BorelTensor.of(x, y) * BorelTensor.of(u, v)
    assert lhs == signed(gy * gu, BorelTensor.of(x * u, y * v))


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
