import random

import pytest

from ospq.scalars import Scalar, rat, P, SQRT2
from ospq.freealg import SuperPoly
from ospq.serialize import format_poly, parse_poly, format_matrix, parse_matrix, format_series
from ospq import frt, borel


def w(*letters):
    return SuperPoly.word(frt.ALPHABET, letters)


def test_reference_format():
    f = w("a", "b") - w("a", "a").scale(P) + SuperPoly.one(frt.ALPHABET).scale(P)
    assert format_poly(f) == "a*b - p*a*a + p"


def test_terms_sorted_by_monomial_order():
    f = w("c", "c") + w("a", "a")
    # a*a has weight 4, c*c weight 2: heavier first
    assert format_poly(f) == "a*a + c*c"


def test_zero_and_constants():
    assert format_poly(SuperPoly.zero(frt.ALPHABET)) == "0"
    assert format_poly(SuperPoly.one(frt.ALPHABET)) == "1"
    assert format_poly(SuperPoly.one(frt.ALPHABET).scale(rat(-1))) == "-1"


def test_multi_term_coefficients_parenthesized():
    f = w("a").scale(Scalar.one() - P)
    text = format_poly(f)
    assert text.startswith("(")
    assert parse_poly(frt.ALPHABET, text) == f


def test_sqrt2_coefficient():
    f = w("al").scale(SQRT2 * P)
    text = format_poly(f)
    assert "s*p" in text
    assert parse_poly(frt.ALPHABET, text) == f


def _random_poly(rng):
    out = SuperPoly.zero(frt.ALPHABET)
    for _ in range(rng.randint(1, 5)):
        word = tuple(rng.choice(frt.ALPHABET.letters)
                     for _ in range(rng.randint(0, 3)))
        coeff = (rat(rng.randint(-5, 5)) + rat(rng.randint(-2, 2)) * P
                 + rat(rng.randint(0, 1)) * SQRT2)
        out = out + SuperPoly.word(frt.ALPHABET, word, coeff)
    return out


def test_roundtrip_random():
    rng = random.Random(31)
    for _ in range(40):
        f = _random_poly(rng)
        assert parse_poly(frt.ALPHABET, format_poly(f)) == f


def test_parse_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        parse_poly(frt.ALPHABET, "a*q")
    with pytest.raises(ValueError):
        parse_poly(frt.ALPHABET, "a +")
    with pytest.raises(ValueError):
        parse_poly(frt.ALPHABET, "1/0")
    for text in ("a^65", "a^1000000", "p^65*a"):
        with pytest.raises(ValueError, match="exponent"):
            parse_poly(frt.ALPHABET, text)
    for text in ("", "0\n", "-1\n"):
        with pytest.raises(ValueError, match="dimension"):
            parse_matrix(frt.ALPHABET, text)


@pytest.mark.parametrize("name", ["x", "y", "z", "t"])
def test_parse_rejects_the_old_family_parameters(name):
    # the coefficients are Q(sqrt2)[p]: p and s are the only scalar symbols
    for text in (name, f"{name}*a", f"(p + {name})*a", f"{name}^2"):
        with pytest.raises(ValueError, match="unknown symbol"):
            parse_poly(frt.ALPHABET, text)
    assert parse_poly(frt.ALPHABET, "p*s*a") == w("a").scale(P * SQRT2)


def test_matrix_roundtrip():
    t = frt.eliminated_matrix()
    text = format_matrix(t)
    back = parse_matrix(frt.ALPHABET, text)
    assert back == t
    assert text.splitlines()[0] == "3"


def test_matrix_roundtrip_r():
    r = frt.quantum_r_matrix()
    text = format_matrix(r)
    from ospq.freealg import SCALAR_ALPHABET
    assert parse_matrix(SCALAR_ALPHABET, text) == r


def test_series_format():
    s = borel.exp_sigma(8)
    text = format_series(s)
    assert text.splitlines()[0] == "0 0 0 : 1"
    assert "0 0 1 : 1/2*p" in text


def test_parse_accepts_every_exponent_the_export_writes():
    # --export writes exponents up to 9; the bound of 64 is itself accepted
    assert parse_poly(frt.ALPHABET, "a^9") == SuperPoly.word(frt.ALPHABET, ("a",) * 9)
    assert parse_poly(frt.ALPHABET, "p^9*c") == w("c").scale(P ** 9)
    assert parse_poly(frt.ALPHABET, "c^64").degree() == 64
