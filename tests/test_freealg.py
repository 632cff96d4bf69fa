import random

import pytest

from ospq.scalars import Scalar, rat, P
from ospq.freealg import GradedAlphabet, SuperPoly, TensorElement, extend
from ospq.frt import ALPHABET


def w(*letters):
    return SuperPoly.word(ALPHABET, letters)


def test_product_is_concatenation():
    assert w("a") * w("b") == w("a", "b")


def test_no_auto_reordering_in_the_free_algebra():
    f = (w("a") + w("al")) * (w("a") - w("al"))
    expected = (w("a", "a") - w("a", "al") + w("al", "a") - w("al", "al"))
    assert f == expected


def test_odd_square_stays_a_word():
    assert w("de") * w("de") == w("de", "de")


def test_grade_queries():
    assert w("al", "de").grade() == 0
    assert w("al", "c").grade() == 1
    with pytest.raises(ValueError):
        (w("a") + w("al")).grade()


def _random_poly(rng, alphabet, max_deg=3, nterms=3):
    out = SuperPoly.zero(alphabet)
    for _ in range(rng.randint(1, nterms)):
        word = tuple(rng.choice(alphabet.letters) for _ in range(rng.randint(0, max_deg)))
        coeff = rat(rng.randint(-4, 4)) + rat(rng.randint(-2, 2)) * P
        out = out + SuperPoly.word(alphabet, word, coeff)
    return out


def test_product_bilinear_associative():
    rng = random.Random(11)
    for _ in range(25):
        f, g, h = (_random_poly(rng, ALPHABET) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_tensor_koszul_sign():
    one = SuperPoly.one(ALPHABET)
    al = w("al")
    t1 = TensorElement.of(one, al)
    t2 = TensorElement.of(al, one)
    assert t1 * t2 == TensorElement.of(al, al).scale(rat(-1))


def test_tensor_even_legs_sign_free():
    one = SuperPoly.one(ALPHABET)
    t1 = TensorElement.of(w("a"), one)
    t2 = TensorElement.of(one, w("b"))
    assert t1 * t2 == TensorElement.of(w("a"), w("b"))


def test_tensor_mixing_arities_rejected():
    one = SuperPoly.one(ALPHABET)
    t2 = TensorElement.of(one, one)
    t3 = TensorElement.of(one, one, one)
    with pytest.raises(ValueError):
        _ = t2 * t3


def test_tensor_associativity_random():
    rng = random.Random(23)
    for _ in range(10):
        legs = [_random_poly(rng, ALPHABET, max_deg=1, nterms=2) for _ in range(6)]
        t1 = TensorElement.of(legs[0], legs[1])
        t2 = TensorElement.of(legs[2], legs[3])
        t3 = TensorElement.of(legs[4], legs[5])
        assert (t1 * t2) * t3 == t1 * (t2 * t3)


def test_even_even_product_sign_free():
    rng = random.Random(5)
    evens = ["a", "b", "c", "d"]
    for _ in range(10):
        u = tuple(rng.choice(evens) for _ in range(2))
        v = tuple(rng.choice(evens) for _ in range(2))
        t1 = TensorElement.of(w(*u), w(*v))
        t2 = TensorElement.of(w(*v), w(*u))
        prod = t1 * t2
        key = (u + v, v + u)
        assert prod._terms[key] == Scalar.one()


def test_substitute_letters_is_algebra_map():
    images = {"a": w("a") + w("b"), "b": w("b", "b")}
    f = w("a", "b") + w("b")
    g = w("a")
    lhs = (f * g).substitute_letters(images)
    rhs = f.substitute_letters(images) * g.substitute_letters(images)
    assert lhs == rhs


# one even and two odd letters, so words with two odd letters occur
UVW = GradedAlphabet(("u", "v", "w"), {"u": 0, "v": 1, "w": 1})


def _uvw(*terms):
    return SuperPoly(UVW, {tuple(word): rat(c) + rat(d) * P for word, c, d in terms})


UVW_IMAGES = {"u": _uvw(("uu", 1, 0), ("vw", 0, 1)),
              "v": _uvw(("w", 1, 0), ("uv", 2, 0)),
              "w": _uvw(("v", -1, 0), ("wu", 0, 1))}


def _product(factors):
    out = SuperPoly.one(UVW)
    for f in factors:
        out = out * f
    return out


@pytest.mark.parametrize("graded", [False, True])
def test_extend_is_the_ordered_or_reversed_signed_product(graded):
    calls = []

    def image(x):
        calls.append(x)
        return UVW_IMAGES[x]
    ext = extend(image, SuperPoly.one(UVW), UVW.grades if graded else None)
    words = UVW.words_up_to(4)  # vw, wv, vwu, vuw, vvww, ... included
    for word in words:
        factors = [UVW_IMAGES[x] for x in word]
        if not graded:
            assert ext.word(word) == _product(factors)
            continue
        sign = sum(UVW.grades[word[i]] * UVW.grades[word[j]]
                   for i in range(len(word)) for j in range(i + 1, len(word)))
        expected = _product(reversed(factors))
        assert ext.word(word) == (-expected if sign % 2 else expected)
    # each nonempty word is built once, with one image and one product
    assert len(calls) == len(words) - 1
    # two odd letters: S(vw) = -S(w) S(v)
    if graded:
        assert ext.word(("v", "w")) == -(UVW_IMAGES["w"] * UVW_IMAGES["v"])
    # linear over elements
    f = _uvw(("vw", 2, 1), ("u", -1, 0), ("", 3, 0))
    assert ext(f) == (ext.word(("v", "w")).scale(rat(2) + P) - ext.word(("u",))
                      + SuperPoly.one(UVW).scale(rat(3)))


def test_word_key_orders_by_weight_then_length():
    key = ALPHABET.word_key
    assert key(("c", "al")) > key(("al", "c")) or key(("c", "al")) < key(("al", "c"))
    # c has weight 1, a weight 2: the square of c is lighter than a single a pair
    assert key(("c", "c")) < key(("a", "a"))
    assert key(("c", "a")) > key(("c", "c"))


def _spliced_map_leg(t, leg, fn):
    """map_leg as one-leg tensors spliced by expand_leg: the reference."""
    return t.expand_leg(leg, lambda x: t._like({(k,): c for k, c in fn(x)._terms.items()}, 1),
                        t.arity)


def test_map_leg_builds_no_one_leg_tensor_and_matches_the_splice(monkeypatch):
    from ospq import classical, frt
    hopf, at2 = frt.hopf_maps(), frt.presentation().at2
    r = classical.r3(Scalar.one()).tensor()
    cases = [(hopf.images["delta"]["b"], at2.nf_word),
             (hopf.delta(SuperPoly.word(ALPHABET, ("b", "c"), 1)), at2.nf_word),
             (classical._schouten(r, r, 0), classical.PBW.nf_word)]
    references = [[_spliced_map_leg(t, leg, fn) for leg in range(t.arity)]
                  for t, fn in cases]
    arities = []
    init = TensorElement.__init__

    def spy(self, alphabet, arity, terms=None, _internal=False):
        arities.append(arity)
        init(self, alphabet, arity, terms, _internal)

    monkeypatch.setattr(TensorElement, "__init__", spy)
    mapped = [[t.map_leg(leg, fn) for leg in range(t.arity)] for t, fn in cases]
    assert 1 not in arities and len(arities) == 7
    assert mapped == references
    assert all(ref._terms for refs in references for ref in refs)
