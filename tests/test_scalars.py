import random
from fractions import Fraction

import pytest

from ospq.scalars import Scalar, rat, P, HALF, SQRT2, format_scalar, _accumulate
from ospq.freealg import SCALAR_ALPHABET, GradedAlphabet, SuperPoly, TensorElement
from ospq.borel import BorelSeries, ExactBorel, ExactBorelTensor


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == rat(2)


def test_half_p_times_two_is_p():
    assert (P * HALF) * rat(2) == P


def test_integral_coefficients_are_ints_equal_to_their_fractions():
    # a one-term product with an integral coefficient stores an int, which
    # compares, hashes and prints as the Scalar built from a Fraction
    for value, stored in (((P * HALF) * rat(2), P), (SQRT2 * SQRT2, rat(2)),
                          (rat(Fraction(-6, 3)), rat(-2))):
        (coeff,) = value._terms.values()
        assert type(coeff) is int
        reference = Scalar({key: Fraction(c) for key, c in stored._terms.items()})
        assert value == reference and hash(value) == hash(reference)
        assert format_scalar(value) == format_scalar(reference)
    assert type((P * HALF)._terms[(1, 0)]) is Fraction
    assert rat(3).as_rational() == 3 and type(rat(3).as_rational()) is Fraction


def test_eval_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(50):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert (a + b).substitute(p=q) == a.substitute(p=q) + b.substitute(p=q)
        assert (a * b).substitute(p=q) == a.substitute(p=q) * b.substitute(p=q)


def test_eval_example():
    val = (P * P * HALF).substitute(p=2)
    assert val == rat(2)


def _random_scalar(rng):
    out = Scalar.zero()
    for _ in range(rng.randint(0, 4)):
        term = rat(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        term = term * P ** rng.randint(0, 3)
        if rng.random() < 0.3:
            term = term * SQRT2
        out = out + term
    return out


def test_division_by_rationals_only():
    assert (P * rat(2)) / 2 == P
    with pytest.raises(ValueError):
        _ = P / P


def test_exact_division():
    f = P * P * rat(4) + P * P * P * rat(2)
    assert f.divide_exact(P * rat(2)) == P * rat(2) + P * P
    with pytest.raises(ValueError):
        (P + rat(1)).divide_exact(P)


def test_unit_inverse_in_quadratic_extension():
    u = rat(1) + SQRT2
    assert u * u.unit_inverse() == rat(1)
    with pytest.raises(ValueError):
        P.unit_inverse()


def test_sqrt_perfect_squares():
    assert (P * P * rat(4)).sqrt() == P * rat(2)
    assert (P * P * rat(2)).sqrt() == SQRT2 * P
    assert Scalar.zero().sqrt() == Scalar.zero()
    f = (P + rat(1)) * (P + rat(1))
    assert f.sqrt() == P + rat(1)
    with pytest.raises(ValueError):
        (P + rat(1)).sqrt()


def test_substitute_extra_symbols():
    # p is the only variable: any other name is rejected, and no name at all
    # is the identity
    f = P * P * SQRT2 + rat(3)
    for name in ("x", "y", "z", "t", "s"):
        with pytest.raises(ValueError, match="only p"):
            f.substitute(**{name: 3})
        with pytest.raises(ValueError, match="only p"):
            f.substitute(p=1, **{name: 3})
    assert f.substitute() == f
    assert f.substitute(p=0) == rat(3)
    poly = SuperPoly.one(SCALAR_ALPHABET).scale(f)
    assert poly.substitute_parameter() == poly


def test_format():
    assert format_scalar(P * P * HALF) == "1/2*p^2"
    assert format_scalar(SQRT2 * P) == "s*p"
    assert format_scalar(rat(1) - P) == "-p + 1" or format_scalar(rat(1) - P) == "1 - p"
    assert format_scalar(Scalar.zero()) == "0"


def test_hash_consistency():
    a = P * HALF + rat(3)
    b = rat(3) + HALF * P
    assert a == b and hash(a) == hash(b)


# -- the accumulate-and-prune kernel ------------------------------------

def _reference_sum_loop(pairs, out):
    """The per-container loop the kernel replaced, kept as the order reference."""
    for k, c in pairs:
        cur = out.get(k)
        s = cur + c if cur is not None else c
        if s.is_zero:
            if cur is not None:
                del out[k]
        else:
            out[k] = s
    return out


def _cancelling_stream(rng, nkeys=6, length=60):
    """(key, Scalar) pairs where most terms are later cancelled, some re-added."""
    pairs = []
    live = []
    for _ in range(length):
        roll = rng.random()
        if live and roll < 0.45:
            k, c = live.pop(rng.randrange(len(live)))
            pairs.append((k, -c))
        elif pairs and roll < 0.6:
            pairs.append(rng.choice(pairs))
        else:
            k = rng.randrange(nkeys)
            c = _random_scalar(rng)
            pairs.append((k, c))
            live.append((k, c))
    return pairs


def _naive_sum(pairs):
    sums = {}
    for k, c in pairs:
        sums[k] = sums.get(k, Scalar.zero()) + c
    return {k: c for k, c in sums.items() if not c.is_zero}


def test_accumulate_matches_naive_sum_and_reference_order():
    rng = random.Random(2024)
    for _ in range(200):
        pairs = _cancelling_stream(rng)
        got = _accumulate(iter(pairs))
        assert got == _naive_sum(pairs)
        assert all(not c.is_zero for c in got.values())
        assert list(got) == list(_reference_sum_loop(pairs, {}))
        start = _naive_sum(_cancelling_stream(rng))
        into = _accumulate(pairs, dict(start))
        assert list(into) == list(_reference_sum_loop(pairs, dict(start)))
        assert into == _naive_sum(list(start.items()) + pairs)


def test_accumulate_readds_a_cancelled_key_at_the_end():
    a, b = P, rat(3)
    out = _accumulate([("u", a), ("v", b), ("u", -a), ("w", b), ("u", a)])
    assert list(out) == ["v", "w", "u"]
    assert out == {"v": b, "w": b, "u": a}
    target = {"u": a}
    assert _accumulate([("u", -a)], target) is target and target == {}


def test_accumulate_zero_test_is_truthiness():
    assert _accumulate([(0, 2), (1, 0), (0, -2), (2, 5)]) == {2: 5}
    half = Fraction(1, 2)
    out = _accumulate([("x", half), ("y", half), ("x", -half)])
    assert list(out) == ["y"] and out["y"] == half


def _container_makers():
    """(name, random key, constructor from a term dict) for every sparse container."""
    alphabet = GradedAlphabet(("u", "v"), {"u": 0, "v": 1})
    words = [(), ("u",), ("v",), ("u", "v"), ("v", "u")]

    def mono(rng):
        return (rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 2))

    return [
        ("SuperPoly", lambda rng: rng.choice(words),
         lambda t: SuperPoly(alphabet, t)),
        ("TensorElement", lambda rng: (rng.choice(words), rng.choice(words)),
         lambda t: TensorElement(alphabet, 2, t)),
        ("BorelSeries", mono, lambda t: BorelSeries(8, t)),
        ("ExactBorel", mono, ExactBorel),
        ("ExactBorelTensor", lambda rng: (mono(rng), mono(rng)),
         lambda t: ExactBorelTensor(2, t)),
    ]


def _stored(x):
    for attr in ("_terms", "terms"):
        terms = getattr(x, attr, None)
        if isinstance(terms, dict):
            return terms
    raise AssertionError(f"no term dict on {type(x).__name__}")


def test_containers_store_no_zero_coefficients():
    rng = random.Random(11)
    for name, key, make in _container_makers():
        for _ in range(30):
            tx = {key(rng): _random_scalar(rng) for _ in range(5)}
            # y cancels half of x exactly and overlaps it elsewhere
            ty = {k: -c for k, c in list(tx.items())[::2]}
            ty.update({key(rng): _random_scalar(rng) for _ in range(3)})
            x, y = make(tx), make(ty)
            assert _stored(x - x) == {}, name
            total = _stored(x + y)
            assert all(not c.is_zero for c in total.values()), name
            assert total == _naive_sum(list(_stored(x).items())
                                       + list(_stored(y).items())), name
