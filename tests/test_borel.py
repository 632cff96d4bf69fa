import operator
import random
from fractions import Fraction

import pytest

from ospq.scalars import Scalar, rat, P, HALF, SQRT2
from ospq import borel, scalars
from ospq.checks import CheckConfig, run_checks
from ospq.freealg import GradedTensor, TensorElement
from ospq.borel import (BorelSeries, BorelTensor, exp_sigma, exp_minus_sigma,
                        one_plus_px)

W = 12  # enough weight for every identity below; acceptance uses 16


def test_sqrt_series_binomial():
    es = exp_sigma(8)
    assert es.coefficient((0, 0, 0)) == Scalar.one()
    assert es.coefficient((0, 0, 1)) == HALF * P
    assert es.coefficient((0, 0, 2)) == rat(Fraction(-1, 8)) * P * P
    assert es.coefficient((0, 0, 3)) == rat(Fraction(1, 16)) * P ** 3


def test_sqrt_inverse_roundtrip():
    es = exp_sigma(16)
    assert es * es == one_plus_px(16)
    assert es * exp_minus_sigma(16) == BorelSeries.one(16)


def test_sqrt_square_roundtrip_random():
    rng = random.Random(2)
    for _ in range(10):
        f = BorelSeries.in_x(12, {0: Scalar.one(),
                                  **{n: rat(rng.randint(-3, 3)) * P ** rng.randint(0, 2)
                                     for n in range(1, 5)}})
        assert f.sqrt() * f.sqrt() == f
        g = f * f
        assert g.sqrt() == f or g.sqrt() == -f


def test_inverse_of_one():
    one = BorelSeries.one(12)
    assert one.inverse() == one


def test_sqrt_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        BorelSeries.in_x(12, {1: P}).sqrt()


def test_x_slice_operations_reject_v_and_h_terms():
    for f in (BorelSeries.v(12), BorelSeries.h(12),
              BorelSeries.one(12) + BorelSeries.h(12).scale(P),
              one_plus_px(12) + BorelSeries.v(12)):
        for op in (f.inverse, f.sqrt, f.x_derivative):
            with pytest.raises(ValueError):
                op()


def test_derivative():
    f = one_plus_px(12) * one_plus_px(12)
    assert f.x_derivative() == BorelSeries.in_x(12, {1: rat(2) * P, 2: rat(2) * P * P})
    # n c_n on X^n up to the full bound, with no term beyond it
    g = BorelSeries.in_x(12, {n: P ** n for n in range(7)})
    assert g.x_derivative().terms() == [((0, 0, n), rat(n) * P ** n) for n in range(1, 7)]


def test_borel_defining_relations_hold():
    for name in borel.BOREL_RELATIONS:
        assert borel.borel_relation_defect(name, W).is_zero


def test_normal_ordering_examples():
    h, v, x = BorelSeries.h(W), BorelSeries.v(W), BorelSeries.x(W)
    assert x * h == h * x - x
    assert v * h == h * v - v.scale(HALF)
    assert v * v == x.scale(rat(Fraction(1, 4)))
    assert x * v == v * x


def test_product_association_exhaustive_low_weight():
    monos = [(e, m, n) for e in (0, 1) for m in (0, 1, 2) for n in (0, 1, 2)
             if e + 2 * n <= 6]
    rng = random.Random(6)
    for _ in range(40):
        a, b, c = (BorelSeries(W, {rng.choice(monos): Scalar.one()}) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_truncation_is_a_quotient():
    x = BorelSeries.x(8)
    v = BorelSeries.v(8)
    big = (x * x * x * x) * x  # weight 10 > 8 dies
    assert big.is_zero
    assert (v * x * x * x * x).is_zero  # weight 9 > 8


def test_ansatz_particular():
    f = borel.particular_solution(16)
    assert borel.check_ansatz_conditions(f)
    assert f.M == BorelSeries.in_x(16, {0: SQRT2 * P})
    assert f.P == exp_sigma(16) * (rat(2) * P)


def test_ansatz_trivial_and_affine():
    assert borel.check_ansatz_conditions(borel.trivial_solution(16))
    aff = borel.affine_solution(16)
    assert borel.check_ansatz_conditions(aff)
    # the derived square root begins at 2p
    assert aff.N.coefficient((0, 0, 0)) == rat(2) * P


def test_rll_solutions():
    for sol in (borel.particular_solution(W),
                borel.trivial_solution(W),
                borel.affine_solution(W)):
        assert borel.verify_rll_solution(sol, W)


def test_rll_solution_rejects_wrong_family():
    f = borel.particular_solution(W)
    broken = borel.AnsatzFunctions(K=f.K, L=f.L, M=f.M,
                                   N=f.N * rat(3), P=f.P)
    assert not borel.verify_rll_solution(broken, W)


def test_rll_span_equality():
    assert borel.rll_span_matches_relations()


def test_rll_residuals_shape():
    res = borel.rll_residuals()
    for f in res:
        assert f.degree() <= 2


def test_coproduct_square_identity():
    lhs = borel.delta_v(W) * borel.delta_v(W)
    assert lhs == borel.delta_x(W).scale(rat(Fraction(1, 4)))


def test_grouplike_inverse():
    es = exp_sigma(W)
    esi = exp_minus_sigma(W)
    assert BorelTensor.of(es, es) * BorelTensor.of(esi, esi) == BorelTensor.one(2, W)


def test_tensor_constructors_reject_terms_of_the_wrong_arity():
    with pytest.raises(ValueError, match="arity"):
        BorelTensor(2, W, {((0, 0, 0),): Scalar.one()})
    with pytest.raises(ValueError, match="arity"):
        TensorElement(borel.RLL_ALPHABET, 2, {(("A",),): Scalar.one()})


def test_coproduct_homomorphism():
    for name in borel.BOREL_RELATIONS:
        assert borel.coproduct_relation_defect(name, W).is_zero


def test_coassociativity():
    for g in ("exp_sigma", "V", "H"):
        assert borel.coassociativity_defect(g, W).is_zero


def test_counit_axiom():
    for g, (left, right) in borel.counit_defects(W).items():
        assert left.is_zero and right.is_zero


def test_antipode_candidate_satisfies_axioms():
    for g, (left, right) in borel.antipode_axiom_defects(W).items():
        assert left.is_zero and right.is_zero


def test_antipode_candidate_images():
    # the candidate holds the images of v = 2V and h = 2H
    cand = borel.generator_images(W)["antipode"]
    esi = exp_minus_sigma(W)
    v, h = BorelSeries.v(W).scale(rat(2)), BorelSeries.h(W).scale(rat(2))
    assert cand["exp_sigma"] == esi
    assert cand["v"] == -(esi * v)
    assert cand["h"] == -(h * one_plus_px(W)) + BorelSeries.x(W).scale(HALF * P)


def test_truncation_order_prefix_consistency():
    hi = borel.particular_solution(16)
    lo = borel.particular_solution(12)
    for n in range(7):
        assert hi.K.coefficient((0, 0, n)) == lo.K.coefficient((0, 0, n))


def test_dual_relations_count():
    assert len(borel.dual_relations()) == 13


def test_delta_monomial_equals_explicit_product():
    # keys are v^eps h^m X^n, and Delta(v), Delta(h) are twice Delta(V), Delta(H)
    w = 8
    delta = borel._generators(w).images["delta"]
    dv, dh, dx = delta["v"], delta["h"], borel.delta_x(w)
    assert dv == borel.delta_v(w).scale(2) and dh == borel.delta_h(w).scale(2)
    for eps in (0, 1):
        for m in range(4):
            for n in range((w - eps) // 2 + 1):
                expected = BorelTensor.one(2, w)
                for factor in [dv] * eps + [dh] * m + [dx] * n:
                    expected = expected * factor
                assert borel.delta_monomial((eps, m, n), w) == expected
    # a cached tensor changed by its first use would show on the second
    for _ in range(2):
        for g in ("exp_sigma", "V", "H"):
            assert borel.coassociativity_defect(g, w).is_zero


def _leg_keys(tensor):
    return {k for key in tensor._terms for k in key}


def _count_calls(monkeypatch, cls, name):
    calls = [0]
    original = getattr(cls, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)
    monkeypatch.setattr(cls, name, counted)
    return calls


def test_coassociativity_builds_each_leg_coproduct_once(monkeypatch):
    w = 16
    keys = _leg_keys(borel.delta_h(w)) - {(0, 0, 0)}
    borel._generators.cache_clear()
    calls = _count_calls(monkeypatch, BorelTensor, "__mul__")
    assert borel.coassociativity_defect("H", w).is_zero
    assert calls[0] <= len(keys)


def test_antipode_builds_each_leg_image_once(monkeypatch):
    w = 16
    gens = (borel.delta_exp_sigma(w), borel.delta_v(w), borel.delta_h(w))
    terms = sum(len(d._terms) for d in gens)
    keys = set().union(*map(_leg_keys, gens)) - {(0, 0, 0)}
    calls = _count_calls(monkeypatch, BorelSeries, "__mul__")
    defects = borel.antipode_axiom_defects(w)
    assert all(left.is_zero and right.is_zero for left, right in defects.values())
    # one product per leg key for its image, two per term for the axiom
    # sides, and two each in antipode_candidate and delta_h
    assert calls[0] <= len(keys) + 2 * terms + 4


def test_mono_mul_memo_matches_the_product_and_shares_a_tuple():
    w = 24
    keys = [(eps, m, n) for eps in (0, 1) for m in range(4)
            for n in range((w - eps) // 2 + 1)]
    for k1 in keys:
        for k2 in keys:
            if borel._weight(k1) + borel._weight(k2) <= w:
                product = borel._mono_mul(k1, k2)
                assert isinstance(product, tuple)
                assert product == borel._mono_mul.__wrapped__(k1, k2)


def _generator_data(w):
    data = {name: getattr(borel, name)(w)
            for name in ("exp_sigma", "exp_minus_sigma", "exp_minus_two_sigma",
                         "delta_x", "delta_exp_sigma")}
    # delta_v and delta_h halve the cached Delta(v) and Delta(h) on each call
    data["images"] = borel._generators(w).images
    data["relation_defects"] = {name: borel.coproduct_relation_defect(name, w)
                                for name in borel.BOREL_RELATIONS}
    return data


def test_cached_generators_equal_fresh_builds_after_every_check():
    w = 16
    # a cached series or coproduct changed by a check would show on the
    # second run, or against the fresh builds after cache_clear()
    for _ in range(2):
        reports = run_checks("borel-coproduct", CheckConfig(truncation=w))
        assert [r.status for r in reports] == ["pass"] * len(reports)
    cached = _generator_data(w)
    keys = set().union(*map(_leg_keys, cached["images"]["delta"].values()))
    monomials = {key: borel.delta_monomial(key, w) for key in keys}
    borel._generators.cache_clear()
    fresh = _generator_data(w)
    assert all(fresh[name] is not cached[name] for name in cached)
    assert fresh == cached
    assert {key: borel.delta_monomial(key, w) for key in keys} == monomials


def test_one_run_builds_delta_h_once_per_weight(monkeypatch):
    # Delta(H) is built over Q[p] with the other generator images
    built = []
    original = borel.generator_images

    def spy(w):
        built.append(w)
        return original(w)

    monkeypatch.setattr(borel, "generator_images", spy)
    borel._generators.cache_clear()
    try:
        for w in (8, 10):
            reports = run_checks("borel-coproduct", CheckConfig(truncation=w))
            assert [r.status for r in reports] == ["pass"] * len(reports)
        assert built == [8, 10]
    finally:
        borel._generators.cache_clear()


def _lift(value, top):
    """The Scalar element of weight ``top`` whose value at p = 4 is ``value``:
    a term q on a key of weight -wt goes to (q / 4^k) p^k with 2k = top + wt."""
    tensor = isinstance(value, BorelTensor)
    terms = {}
    for key, q in value._terms.items():
        wt = sum(map(borel._weight, key)) if tensor else borel._weight(key)
        k, r = divmod(top + wt, 2)
        assert not r and k >= 0
        terms[key] = Scalar.in_p({k: Fraction(q, 4 ** k)})
    if tensor:
        return BorelTensor(value.arity, value.weight_bound, terms)
    return BorelSeries(value.weight_bound, terms)


def test_at_four_rejects_an_element_that_is_not_homogeneous():
    for element in (BorelSeries.one(W) + BorelSeries.x(W),
                    BorelSeries.x(W).scale(P + rat(1)),
                    BorelTensor.of(BorelSeries.one(W), BorelSeries.one(W) + BorelSeries.v(W))):
        with pytest.raises(ValueError, match="not homogeneous"):
            borel.at_four(element)
    # 1 + pX is homogeneous of weight 0
    assert borel.at_four(one_plus_px(W)) == (0, BorelSeries.in_x(W, {0: 1, 1: 4}))
    assert borel.at_four(BorelSeries.zero(W)) == (None, BorelSeries.zero(W))
    # homogeneous but not integral at p = 4: the paper's V = v/2, and p X / 8
    for element in (BorelSeries.v(W), BorelSeries.x(W).scale(rat(Fraction(1, 8)) * P),
                    BorelTensor.of(BorelSeries.h(W), BorelSeries.one(W))):
        with pytest.raises(ArithmeticError, match="not integral"):
            borel.at_four(element)


def test_generator_images_at_p_4_lift_to_their_scalar_builds():
    w = 16
    values = borel._generators(w).images
    for name, images in borel.generator_images(w).items():
        for g, image in images.items():
            top, value = borel.at_four(image)
            assert value == values[name][g], (name, g)
            assert all(type(c) is int for c in values[name][g]._terms.values())
            assert _lift(value, top) == image, (name, g)


def test_borel_coproduct_checks_multiply_no_scalars(monkeypatch):
    # once the generator images are built over Q[p] and evaluated at p = 4,
    # the five borel-coproduct checks run on ints
    w = 24
    borel._generators(w).images
    products = []
    kernel = scalars._products

    def spy(terms1, terms2):
        products.append((terms1, terms2))
        return kernel(terms1, terms2)

    monkeypatch.setattr(scalars, "_products", spy)
    reports = run_checks("borel-coproduct", CheckConfig(truncation=w))
    assert [r.status for r in reports] == ["pass"] * 5
    assert products == []


def test_doubled_pvv_term_of_delta_h_fails_at_p_4(monkeypatch):
    # a negative control for the checks at p = 4: Delta(H) with its
    # p V e^-sigma ox V e^-2sigma term doubled, so Delta(h) = 2 Delta(H) gains
    # that term twice
    w = 12
    original = borel.generator_images

    def doubled(w):
        images = original(w)
        v = BorelSeries.v(w)
        images["delta"]["h"] = images["delta"]["h"] + BorelTensor.of(
            v * exp_minus_sigma(w), v * borel.exp_minus_two_sigma(w)).scale(rat(2) * P)
        return images

    monkeypatch.setattr(borel, "generator_images", doubled)
    borel._generators.cache_clear()
    try:
        status = {r.name.split(".")[1]: r.status
                  for r in run_checks("borel-coproduct", CheckConfig(truncation=w))}
        assert [n for n in borel.BOREL_RELATIONS
                if not borel.coproduct_relation_defect(n, w).is_zero] == ["HV"]
        assert status["homomorphism"] == status["antipode-candidate"] == "fail"
        # coassociativity alone would not catch it: Delta(H) stays coassociative
        # for any multiple of that term, and the counit kills the term on
        # either leg, since eps(V) = 0
        assert status["coassociativity"] == status["counit-axiom"] == "pass"
    finally:
        borel._generators.cache_clear()


def test_generator_images_and_monomial_products_are_integral():
    # at p = 4 in the basis v, h, X every generator image is integral, and so
    # is every structure constant of the normal ordering
    for w in range(4, 41, 2):
        images = borel._generators(w).images
        for name, by_generator in images.items():
            for g, image in by_generator.items():
                assert all(type(c) is int for c in image._terms.values()), (w, name, g)
    borel._generators.cache_clear()
    w = 40
    keys = [(eps, m, n) for eps in (0, 1) for m in range(4)
            for n in range((w - eps) // 2 + 1)]
    for k1 in keys:
        for k2 in keys:
            if borel._weight(k1) + borel._weight(k2) <= w:
                assert all(type(c) is int for _, c in borel._mono_mul(k1, k2))


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                        "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                        "__pow__", "__rpow__")


def test_borel_coproduct_checks_do_no_fraction_arithmetic(monkeypatch):
    # after the generator build, the five checks add and multiply ints only
    w = 24
    borel._generators.cache_clear()
    borel._generators(w).images
    used = []
    for name in _FRACTION_ARITHMETIC:
        original = getattr(Fraction, name)

        def spy(*args, _name=name, _original=original):
            used.append(_name)
            return _original(*args)
        monkeypatch.setattr(Fraction, name, spy)
    try:
        reports = run_checks("borel-coproduct", CheckConfig(truncation=w))
    finally:
        monkeypatch.undo()
    assert [r.status for r in reports] == ["pass"] * 5
    assert used == []


def test_one_run_multiplies_delta_v_by_delta_v_once(monkeypatch):
    # square-identity and homomorphism share Delta(v) Delta(v) through the
    # word memo of the coproduct
    w = 16
    borel._generators.cache_clear()
    dv = borel._generators(w).images["delta"]["v"]._terms
    squares = []
    original = GradedTensor.__mul__

    def spy(self, other):
        if isinstance(other, BorelTensor) and self._terms == other._terms == dv:
            squares.append(self)
        return original(self, other)

    monkeypatch.setattr(GradedTensor, "__mul__", spy)
    try:
        reports = run_checks("borel-coproduct", CheckConfig(truncation=w))
        assert [r.status for r in reports] == ["pass"] * 5
        assert len(squares) == 1
    finally:
        monkeypatch.undo()
        borel._generators.cache_clear()


def test_combining_two_weight_bounds_raises():
    # the series and tensors of one computation share their bound
    binary = (operator.add, operator.sub, operator.mul, operator.eq)
    for a, b in ((BorelSeries.x(12), BorelSeries.x(10)),
                 (BorelTensor.one(2, 12), BorelTensor.one(2, 10))):
        for op in binary:
            with pytest.raises(ValueError, match="weight bounds"):
                op(a, b)
    with pytest.raises(ValueError, match="weight bounds"):
        BorelTensor.of(BorelSeries.x(12), BorelSeries.x(10))


@pytest.mark.parametrize("name, g", [("delta", "h"), ("antipode", "X")])
def test_hopf_images_must_keep_the_weight(monkeypatch, name, g):
    # a negative control for deciding at p = 4: an image scaled by p weighs 2
    # more than its generator
    w = 12
    borel._generators.cache_clear()
    tops = {x: borel.at_four(image)[0]
            for x, image in borel.generator_images(w)["id"].items()}
    assert tops == {"1": 0, "exp_sigma": 0, "v": -1, "h": 0, "X": -2}
    original = borel.generator_images

    def scaled(w):
        images = original(w)
        images[name][g] = images[name][g].scale(P)
        return images

    monkeypatch.setattr(borel, "generator_images", scaled)
    try:
        with pytest.raises(ValueError, match="does not keep the Borel weight"):
            borel._generators(w).images
    finally:
        borel._generators.cache_clear()


def test_perturbed_v_h_constant_fails_the_homomorphism_check(monkeypatch):
    # a negative control on a structure constant: v h = (h - 2) v in place of
    # (h - 1) v, i.e. h v = v (h + 2).  _mono_mul passes the shift of h^m1
    # past v^e2 as e2 plus an even number, so adding e2 again doubles it.
    w = 12
    original = borel._h_shift_poly

    def perturbed(m1, s1, m2, s2):
        return original(m1, s1 + s1 % 2, m2, s2)

    monkeypatch.setattr(borel, "_h_shift_poly", perturbed)
    borel._mono_mul.cache_clear()
    borel._generators.cache_clear()
    try:
        reports = {r.name: r for group in ("borel-coproduct", "borel-ansatz")
                   for r in run_checks(group, CheckConfig(truncation=w))}
        homomorphism = reports["borel-coproduct.homomorphism"]
        assert homomorphism.status == "fail"
        assert homomorphism.details == "failing relations: ['HV']"
        assert [n for n in borel.BOREL_RELATIONS
                if not borel.coproduct_relation_defect(n, w).is_zero] == ["HV"]
        # the ansatz substitutes V = v/2 and H = h/2 through the same product
        assert reports["borel-ansatz.solutions-satisfy-relations"].status == "fail"
    finally:
        monkeypatch.undo()
        borel._mono_mul.cache_clear()
        borel._generators.cache_clear()
