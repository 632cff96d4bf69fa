import operator
import random
from fractions import Fraction

import pytest

from ospq.scalars import Scalar, rat, P, HALF, SQRT2
from ospq import borel, scalars
from ospq.checks import CheckConfig, run_checks
from ospq.freealg import GradedTensor, HopfMaps, SuperPoly, TensorElement, extend
from ospq.borel import (BorelSeries, ExactBorel, ExactBorelTensor, exp_sigma,
                        exp_minus_sigma, one_plus_px)

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


ONE = Scalar.one()
UNIT = (0, 0, 0)


def _fresh_hopf():
    """The exact Hopf maps with an empty word memo."""
    borel.hopf_maps.cache_clear()
    return borel.hopf_maps()


def _grid(m_max, n_max):
    return [(e, m, n) for e in (0, 1) for m in range(m_max + 1)
            for n in range(-n_max, n_max + 1)]


def test_exact_product_is_associative_on_a_monomial_grid():
    monos = [ExactBorel({key: 1}) for key in _grid(2, 2)]
    for a in monos:
        for b in monos:
            ab = a * b
            for c in monos:
                assert ab * c == a * (b * c)


def test_exact_normal_ordering_rules():
    hopf = borel.hopf_maps()
    k, k_inv, v, h = (hopf.images["id"][g] for g in ("K", "K^-1", "v", "h"))
    one = hopf.images["id"]["1"]
    assert k * k_inv == one == k_inv * k
    assert k * v == v * k
    assert h * v == v * h + v.scale(2)
    assert v * v == k * k - one
    assert k * h == h * k - k.scale(2) + k_inv.scale(2)


def test_exact_products_take_values_at_p_1():
    # the structure constants are those at p = 1: v v = K^2 - 1 there, while
    # over Q[p] the exact product is (K^2 - 1)/p, so Scalar operands raise
    images = borel.hopf_images()
    v = images["id"]["v"]
    with pytest.raises(ValueError, match="p = 1"):
        v * v
    with pytest.raises(ValueError, match="p = 1"):
        images["delta"]["v"] * images["delta"]["v"]
    v1 = borel.at_one(v)[1]
    k1 = borel.at_one(images["id"]["K"])[1]
    assert v1 * v1 == k1 * k1 - borel.at_one(images["id"]["1"])[1]


def test_coproduct_square_identity():
    lhs = borel.delta_v(W) * borel.delta_v(W)
    assert lhs == borel.delta_x(W).scale(rat(Fraction(1, 4)))
    # p Delta(v)^2 = Delta(K)^2 - 1 ox 1, at p = 1
    delta = borel.hopf_maps().images["delta"]
    assert borel.delta_x(W) == delta["K"] * delta["K"] - delta["1"]


def test_grouplike_inverse():
    es = exp_sigma(W)
    esi = exp_minus_sigma(W)
    assert es * esi == BorelSeries.one(W)
    ids = borel.hopf_maps().images["id"]
    assert (ExactBorelTensor.of(ids["K"], ids["K"]) * ExactBorelTensor.of(ids["K^-1"], ids["K^-1"])
            == ExactBorelTensor.of(ids["1"], ids["1"]))


def test_tensor_constructors_reject_terms_of_the_wrong_arity():
    with pytest.raises(ValueError, match="arity"):
        ExactBorelTensor(2, {(UNIT,): ONE})
    with pytest.raises(ValueError, match="arity"):
        TensorElement(borel.RLL_ALPHABET, 2, {(("A",),): Scalar.one()})


def test_coproduct_homomorphism():
    for name in borel.BOREL_RELATIONS:
        assert borel.coproduct_relation_defect(name, W).is_zero


def _antipode_and_counit_of_relations(hopf):
    """{relation name: (S(rel), eps(rel))} at p = 1, eps extended over words
    as an algebra map."""
    ids = hopf.images["id"]
    counit = extend(lambda g: hopf.counit(ids[g]), 1)
    rels = {name: borel.at_one(borel.borel_relation(name))[1]
            for name in borel.BOREL_RELATIONS}
    return {name: (hopf.antipode(rel), counit(rel)) for name, rel in rels.items()}


def test_antipode_and_counit_map_the_relations_to_zero():
    images = _antipode_and_counit_of_relations(borel.hopf_maps())
    assert list(images) == list(borel.BOREL_RELATIONS)
    assert all(s.is_zero and e == 0 for s, e in images.values())


def test_wrong_antipode_of_v_breaks_the_relations():
    # S(v) = -v K in place of -v K^-1 keeps the weight and the KV relation,
    # but S no longer maps VV and HV to zero
    images = borel.hopf_images()
    images["antipode"]["v"] = ExactBorel({(1, 0, 1): -ONE})
    hopf = HopfMaps(images, borel.at_one, borel.BOREL_ALPHABET.grades,
                    ExactBorel.counit, "Borel", word_of=borel._word)
    bad = _antipode_and_counit_of_relations(hopf)
    assert [name for name, (s, _) in bad.items() if s] == ["VV", "HV"]
    assert all(e == 0 for _, e in bad.values())


def test_coassociativity():
    for g in ("exp_sigma", "V", "H", *borel.BOREL_ALPHABET.letters):
        assert borel.coassociativity_defect(g, W).is_zero


def test_counit_axiom():
    for g, (left, right) in borel.counit_defects(W).items():
        assert left.is_zero and right.is_zero


def test_antipode_candidate_satisfies_axioms():
    hopf = borel.hopf_maps()
    for g in borel.BOREL_ALPHABET.letters:
        left, right = hopf.antipode_defects(g)
        assert left.is_zero and right.is_zero


def _in_series(element, w):
    """An exact element over Q[p] mapped into the series algebra by
    K -> e^sigma, v -> v and h -> 2h."""
    images = borel.generator_images(w)
    word = SuperPoly(borel.BOREL_ALPHABET, {borel._word(k): c for k, c in element._terms.items()})
    return extend(images.__getitem__, BorelSeries.one(w))(word)


def test_antipode_candidate_images():
    # with v = 2V and h = 4H the exact images map to the paper's candidate
    cand = borel.hopf_images()["antipode"]
    esi = exp_minus_sigma(W)
    v, h = BorelSeries.v(W), BorelSeries.h(W)
    assert _in_series(cand["K"], W) == esi
    assert _in_series(cand["v"], W) == -(esi * v).scale(rat(2))
    assert _in_series(cand["h"], W) == (
        -(h * one_plus_px(W)) + BorelSeries.x(W).scale(P * rat(Fraction(1, 4)))).scale(rat(4))


def test_truncation_order_prefix_consistency():
    hi = borel.particular_solution(16)
    lo = borel.particular_solution(12)
    for n in range(7):
        assert hi.K.coefficient((0, 0, n)) == lo.K.coefficient((0, 0, n))


def test_dual_relations_count():
    assert len(borel.dual_relations()) == 13


def test_delta_monomial_equals_explicit_product():
    # keys are v^eps h^m K^n, with Delta(v) twice Delta(V)
    hopf = borel.hopf_maps()
    delta = hopf.images["delta"]
    assert delta["v"] == borel.delta_v().scale(2)
    for eps, m, n in _grid(3, 3):
        expected = delta["1"]
        k = delta["K"] if n >= 0 else delta["K^-1"]
        for factor in [delta["v"]] * eps + [delta["h"]] * m + [k] * abs(n):
            expected = expected * factor
        assert borel.delta_monomial((eps, m, n)) == expected
    # a cached tensor changed by its first use would show on the second
    for _ in range(2):
        for g in borel.BOREL_ALPHABET.letters:
            assert hopf.coassociativity_defect(g).is_zero


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
    hopf = _fresh_hopf()
    keys = _leg_keys(hopf.images["delta"]["h"]) - {UNIT}
    calls = _count_calls(monkeypatch, ExactBorelTensor, "__mul__")
    assert hopf.coassociativity_defect("h").is_zero
    assert calls[0] <= len(keys)


def test_antipode_builds_each_leg_image_once(monkeypatch):
    hopf = _fresh_hopf()
    gens = [hopf.images["delta"][g] for g in borel.BOREL_ALPHABET.letters]
    terms = sum(len(d._terms) for d in gens)
    keys = set().union(*map(_leg_keys, gens)) - {UNIT}
    calls = _count_calls(monkeypatch, ExactBorel, "__mul__")
    for g in borel.BOREL_ALPHABET.letters:
        left, right = hopf.antipode_defects(g)
        assert left.is_zero and right.is_zero
    # at most one product per leg key for its image and two per term for the
    # axiom sides
    assert calls[0] <= len(keys) + 2 * terms


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
    for k1 in _grid(3, 3):
        for k2 in _grid(3, 3):
            product = borel._exact_mul(k1, k2)
            assert isinstance(product, tuple)
            assert product == borel._exact_mul.__wrapped__(k1, k2)


def _clear_caches():
    for cache in (borel.hopf_maps, borel.exp_sigma, borel.exp_minus_sigma):
        cache.cache_clear()


def _generator_data(w):
    data = {name: getattr(borel, name)(w) for name in ("exp_sigma", "exp_minus_sigma")}
    data["images"] = borel.hopf_maps().images
    data["relation_defects"] = {name: borel.coproduct_relation_defect(name)
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
    monomials = {key: borel.delta_monomial(key) for key in keys}
    _clear_caches()
    fresh = _generator_data(w)
    assert all(fresh[name] is not cached[name] for name in cached)
    assert fresh == cached
    assert {key: borel.delta_monomial(key) for key in keys} == monomials


def test_one_run_builds_delta_h_once_per_weight(monkeypatch):
    # Delta(h) is built over Q[p] with the other generator images, once for
    # every weight: the Hopf checks are exact
    built = []
    original = borel.hopf_images

    def spy():
        built.append(1)
        return original()

    monkeypatch.setattr(borel, "hopf_images", spy)
    borel.hopf_maps.cache_clear()
    try:
        for w in (8, 10):
            reports = run_checks("borel-coproduct", CheckConfig(truncation=w))
            assert [r.status for r in reports] == ["pass"] * len(reports)
        assert built == [1]
    finally:
        borel.hopf_maps.cache_clear()


def _lift(value, top):
    """The Scalar element of weight ``top`` whose value at p = 1 is ``value``:
    a term q on a key of weight -eps goes to q p^k with 2k = top + eps."""
    tensor = isinstance(value, ExactBorelTensor)
    terms = {}
    for key, q in value._terms.items():
        eps = sum(k[0] for k in key) if tensor else key[0]
        k, r = divmod(top + eps, 2)
        assert not r and k >= 0
        terms[key] = Scalar.in_p({k: Fraction(q)})
    return value._like(terms) if tensor else ExactBorel(terms)


def test_at_one_rejects_an_element_that_is_not_homogeneous():
    v, k = (1, 0, 0), (0, 0, 1)
    for element in (ExactBorel({UNIT: ONE, v: ONE}),
                    ExactBorel({k: P + rat(1)}),
                    ExactBorelTensor(2, {(UNIT, UNIT): ONE, (UNIT, v): ONE}),
                    SuperPoly.word(borel.BOREL_ALPHABET, ("v", "v")) + SuperPoly.one(
                        borel.BOREL_ALPHABET)):
        with pytest.raises(ValueError, match="not homogeneous"):
            borel.at_one(element)
    # p v v - K^2 + 1 is homogeneous of weight 0
    top, value = borel.at_one(borel.borel_relation("VV"))
    assert top == 0
    assert value._terms == {("v", "v"): 1, ("K", "K"): -1, (): 1}
    assert borel.at_one(ExactBorel({})) == (None, ExactBorel({}))
    # homogeneous but not integral at p = 1: the paper's V = v/2, and p K / 2
    for element in (ExactBorel({v: HALF}), ExactBorel({k: HALF * P}),
                    ExactBorelTensor(2, {((0, 1, 0), UNIT): HALF})):
        with pytest.raises(ArithmeticError, match="not integral"):
            borel.at_one(element)


def test_hopf_images_at_p_1_lift_to_their_scalar_builds():
    values = _fresh_hopf().images
    for name, images in borel.hopf_images().items():
        for g, image in images.items():
            top, value = borel.at_one(image)
            assert value == values[name][g], (name, g)
            assert all(type(c) is int for c in values[name][g]._terms.values())
            assert _lift(value, top) == image, (name, g)


def _precomputed_sanity(monkeypatch, w):
    """Build the series sanity half of borel-coproduct.homomorphism, the one
    part over Q[p], and the exact Hopf maps before a spied run."""
    sanity = {name: borel.borel_relation_defect(name, w) for name in borel.BOREL_RELATIONS}
    monkeypatch.setattr(borel, "borel_relation_defect", lambda name, w: sanity[name])
    _fresh_hopf()


def test_borel_coproduct_checks_multiply_no_scalars(monkeypatch):
    # once the generator images are built over Q[p] and evaluated at p = 1,
    # the Hopf part of the five borel-coproduct checks runs on ints
    w = 24
    _precomputed_sanity(monkeypatch, w)
    products = []
    kernel = scalars._products

    def spy(terms1, terms2):
        products.append((terms1, terms2))
        return kernel(terms1, terms2)

    monkeypatch.setattr(scalars, "_products", spy)
    reports = run_checks("borel-coproduct", CheckConfig(truncation=w))
    assert [r.status for r in reports] == ["pass"] * 5
    assert products == []


def test_doubled_p_term_of_delta_h_fails_the_homomorphism_check(monkeypatch):
    # a negative control for the exact checks: Delta(h) with its
    # p v K^-1 ox v K^-2 term doubled
    original = borel.hopf_images

    def doubled():
        images = original()
        images["delta"]["h"] = images["delta"]["h"] + ExactBorelTensor(
            2, {((1, 0, -1), (1, 0, -2)): P})
        return images

    monkeypatch.setattr(borel, "hopf_images", doubled)
    borel.hopf_maps.cache_clear()
    try:
        status = {r.name.split(".")[1]: r.status
                  for r in run_checks("borel-coproduct", CheckConfig(truncation=W))}
        assert [n for n in borel.BOREL_RELATIONS
                if not borel.coproduct_relation_defect(n).is_zero] == ["HV"]
        assert status["homomorphism"] == status["antipode-candidate"] == "fail"
        # coassociativity alone would not catch it: Delta(h) stays coassociative
        # for any multiple of that term, and the counit kills the term on
        # either leg, since eps(v) = 0
        assert status["coassociativity"] == status["counit-axiom"] == "pass"
    finally:
        monkeypatch.undo()
        borel.hopf_maps.cache_clear()


def test_generator_images_and_monomial_products_are_integral():
    # at p = 1 in the basis v, h = 4H, K every generator image is integral,
    # and so is every structure constant of the exact normal ordering; the
    # series constants are integral in the basis v, h = 2H, X
    for name, by_generator in _fresh_hopf().images.items():
        for g, image in by_generator.items():
            assert all(type(c) is int for c in image._terms.values()), (name, g)
    for k1 in _grid(4, 4):
        for k2 in _grid(4, 4):
            assert all(type(c) is int for _, c in borel._exact_mul(k1, k2))
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
    # after the generator build, the Hopf part of the five checks adds and
    # multiplies ints only
    w = 24
    _precomputed_sanity(monkeypatch, w)
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
    dv = _fresh_hopf().images["delta"]["v"]._terms
    squares = []
    original = GradedTensor.__mul__

    def spy(self, other):
        if isinstance(other, ExactBorelTensor) and self._terms == other._terms == dv:
            squares.append(self)
        return original(self, other)

    monkeypatch.setattr(GradedTensor, "__mul__", spy)
    try:
        reports = run_checks("borel-coproduct", CheckConfig(truncation=16))
        assert [r.status for r in reports] == ["pass"] * 5
        assert len(squares) == 1
    finally:
        monkeypatch.undo()
        borel.hopf_maps.cache_clear()


def test_combining_two_weight_bounds_raises():
    # the series of one computation share their bound
    binary = (operator.add, operator.sub, operator.mul, operator.eq)
    for op in binary:
        with pytest.raises(ValueError, match="weight bounds"):
            op(BorelSeries.x(12), BorelSeries.x(10))
    # the exact tensors have no bound, but share their arity
    one = borel.hopf_maps().images["id"]["1"]
    for op in binary:
        with pytest.raises(ValueError, match="arities"):
            op(ExactBorelTensor.of(one, one), ExactBorelTensor.of(one, one, one))


@pytest.mark.parametrize("name, g", [("delta", "h"), ("antipode", "v")])
def test_hopf_images_must_keep_the_weight(monkeypatch, name, g):
    # a negative control for deciding at p = 1: an image scaled by p weighs 2
    # more than its generator
    tops = {x: borel.at_one(image)[0] for x, image in borel.hopf_images()["id"].items()}
    assert tops == {"1": 0, "K": 0, "K^-1": 0, "v": -1, "h": 0}
    original = borel.hopf_images

    def scaled():
        images = original()
        images[name][g] = images[name][g].scale(P)
        return images

    monkeypatch.setattr(borel, "hopf_images", scaled)
    borel.hopf_maps.cache_clear()
    try:
        with pytest.raises(ValueError, match="does not keep the Borel weight"):
            borel.hopf_maps()
    finally:
        monkeypatch.undo()
        borel.hopf_maps.cache_clear()


def _borel_reports(w):
    return {r.name: r for group in ("borel-coproduct", "borel-ansatz")
            for r in run_checks(group, CheckConfig(truncation=w))}


def test_perturbed_v_h_constant_fails_the_homomorphism_check(monkeypatch):
    # a negative control on a series structure constant: v h = (h - 2) v in
    # place of (h - 1) v, i.e. h v = v (h + 2).  _mono_mul passes the shift of
    # h^m1 past v^e2 as e2 plus an even number, so adding e2 again doubles it;
    # the exact product passes an even shift and is untouched
    w = 12
    original = borel._h_shift_poly

    def perturbed(m1, s1, m2, s2):
        return original(m1, s1 + s1 % 2, m2, s2)

    monkeypatch.setattr(borel, "_h_shift_poly", perturbed)
    borel._mono_mul.cache_clear()
    _clear_caches()
    try:
        reports = _borel_reports(w)
        homomorphism = reports["borel-coproduct.homomorphism"]
        assert homomorphism.status == "fail"
        assert homomorphism.details == "failing relations: ['HV']"
        # the sanity half, in the series algebra, catches it
        assert [n for n in borel.BOREL_RELATIONS
                if not borel.borel_relation_defect(n, w).is_zero] == ["HV"]
        assert not any(borel.coproduct_relation_defect(n) for n in borel.BOREL_RELATIONS)
        # the ansatz substitutes V = v/2 and H = h/2 through the same product
        assert reports["borel-ansatz.solutions-satisfy-relations"].status == "fail"
    finally:
        monkeypatch.undo()
        borel._mono_mul.cache_clear()
        _clear_caches()


def test_perturbed_exact_h_v_constant_fails_the_homomorphism_check(monkeypatch):
    # the exact counterpart: h v = v (h + 4) in place of v (h + 2).  _exact_mul
    # passes the shift of h^m1 past v^e2 as 2 e2, a shift of 2 that the series
    # product never passes, so only the exact algebra changes
    original = borel._h_shift_poly

    def perturbed(m1, s1, m2, s2):
        return original(m1, 4 if s1 == 2 else s1, m2, s2)

    monkeypatch.setattr(borel, "_h_shift_poly", perturbed)
    borel._exact_mul.cache_clear()
    borel.hopf_maps.cache_clear()
    try:
        reports = _borel_reports(W)
        homomorphism = reports["borel-coproduct.homomorphism"]
        assert homomorphism.status == "fail"
        assert homomorphism.details == "failing relations: ['HV']"
        assert [n for n in borel.BOREL_RELATIONS
                if not borel.coproduct_relation_defect(n).is_zero] == ["HV"]
        assert reports["borel-ansatz.solutions-satisfy-relations"].status == "pass"
    finally:
        monkeypatch.undo()
        borel._exact_mul.cache_clear()
        borel.hopf_maps.cache_clear()
