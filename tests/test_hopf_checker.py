"""The shared generator-level Hopf checker, ``freealg.HopfMaps``, on its two
instances: the function algebra at p = 2 (``frt.hopf_maps()``) and the exact
Borel algebra at p = 1 (``borel.hopf_maps()``).

Each check must be able to fail: one generator image is perturbed by a term
of the same weight, so the weight guard still passes, and the check turns to
FAIL through ``run_checks``.
"""

import pytest

from ospq import borel, frt
from ospq.borel import BOREL_ALPHABET
from ospq.checks import CheckConfig, run_checks
from ospq.freealg import SuperPoly, TensorElement
from ospq.scalars import P, Scalar


def _letter(x):
    return SuperPoly.letter(frt.ALPHABET, x)


# (map, generator, the added term of the generator's weight, checks that fail)
FRT_CONTROLS = [
    # c weighs -2, so p c ox c does too
    ("delta", "c", lambda: TensorElement.of(_letter("c"), _letter("c")).scale(P),
     ["hopf.coproduct-homomorphism", "hopf.coassociativity"]),
    # a weighs 0, and so does p a ox c; (eps ox id) leaves p c behind
    ("delta", "a", lambda: TensorElement.of(_letter("a"), _letter("c")).scale(P),
     ["hopf.counit-axiom"]),
    ("antipode", "a", lambda: _letter("c").scale(P),
     ["hopf.antipode-identities", "hopf.square-of-antipode"]),
]

W = 12

# the same on the exact h = 4H, of weight 0, as K^2 - 1 = p v v is
K2_MINUS_1 = {("K", "K"): Scalar.one(), (): -Scalar.one()}
BOREL_CONTROLS = [
    ("delta", "h", lambda: TensorElement(BOREL_ALPHABET, 2, {((), k): c
                                                             for k, c in K2_MINUS_1.items()}),
     ["borel-coproduct.coassociativity", "borel-coproduct.counit-axiom"]),
    ("antipode", "h", lambda: SuperPoly(BOREL_ALPHABET, K2_MINUS_1),
     ["borel-coproduct.antipode-candidate"]),
]


def _ids(controls):
    return [f"{name}-{g}" for name, g, _, _ in controls]


def _failing(group, config):
    reports = run_checks(group, config)
    assert not [r.details for r in reports if r.details.startswith("exception")]
    return {r.name for r in reports if r.status == "fail"}


@pytest.mark.parametrize("name, g, term, checks", FRT_CONTROLS, ids=_ids(FRT_CONTROLS))
def test_perturbed_function_algebra_image_fails(monkeypatch, name, g, term, checks):
    original = frt.generator_images

    def perturbed():
        images = original()
        images[name][g] = images[name][g] + term()
        return images

    monkeypatch.setattr(frt, "generator_images", perturbed)
    # the antipode defects are a stage built on the Hopf maps
    stages = (frt.hopf_maps, frt.antipode_axiom_defects)
    for stage in stages:
        stage.cache_clear()
    try:
        assert set(checks) <= _failing("hopf", CheckConfig())
    finally:
        monkeypatch.undo()
        for stage in stages:
            stage.cache_clear()
    assert not _failing("hopf", CheckConfig())


@pytest.mark.parametrize("name, g, term, checks", BOREL_CONTROLS, ids=_ids(BOREL_CONTROLS))
def test_perturbed_borel_image_fails(monkeypatch, name, g, term, checks):
    original = borel.hopf_images

    def perturbed():
        images = original()
        images[name][g] = images[name][g] + term()
        return images

    monkeypatch.setattr(borel, "hopf_images", perturbed)
    borel.hopf_maps.cache_clear()
    try:
        assert set(checks) <= _failing("borel-coproduct", CheckConfig(truncation=W))
    finally:
        monkeypatch.undo()
        borel.hopf_maps.cache_clear()
    assert not _failing("borel-coproduct", CheckConfig(truncation=W))


@pytest.mark.parametrize("name, g", [("delta", "b"), ("antipode", "c")])
def test_function_algebra_images_must_keep_the_weight(monkeypatch, name, g):
    # an image scaled by p weighs 2 more than its generator
    original = frt.generator_images

    def scaled():
        images = original()
        images[name][g] = images[name][g].scale(P)
        return images

    monkeypatch.setattr(frt, "generator_images", scaled)
    frt.hopf_maps.cache_clear()
    try:
        with pytest.raises(ValueError, match="does not keep the torus weight"):
            frt.hopf_maps()
    finally:
        monkeypatch.undo()
        frt.hopf_maps.cache_clear()


def test_extend_takes_a_letter_to_its_image(monkeypatch):
    # a one-letter word is its image, not its product with the unit: once the
    # generator images are built, a borel-coproduct run, whose coproduct words
    # are all new, multiplies no tensor by 1 ox 1
    borel.hopf_maps.cache_clear()
    unit = borel.hopf_maps().images["delta"]["1"]
    units = []
    mul = TensorElement.__mul__

    def spy(a, b):
        if isinstance(b, TensorElement) and unit in (a, b):
            units.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(TensorElement, "__mul__", spy)
    try:
        reports = run_checks("borel-coproduct", CheckConfig(truncation=W))
    finally:
        monkeypatch.undo()
        borel.hopf_maps.cache_clear()
    assert [r.status for r in reports] == ["pass"] * 5
    assert units == []


@pytest.mark.parametrize("hopf", [frt.hopf_maps, borel.hopf_maps], ids=["frt", "borel"])
def test_antipode_defects_multiply_by_no_unit(monkeypatch, hopf):
    # a coproduct term with a unit leg adds S(x) or x: no product in the
    # antipode defects of any generator has a unit factor
    hopf = hopf()
    one = hopf.images["id"]["1"]
    cls = type(one)
    units = []
    mul = cls.__mul__

    def spy(a, b):
        if isinstance(b, cls) and one in (a, b):
            units.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", spy)
    for g in hopf.images["id"]:
        left, right = hopf.antipode_defects(g)
        assert not left and not right, g
    monkeypatch.undo()
    assert units == []
