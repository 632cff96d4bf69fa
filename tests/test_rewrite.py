import random
from fractions import Fraction
from math import gcd

import pytest

from ospq.scalars import Scalar, rat, P, HALF, SQRT2
from ospq.freealg import GradedAlphabet, SuperPoly
from ospq.rewrite import (RewriteSystem, complete, orient, span_equal, span_contains,
                          primitive_part, nullspace, OrientationError)
from ospq.rewrite import (_echelon, _evaluation_points, _graded_echelon,
                          _int_echelons, _int_insert, _int_reduces_to_zero, _p_grading,
                          _poly_mul, _sym_echelon, _sym_insert,
                          _sym_reduces_to_zero, _sym_row, _weight_components,
                          _word_ranks, shift_family)
from ospq import borel, checks, frt, rewrite, scalars


def w(*letters):
    return SuperPoly.word(frt.ALPHABET, letters)


@pytest.fixture(scope="module")
def system():
    return frt.presentation().system


def test_normal_form_examples(system):
    # the basic even exchange rule
    expected = (w("a", "b") - w("a", "a").scale(P)
                + SuperPoly.one(frt.ALPHABET).scale(P))
    assert system.normal_form(w("b", "a")) == expected
    # the odd square collapses
    assert system.normal_form(w("de", "de")) == w("c", "c").scale(-HALF * P)
    # an already-ordered word is a normal form
    assert system.normal_form(w("a", "b")) == w("a", "b")


def _random_poly(rng, max_deg=4, nterms=4):
    out = SuperPoly.zero(frt.ALPHABET)
    for _ in range(rng.randint(1, nterms)):
        word = tuple(rng.choice(frt.ALPHABET.letters)
                     for _ in range(rng.randint(0, max_deg)))
        coeff = rat(rng.randint(-3, 3)) + rat(rng.randint(-2, 2)) * P
        out = out + SuperPoly.word(frt.ALPHABET, word, coeff)
    return out


def test_normal_form_idempotent(system):
    rng = random.Random(3)
    for _ in range(30):
        f = _random_poly(rng)
        nf = system.normal_form(f)
        assert system.normal_form(nf) == nf


def test_normal_form_is_multiplicative_modulo_ideal(system):
    rng = random.Random(9)
    for _ in range(15):
        f = _random_poly(rng, max_deg=2, nterms=3)
        g = _random_poly(rng, max_deg=2, nterms=3)
        lhs = system.normal_form(f * g)
        rhs = system.normal_form(system.normal_form(f) * system.normal_form(g))
        assert lhs == rhs


def test_rules_are_order_decreasing(system):
    key = frt.ALPHABET.word_key
    for lhs, rhs in system.rules.items():
        for word in rhs.words():
            assert key(word) < key(lhs)


def test_orientation_rejects_nonunit_leads():
    with pytest.raises(OrientationError):
        orient([w("a", "c").scale(P) - w("c", "c")])


def test_primitive_part():
    f = (w("a", "b") - w("b", "a")).scale(HALF * P)
    g = primitive_part(f)
    lead_coeff = g.coefficient(g.leading_word())
    assert lead_coeff.is_constant
    monic = g.scale(lead_coeff.unit_inverse())
    assert monic == w("b", "a") - w("a", "b")
    # denominators and the shared factor p + 1: the content over Q[p] is p + 1
    shared = P + rat(1)
    two_thirds_p = rat(Fraction(2, 3)) * P
    f = w("a", "b").scale(HALF * shared) + w("b", "a").scale(two_thirds_p * shared)
    assert primitive_part(f) == w("a", "b").scale(HALF) + w("b", "a").scale(two_thirds_p)
    # constant content, and coefficients the Z[p] gcd cannot read: unchanged
    x = Scalar.var("x")
    for f in (w("a", "b").scale(rat(2) * P) + w("b", "a").scale(rat(6)),
              w("a", "b").scale(SQRT2 * P) + w("b", "a").scale(P),
              w("a", "b").scale(x * P) + w("b", "a").scale(P)):
        assert primitive_part(f) == f


def test_commutative_triangle_is_confluent():
    alphabet = GradedAlphabet(("x", "y", "z"), {"x": 0, "y": 0, "z": 0})
    def ww(*ls):
        return SuperPoly.word(alphabet, ls)
    rels = [ww("y", "x") - ww("x", "y"),
            ww("z", "y") - ww("y", "z"),
            ww("z", "x") - ww("x", "z")]
    system = RewriteSystem(alphabet, orient(rels))
    assert system.overlap_check(4) == []


def test_broken_rule_set_has_overlaps():
    alphabet = GradedAlphabet(("x", "y"), {"x": 0, "y": 0})
    def ww(*ls):
        return SuperPoly.word(alphabet, ls)
    # the inclusion ambiguity yxy resolves to xyy one way and xxx the other
    rels = [ww("y", "x") - ww("x", "y"),
            ww("y", "x", "y") - ww("x", "x", "x")]
    system = RewriteSystem(alphabet, orient(rels))
    assert system.overlap_check(4)


def test_dropping_a_rule_breaks_the_compiled_audit(system):
    rules = dict(system.rules)
    lhs = next(l for l in sorted(rules, key=frt.ALPHABET.word_key) if len(l) == 2)
    del rules[lhs]
    weakened = RewriteSystem(frt.ALPHABET, rules)
    assert weakened.overlap_check(4)


def test_completed_system_passes_overlap_audit(system):
    assert system.overlap_check(4) == []


def test_overlap_check_requires_degree_three(system):
    with pytest.raises(ValueError):
        system.overlap_check(2)


def test_span_equal_reflexive_and_symmetric():
    rng = random.Random(17)
    rels = frt.defining_relations()
    for _ in range(3):
        subset = rng.sample(rels, rng.randint(2, 5))
        other = rng.sample(rels, rng.randint(2, 5))
        assert span_equal(subset, subset, 3, symbolic=False)
        assert (span_equal(subset, other, 3, symbolic=False)
                == span_equal(other, subset, 3, symbolic=False))


def test_span_detects_sign_flip():
    rels = frt.defining_relations()
    flipped = list(rels)
    flipped[0] = flipped[0].substitute_parameter() - rat(2) * (
        flipped[0] - flipped[0].substitute_parameter(p=0))
    assert not span_equal(rels, flipped, 3, symbolic=False)


def test_span_contains_simple_symbolic():
    a = frt.ALPHABET
    f = w("a", "b") - w("b", "a")
    target = (w("a") * f) - (f * w("a"))
    ok, _ = span_contains([f], [target], 3)
    assert ok
    ok2, _ = span_contains([f], [w("a", "c")], 3)
    assert not ok2


@pytest.mark.parametrize("symbolic", [True, False])
def test_span_contains_rejects_a_target_beyond_the_degree_bound(symbolic):
    with pytest.raises(ValueError, match="target exceeds the degree bound"):
        span_contains([w("a", "b")], [w("a", "b", "c", "c")], 3, symbolic=symbolic)
    # also when an earlier target already escapes the span
    with pytest.raises(ValueError, match="target exceeds the degree bound"):
        span_contains([w("a", "b")], [w("c"), w("a", "b", "c", "c")], 3,
                      symbolic=symbolic)
    with pytest.raises(ValueError, match="generator exceeds the degree bound"):
        span_contains([w("a", "b", "c", "c")], [w("a", "b")], 3, symbolic=symbolic)


def test_seed_does_not_change_outcomes():
    rels = frt.defining_relations()[:4]
    for seed in (1, 2, 99):
        assert span_equal(rels, rels, 3, seed=seed, symbolic=False)


def test_classical_limit_commutes_with_reduction(system):
    # reducing then setting p = 0 agrees with reducing in the p = 0 system
    from ospq.rewrite import complete
    rel0 = [f.substitute_parameter(p=0) for f in frt.presentation().all_relations()]
    classical_system = complete(frt.ALPHABET, rel0, max_degree=6)
    rng = random.Random(41)
    for _ in range(10):
        f = _random_poly(rng, max_deg=3, nterms=3)
        lhs = system.normal_form(f).substitute_parameter(p=0)
        rhs = classical_system.normal_form(f.substitute_parameter(p=0))
        assert lhs == rhs


# -- the fraction-free echelons -------------------------------------------

def _rank(rows, zero, convert):
    """Rank of sparse rows by plain Gaussian elimination over a field."""
    pivots = {}
    for row in rows:
        row = {k: convert(v) for k, v in row.items()}
        row = {k: v for k, v in row.items() if v != zero}
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            f = row[lead] / piv[lead]
            for k, v in piv.items():
                row[k] = row.get(k, zero) - f * v
            row = {k: v for k, v in row.items() if v != zero}
    return len(pivots)


def _echelon_stream(rng, random_entry, combine, ncols=7, nrows=40):
    """Random rows, every other one a combination of two earlier rows."""
    rows = []
    for i in range(nrows):
        if rows and i % 2:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = random_entry(rng), random_entry(rng)
            row = {}
            for k in set(a) | set(b):
                row[k] = combine(ca, a.get(k), cb, b.get(k))
        else:
            cols = rng.sample(range(ncols), rng.randint(1, 3))
            row = {k: random_entry(rng) for k in cols}
        rows.append({k: v for k, v in row.items() if v})
    return rows


def _check_echelon(rows, insert, reduces_to_zero, in_span, fresh_row):
    basis = {}
    inserted = []
    for row in rows:
        before = dict(basis)
        expected_new = not in_span(inserted, row)
        assert insert(basis, row) is expected_new
        if expected_new:
            inserted.append(row)
        else:
            assert basis == before
        assert reduces_to_zero(basis, row)
    for row in rows:
        assert reduces_to_zero(basis, row)
    assert not reduces_to_zero(basis, fresh_row)
    # the stream exercised both outcomes of insert
    assert 0 < len(inserted) < len(rows)


def test_integer_echelon_insert_and_probe_agree_with_rank():
    def primitive(row):
        g = 0
        for v in row.values():
            g = gcd(g, v)
        return {k: v // g for k, v in row.items()} if g > 1 else row

    def combine(ca, x, cb, y):
        return ca * (x or 0) + cb * (y or 0)

    def in_span(rows, row):
        return _rank(rows + [row], Fraction(0), Fraction) == _rank(rows, Fraction(0), Fraction)

    rng = random.Random(5)
    for _ in range(10):
        rows = _echelon_stream(rng, lambda r: r.choice([-3, -2, -1, 1, 2, 4]), combine)
        rows = [primitive(r) for r in rows if r]
        _check_echelon(rows, _int_insert, _int_reduces_to_zero, in_span, {99: 1, 0: 2})


def _rank_over_qp(rows):
    """Rank over Q(p) of rows {column: {degree: coefficient}}: the largest
    Fraction rank at ncols * maxdeg + 1 integer values of p, since a nonzero
    minor has degree at most ncols * maxdeg and so few roots."""
    ncols = len({k for row in rows for k in row})
    maxdeg = max((d for row in rows for poly in row.values() for d in poly), default=0)
    return max(_rank(rows, Fraction(0),
                     lambda poly: Fraction(sum(v * pv ** d for d, v in poly.items())))
               for pv in range(ncols * maxdeg + 1))


def test_symbolic_echelon_insert_and_probe_agree_with_rank():
    def entry(rng):
        return {d: rng.choice([-2, -1, 1, 2]) for d in range(rng.randint(1, 2))}

    def add_poly(a, b):
        out = dict(a)
        for d, v in b.items():
            out[d] = out.get(d, 0) + v
        return {d: v for d, v in out.items() if v}

    def combine(ca, x, cb, y):
        return add_poly(_poly_mul(ca, x or {}), _poly_mul(cb, y or {}))

    def in_span(rows, row):
        return _rank_over_qp(rows + [row]) == _rank_over_qp(rows)

    ncols = 7
    rng = random.Random(8)
    for _ in range(6):
        rows = [r for r in _echelon_stream(rng, entry, combine, ncols, nrows=24) if r]
        _check_echelon(rows, _sym_insert, _sym_reduces_to_zero, in_span,
                       {99: {1: 1}, 0: {0: 2}})
        # every prefix as a system of equations: the nullspace vectors
        # annihilate every row, are independent, and count ncols minus the rank
        for n in range(1, len(rows) + 1):
            vecs = nullspace([{k: Scalar.in_p(poly) for k, poly in row.items()}
                              for row in rows[:n]], ncols)
            assert len(vecs) == ncols - _rank_over_qp(rows[:n])
            for vec in vecs:
                for row in rows[:n]:
                    assert sum((Scalar.in_p(poly) * vec[k] for k, poly in row.items()),
                               Scalar.zero()).is_zero
            assert _rank_over_qp([{k: c.p_coefficients() for k, c in enumerate(vec) if c}
                                  for vec in vecs]) == len(vecs)


def test_symbolic_span_of_a_monomial_with_non_primitive_coefficient():
    # one-entry rows whose coefficient has integer content and positive degree,
    # or vanishes at the first evaluation point of the default seed: the span
    # over Q(p) is the same, so neither may be decided at an integer value of p
    m = w("a", "c")
    k = _evaluation_points(0, 3)[0]
    for coeff in (rat(2) * P + rat(2), P - rat(k)):
        scaled = m.scale(coeff)
        assert span_contains([m], [scaled], 2)[0]
        assert span_contains([scaled], [m], 2)[0]


def test_monomial_fast_path_equals_the_general_product():
    rng = random.Random(11)
    for _ in range(200):
        a = {d: rng.choice([-5, -1, 1, 3, 2 ** 70]) for d in rng.sample(range(6), rng.randint(1, 4))}
        (j, v), = {rng.randint(0, 4): rng.choice([-7, -1, 1, 2, -(2 ** 65)])}.items()
        expected = (Scalar.in_p(a) * Scalar.in_p({j: v})).p_coefficients()
        assert _poly_mul(a, {j: v}) == expected
        # the general loop, reached with the monomial as the left factor
        assert _poly_mul({j: v}, a) == expected


# -- interreduced span generators ------------------------------------------

def _row(f, ranks):
    return _sym_row((ranks[word], c) for word, c in f._terms.items())


def test_span_generators_are_interreduced_shortest_first():
    # ab + a and ab give back a only as ab + a - ab, in degree 2; the shifts
    # a*c*c of the shorter a itself must survive the interreduction
    gens = [w("a", "b") + w("a"), w("a", "b"), w("a")]
    target = w("a", "c", "c")
    ok, detail = span_contains(gens, [target], 3)
    assert ok and detail.endswith("of 2 of 3 generators")
    assert not span_contains(gens[:2], [target], 3)[0]
    # with c of weight 1 and b of weight 3 the leading rank puts c*c before
    # b: inserted in that order, b would be the dropped generator and b*a*a
    # would escape, so the order must be by length first
    gens = [w("c", "c") + w("b"), w("c", "c"), w("b")]
    ranks = _word_ranks(frt.ALPHABET, 3)
    by_rank = sorted(gens, key=lambda f: ranks[f.leading_word()])
    basis = {}
    assert [_sym_insert(basis, _row(f, ranks)) for f in by_rank] == [True, True, False]
    assert by_rank[2] == w("b")
    assert not span_contains(by_rank[:2], [w("b", "a", "a")], 3)[0]
    ok, detail = span_contains(gens, [w("b", "a", "a")], 3)
    assert ok and detail.endswith("of 2 of 3 generators")


XYZ = GradedAlphabet(("x", "y", "z"), {"x": 0, "y": 1, "z": 0},
                     weights={"x": 1, "y": 6, "z": 1})


def _random_xyz(rng, degree, letters="xyz"):
    """A random p-polynomial of the given degree in the given letters."""
    out = SuperPoly.zero(XYZ)
    while out.is_zero or out.degree() != degree:
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, degree)))
        coeff = rat(rng.randint(-2, 2)) + rat(rng.randint(-1, 1)) * P
        out = out + SuperPoly.word(XYZ, word, coeff)
    return out


def test_interreduced_span_equals_the_span_of_all_shifts():
    # random p-families padded with redundant generators, each a sum of a
    # shorter and a longer one: the echelon of the kept generators' shifts
    # has the rank of the plain echelon over the shifts of all of them, and
    # decides membership of random targets the same way.  The quadratic
    # generators lead with the heavy y and the cubic ones avoid it, so a sum
    # shares the leading word of its shorter summand, and an order by leading
    # rank alone could keep the sum and drop the summand.
    rng = random.Random(3)
    bound = 4
    ranks = _word_ranks(XYZ, bound)
    dropped = verdicts = 0
    for _ in range(10):
        gens = ([_random_xyz(rng, 2) + SuperPoly.word(XYZ, ("y", "x"))
                 for _ in range(rng.randint(1, 2))]
                + [_random_xyz(rng, 3, "xz") for _ in range(rng.randint(1, 2))])
        for _ in range(3):
            f, g = rng.sample(gens, 2)
            if f.degree() != g.degree():
                gens.append(f.scale(rat(rng.randint(1, 2)) + P) + g.scale(rat(rng.randint(-2, 2))))
        rng.shuffle(gens)
        gens = tuple(f for f in gens if not f.is_zero)
        shifts = shift_family(gens, bound)
        _, basis, _, nkept = _sym_echelon(gens, bound)
        plain = _echelon([_row(f, ranks) for f in shifts], _sym_insert)
        assert len(basis) == len(plain)
        dropped += len(gens) - nkept
        for _ in range(8):
            if rng.random() < 0.5:
                t = _random_xyz(rng, rng.randint(1, bound))
            else:
                t = rng.choice(shifts).scale(P - rat(2)) + rng.choice(shifts)
            expected = _sym_reduces_to_zero(plain, _row(t, ranks))
            assert span_contains(gens, [t], bound)[0] is expected
            verdicts += expected
    # both verdicts occurred, and generators were dropped
    assert dropped > 0 and 0 < verdicts < 80


# -- spans decided at p = 1 under a torus-weight grading ---------------------

# the weights of the paper's triangular deformation: p has weight 2
TORUS = {"a": 0, "d": 0, "al": 1, "de": -1, "b": 2, "c": -2}


def test_p_grading_finds_the_torus_weights_of_the_defining_relations():
    weights, p_weight = _p_grading(tuple(frt.defining_relations()))
    assert p_weight > 0
    assert {x: 2 * v for x, v in weights.items()} == {x: p_weight * v for x, v in TORUS.items()}


def test_p_grading_needs_p_of_nonzero_weight():
    # the two p-degrees of one word force p to weight 0
    assert _p_grading((w("a", "c").scale(P - rat(85)),)) is None
    assert _p_grading((w("a", "c").scale(SQRT2),)) is None
    # such a span is still decided, by the Z[p] echelon
    assert span_contains([w("a", "c").scale(P - rat(85))], [w("c", "a", "c")], 3) == (
        True, "1 targets inside span of 13 shifts of 1 of 1 generators")


def test_p_grading_grades_a_p_free_family():
    gens = tuple(f.substitute_parameter(p=0) for f in frt.defining_relations())
    weights, p_weight = _p_grading(gens)
    assert p_weight > 0
    for f in gens:
        assert len(_weight_components(f, weights, p_weight)) == 1


XZY = GradedAlphabet(("x", "z", "y"), {"x": 0, "z": 0, "y": 1})
# x, y, z of weights 1, -1, 2 and p of weight 2: the weight of a word fixes
# the parity of the power of p beside it
XZY_WEIGHTS = {"x": 1, "y": -1, "z": 2}


def _word_weight(word):
    return sum(XZY_WEIGHTS[x] for x in word)


def _xzy_weight(f):
    word, c = next(iter(f._terms.items()))
    return _word_weight(word) + 2 * max(c.p_coefficients())


def _random_homogeneous(rng, degree):
    """A random homogeneous element of the given length, p of degree <= 2."""
    while True:
        first = tuple(rng.choice("xyz") for _ in range(degree))
        weight = _word_weight(first) + 2 * rng.randint(0, 1)
        terms = {}
        for word in [first] + [tuple(rng.choice("xyz") for _ in range(rng.randint(0, degree)))
                               for _ in range(6)]:
            d, odd = divmod(weight - _word_weight(word), 2)
            if not odd and 0 <= d <= 2:
                terms[word] = rat(rng.choice([-3, -2, -1, 1, 2, 5])) * P ** d
        if len(terms) > 1:
            return SuperPoly(XZY, terms)


def _p_power(f, k):
    return f.scale(P ** k)


def _inside_component(rng, shifts):
    """A homogeneous combination of two shifts of the same weight parity."""
    s1 = rng.choice(shifts)
    s2 = rng.choice([s for s in shifts if (_xzy_weight(s) - _xzy_weight(s1)) % 2 == 0])
    weight = max(_xzy_weight(s1), _xzy_weight(s2)) + 2 * rng.randint(0, 1)
    return (_p_power(s1, (weight - _xzy_weight(s1)) // 2).scale(rat(rng.randint(1, 3)))
            + _p_power(s2, (weight - _xzy_weight(s2)) // 2).scale(rat(rng.randint(-3, -1))))


def test_graded_span_decides_like_the_zp_echelon_of_all_shifts():
    # random homogeneous families padded with redundant generators (p-multiples,
    # same-weight sums of a shorter and a longer one, p-shifted sums across
    # weights, and shifts); targets of 2-3 weight components, each either a
    # combination of shifts or random.  The integer echelon at p = 1 has the
    # rank and keeps the generators of the Z[p] echelon, and decides every
    # target as the Z[p] echelon over the shifts of all generators does.
    rng = random.Random(14)
    bound = 4
    ranks = _word_ranks(XZY, bound)
    dropped = verdicts = escapes = 0
    for _ in range(8):
        gens = [_random_homogeneous(rng, rng.choice([2, 2, 3]))
                for _ in range(rng.randint(2, 3))]
        f = rng.choice(gens)
        gens.append(_p_power(f, 1))
        gens.append(SuperPoly.letter(XZY, "x") * f)
        pairs = [(f, g) for f in gens for g in gens if f.degree() < g.degree()
                 and (_xzy_weight(g) - _xzy_weight(f)) % 2 == 0]
        for f, g in rng.sample(pairs, min(2, len(pairs))):
            k = (_xzy_weight(g) - _xzy_weight(f)) // 2
            f = f.scale(rat(rng.randint(1, 2)))
            gens.append(_p_power(f, k) + g if k >= 0 else f + _p_power(g, -k))
        rng.shuffle(gens)
        gens = tuple(f for f in gens if not f.is_zero)
        graded = _graded_echelon(gens, bound)
        assert graded is not None
        _, _, basis, nshifts, nkept = graded
        shifts = shift_family(gens, bound)
        plain = _echelon([_row(f, ranks) for f in shifts], _sym_insert)
        assert len(basis) == len(plain)
        _, sym_basis, sym_nshifts, sym_nkept = _sym_echelon(gens, bound)
        assert (len(sym_basis), sym_nshifts, sym_nkept) == (len(basis), nshifts, nkept)
        dropped += len(gens) - nkept
        for _ in range(8):
            parts = []
            for _ in range(rng.randint(2, 3)):
                if rng.random() < 0.7:
                    parts.append(_inside_component(rng, shifts))
                else:
                    parts.append(_random_homogeneous(rng, rng.randint(2, bound)))
            parts = [f for f in parts if not f.is_zero]
            if len({_xzy_weight(f) for f in parts}) < 2:
                continue
            t = sum(parts[1:], parts[0])
            # (p - 1) * t vanishes at p = 1 and is inside exactly when t is
            for target in (t, t.scale(P - rat(1))):
                expected = _sym_reduces_to_zero(plain, _row(target, ranks))
                assert span_contains(gens, [target], bound)[0] is expected
                verdicts += 1
                escapes += not expected
    # both verdicts occurred, and generators were dropped
    assert dropped > 0 and 0 < escapes < verdicts


def test_every_checked_span_is_decided_at_p_equal_one(monkeypatch):
    # the span checks of ``ospq-verify all`` reduce nothing over Z[p]: their
    # families are graded, so only the weight solve of ``nullspace`` reaches
    # ``_sym_reduce``.  The presentation and its metric are built first.
    frt.presentation()
    frt.eliminated_residuals()
    _graded_echelon.cache_clear()
    outside = []
    depth = [0]
    reduce, solve = rewrite._sym_reduce, rewrite.nullspace

    def spy_reduce(basis, row):
        if not depth[0]:
            outside.append(row)
        return reduce(basis, row)

    def spy_solve(rows, ncols):
        depth[0] += 1
        try:
            return solve(rows, ncols)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(rewrite, "_sym_reduce", spy_reduce)
    monkeypatch.setattr(rewrite, "nullspace", spy_solve)
    config = checks.CheckConfig()
    for check in (checks.check_rtt_span, checks.check_relation_membership,
                  checks.check_span_negative):
        assert check(config)[0]
    assert borel.rll_span_matches_relations()
    assert outside == []


def test_p_free_gens_share_one_integer_echelon():
    # the rows of a family free of p are the same at every evaluation point
    free = tuple(f.substitute_parameter(p=0) for f in frt.defining_relations()[:4])
    _, bases, _ = _int_echelons(free, 3, 0)
    assert [pval for pval, _ in bases] == _evaluation_points(0, 3)
    assert len({id(basis) for _, basis in bases}) == 1
    _, bases, _ = _int_echelons(tuple(frt.defining_relations()[:4]), 3, 0)
    assert len({id(basis) for _, basis in bases}) == 3


# -- completion at p = 2 ------------------------------------------------------

# the letters of XZY ordered by torus weight + 2, so that among words of one
# length the heavier one leads
XZY_BY_WEIGHT = GradedAlphabet(("x", "z", "y"), {"x": 0, "z": 0, "y": 1},
                               weights={"x": 3, "z": 4, "y": 1})


def _complete_over_qp(alphabet, relations, max_degree):
    """The completion that ``complete`` evaluates at p = 2, run on Scalars:
    every new relation divided by its content, oriented by ``orient``."""
    def interreduce(rules):
        for _ in range(200):
            changed = False
            for lhs in sorted(rules, key=alphabet.word_key):
                rhs = rules.pop(lhs)
                others = RewriteSystem(alphabet, rules)
                f = primitive_part(others.nf_word(lhs) - others.normal_form(rhs))
                if f.is_zero:
                    changed = True
                    continue
                (new_lhs, new_rhs), = orient([f]).items()
                changed = changed or (new_lhs, new_rhs) != (lhs, rhs)
                rules[new_lhs] = new_rhs
            if not changed:
                return rules
        raise RuntimeError("interreduction did not stabilize")

    rules = interreduce(orient([primitive_part(f) for f in relations]))
    for _ in range(rewrite.COMPLETION_ROUNDS):
        system = RewriteSystem(alphabet, rules)
        bad = ([d for _, d in system.overlap_check(max_degree)]
               or [d for f in relations if (d := system.normal_form(f))])
        if not bad:
            return system
        rules = interreduce(orient(system.rule_polys() + [primitive_part(d) for d in bad]))
    raise RuntimeError("completion did not converge")


def _completion(alphabet, relations, fn):
    """The rules of ``fn(alphabet, relations, 4)`` with the term order of
    each right side, or the type of the error it raised."""
    try:
        system = fn(alphabet, relations, 4)
    except ValueError as error:
        return type(error)
    return [(lhs, list(rhs._terms.items())) for lhs, rhs in system.rules.items()]


def test_completion_at_p_2_lifts_to_the_completion_over_qp():
    # seeded homogeneous families (x, y, z of torus weights 1, -1, 2, p of
    # weight 2) with a p-multiple and a shift of one generator: completing
    # at p = 2 and lifting gives the rules of the Scalar completion, in the
    # same order with the same terms, or the same OrientationError.  The
    # lifted system is confluent over Q[p] to degree 4 and reduces every
    # relation to zero.
    rng = random.Random(15)
    outcomes = {"rules": 0, "with p": 0, OrientationError: 0}
    for alphabet in (XZY, XZY_BY_WEIGHT):
        for _ in range(20):
            gens = [_random_homogeneous(rng, rng.choice([2, 2, 3])) for _ in range(2)]
            f = rng.choice(gens)
            gens += [_p_power(f, 1), SuperPoly.letter(XZY, "x") * f]
            gens = [SuperPoly(alphabet, dict(g._terms)) for g in gens]
            lifted = _completion(alphabet, gens, complete)
            assert lifted == _completion(alphabet, gens, _complete_over_qp)
            if lifted is OrientationError:
                outcomes[OrientationError] += 1
                continue
            system = complete(alphabet, gens, 4)
            assert system.overlap_check(4) == []
            assert all(system.reduces_to_zero(g) for g in gens)
            outcomes["rules"] += len(system)
            outcomes["with p"] += sum(any(c.p_coefficients().keys() - {0}
                                          for c in rhs._terms.values())
                                      for rhs in system.rules.values())
    assert all(outcomes.values()), outcomes


def test_completion_keeps_relations_that_share_a_leading_word():
    # both relations lead with z*x; one rule per leading word must not lose
    # the other relation
    z_x = SuperPoly.word(XZY_BY_WEIGHT, ("z", "x"))
    z_y = SuperPoly.word(XZY_BY_WEIGHT, ("z", "y"))
    rels = [z_x + z_y.scale(rat(5) * P), (z_x.scale(rat(2)) - z_y.scale(rat(3) * P)).scale(P)]
    system = complete(XZY_BY_WEIGHT, rels, 4)
    assert all(system.reduces_to_zero(f) for f in rels)
    zero = SuperPoly.zero(XZY_BY_WEIGHT)
    assert system.rules == {("z", "x"): zero, ("z", "y"): zero}


def test_completion_rejects_a_lead_that_carries_p():
    # a*d with p beside it and b of the same torus weight 2: a*d leads in the
    # order, so its coefficient p is not a unit of Q[p]
    rel = w("a", "d").scale(P) - w("b")
    with pytest.raises(OrientationError):
        orient([primitive_part(rel)])
    with pytest.raises(OrientationError):
        complete(frt.ALPHABET, [rel], 4)


def test_completion_rejects_an_ungraded_family():
    # the word a*c carries p^0 and p^1, so p has no weight
    with pytest.raises(ValueError, match="homogeneous") as error:
        complete(frt.ALPHABET, [w("a", "c").scale(P - rat(85))], 4)
    assert not isinstance(error.value, OrientationError)


def test_completion_multiplies_no_scalars(monkeypatch):
    relations = frt.defining_relations()
    products = []
    kernel = scalars._products

    def spy(terms1, terms2):
        products.append((terms1, terms2))
        return kernel(terms1, terms2)

    monkeypatch.setattr(scalars, "_products", spy)
    system = complete(frt.ALPHABET, relations, 4)
    assert products == []
    # the lifted rules carry p again
    assert system.rules[("b", "a")].coefficient(("a", "a")) == -P
