import random
from fractions import Fraction
from math import gcd

import pytest

from ospq.scalars import Scalar, rat, P, HALF, SQRT2
from ospq.freealg import GradedAlphabet, SuperPoly
from ospq.supermatrix import SuperMatrix
from ospq.rewrite import (RewriteSystem, affine_rows, at_two, complete, orient,
                          solve_affine, span_equal, span_contains, nullspace,
                          OrientationError)
from ospq.rewrite import (_evaluation_points, _graded_echelon, _int_echelons,
                          _int_insert, _int_reduces_to_zero, _int_row,
                          _weight_components, _word_ranks, shift_family)
from ospq import classical, frt, rewrite, scalars


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
    # a*d weighs 0 and b weighs 2 in the torus grading: p*a*d - b leads with
    # a*d, beside p
    with pytest.raises(OrientationError):
        orient([at_two(w("a", "d").scale(P) - w("b"))[1]])


def test_commutative_triangle_is_confluent():
    alphabet = GradedAlphabet(("x", "y", "z"), {"x": 0, "y": 0, "z": 0})
    def ww(*ls):
        return SuperPoly.word(alphabet, ls)
    rels = [ww("y", "x") - ww("x", "y"),
            ww("z", "y") - ww("y", "z"),
            ww("z", "x") - ww("x", "z")]
    system = RewriteSystem(alphabet, _orient_over_qp(rels))
    assert system.overlap_check(4) == []


def test_broken_rule_set_has_overlaps():
    alphabet = GradedAlphabet(("x", "y"), {"x": 0, "y": 0})
    def ww(*ls):
        return SuperPoly.word(alphabet, ls)
    # the inclusion ambiguity yxy resolves to xyy one way and xxx the other
    rels = [ww("y", "x") - ww("x", "y"),
            ww("y", "x", "y") - ww("x", "x", "x")]
    system = RewriteSystem(alphabet, _orient_over_qp(rels))
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


# -- the integer echelon, nullspace and the exact reference -------------------

def _fraction_reduce(pivots, row):
    """The remainder of a sparse row modulo Gaussian pivots over Q."""
    row = {k: Fraction(v) for k, v in row.items() if v}
    while row:
        lead = max(row)
        piv = pivots.get(lead)
        if piv is None:
            return row
        f = row[lead] / piv[lead]
        for k, v in piv.items():
            row[k] = row.get(k, 0) - f * v
        row = {k: v for k, v in row.items() if v}
    return row


def _fraction_pivots(rows):
    """Pivots of sparse rows by plain Gaussian elimination over Q."""
    pivots = {}
    for row in rows:
        row = _fraction_reduce(pivots, row)
        if row:
            pivots[max(row)] = row
    return pivots


def _rank(rows):
    return len(_fraction_pivots(rows))


def _at_3(row):
    """A row {column: Scalar} at p = 3, as {column: Fraction}."""
    return {k: q for k, c in row.items() if (q := c.substitute(p=3).as_rational())}


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


def _int_combine(ca, x, cb, y):
    return ca * (x or 0) + cb * (y or 0)


def _int_entry(rng):
    return rng.choice([-3, -2, -1, 1, 2, 4])


def test_integer_echelon_insert_and_probe_agree_with_rank():
    # rows of content 2-6 and leads from ``_int_entry``, so that a pivot's
    # lead often does not divide the row's and the row is scaled first
    def content(row):
        g = 0
        for v in row.values():
            g = gcd(g, v)
        return g

    def in_span(rows, row):
        return _rank(rows + [row]) == _rank(rows)

    def insert(basis, row):
        copy = dict(row)
        new = _int_insert(basis, row)
        assert row == copy
        assert all(content(b) == 1 for b in basis.values())
        return new

    def reduces_to_zero(basis, row):
        copy = dict(row)
        zero = _int_reduces_to_zero(basis, row)
        assert row == copy
        return zero

    rng = random.Random(5)
    for _ in range(10):
        rows = _echelon_stream(rng, _int_entry, _int_combine)
        rows = [{k: v * rng.randint(2, 6) for k, v in r.items()} for r in rows if r]
        _check_echelon(rows, insert, reduces_to_zero, in_span, {99: 1, 0: 2})
    # lead 2 does not divide 3: the row is doubled, then 3 pivots subtracted
    basis = {2: {2: 2, 1: 1}}
    assert insert(basis, {2: 3, 0: 1}) and basis[1] == {1: -3, 0: 2}
    # 2 divides 4: 2 pivots subtracted, and the content 2 is stripped once
    assert insert(basis, {2: 4, 1: 2, 0: 6}) and basis[0] == {0: 1}
    assert reduces_to_zero(basis, {2: 6, 1: 3})


def _graded_system(rng, ncols=7, nrows=24, split=3):
    """Random integer rows C and the graded rows {column: Scalar} with entries
    C[i][k]*p^(r_i + c_k).  Columns below ``split`` and the others share no
    row, so the system has at least two connected parts, and about half of
    the rows of each part are combinations of earlier ones."""
    values = (_echelon_stream(rng, _int_entry, _int_combine, split, nrows // 2)
              + [{k + split: v for k, v in row.items()}
                 for row in _echelon_stream(rng, _int_entry, _int_combine,
                                            ncols - split, nrows - nrows // 2)])
    rng.shuffle(values)
    values = [_int_row(row.items()) for row in values if row]
    col_exp = [rng.randint(0, 3) for _ in range(ncols)]
    rows = []
    for row in values:
        r = rng.randint(0, 3)
        rows.append({k: Scalar.in_p({r + col_exp[k]: v}) for k, v in row.items()})
    return values, rows


def test_symbolic_echelon_insert_and_probe_agree_with_rank():
    # graded rows M = D_r*C*D_c: the integer echelon of their values C at
    # p = 1 inserts and probes as the rank of M at p = 3 says, since
    # rank M(p0) = rank C for every p0 != 0
    rng = random.Random(8)
    for _ in range(6):
        values, rows = _graded_system(rng)
        at_3 = {id(value): _at_3(row) for value, row in zip(values, rows)}

        def in_span(inserted, row):
            return (_rank([at_3[id(v)] for v in inserted + [row]])
                    == _rank([at_3[id(v)] for v in inserted]))
        _check_echelon(values, _int_insert, _int_reduces_to_zero, in_span, {99: 1, 0: 2})


def test_nullspace_of_random_graded_systems():
    # every prefix as a system of equations: the nullspace vectors annihilate
    # every row, are independent, and count ncols minus the rank at p = 3
    rng = random.Random(12)
    ncols = 10
    for _ in range(12):
        _, rows = _graded_system(rng, ncols, nrows=rng.randint(4, 12), split=4)
        for n in range(1, len(rows) + 1):
            vecs = nullspace(rows[:n], ncols)
            assert len(vecs) == ncols - _rank([_at_3(row) for row in rows[:n]])
            for vec in vecs:
                for row in rows[:n]:
                    assert sum((c * vec[k] for k, c in row.items()), Scalar.zero()).is_zero
            assert _rank([_at_3(dict(enumerate(vec))) for vec in vecs]) == len(vecs)


def test_nullspace_rejects_ungraded_systems():
    with pytest.raises(ValueError, match="not a monomial"):
        nullspace([{0: P + rat(1), 1: rat(1)}], 2)
    # the determinant 1 - p is not zero, but at p = 1 both rows are (1, 1):
    # no exponents r_i + c_k fit, so p = 1 would find a false solution
    with pytest.raises(ValueError, match="not homogeneous"):
        nullspace([{0: rat(1), 1: P}, {0: rat(1), 1: rat(1)}], 2)


def _square(entries):
    return SuperMatrix.from_scalars([[rat(c) if isinstance(c, int) else c for c in row]
                                     for row in entries])


def _inverse_rows(a):
    """The affine rows of A X = 1 in the nine entries of X."""
    one = SuperMatrix.identity(a.alphabet, 3)
    return affine_rows(lambda x: [a @ _square([x[k:k + 3] for k in (0, 3, 6)]) - one], 9)


def test_affine_rows_reads_off_coefficients_and_constant_term():
    # x0 + 2 x1 - 3 = 0 and p x1 = 0; the zero entries give no row
    rows = affine_rows(lambda x: [_square([[x[0] + rat(2) * x[1] - rat(3), P * x[1]],
                                           [0, 0]])], 2)
    assert rows == [{0: rat(1), 1: rat(2), 2: rat(-3)}, {1: P}]


def test_solve_affine_inverts_graded_matrices():
    # entries q*p^(r_i + c_j): a metric-shaped matrix, whose corner 2p comes
    # back as -2p/(-3*4) in the inverse, and a unipotent one
    for a, want in (
            (_square([[rat(2) * P, 0, -3], [0, 5, 0], [4, 0, 0]]),
             _square([[0, 0, rat(Fraction(1, 4))], [0, rat(Fraction(1, 5)), 0],
                      [rat(Fraction(-1, 3)), 0, rat(Fraction(1, 6)) * P]])),
            (_square([[1, 0, 0], [rat(2) * P, 1, 0], [rat(3) * P ** 2, P, 1]]),
             _square([[1, 0, 0], [rat(-2) * P, 1, 0], [-(P ** 2), -P, 1]]))):
        x = solve_affine(_inverse_rows(a), 9)
        inv = _square([x[k:k + 3] for k in (0, 3, 6)])
        one = SuperMatrix.identity(a.alphabet, 3)
        assert inv == want
        assert a @ inv == one and inv @ a == one


def test_solve_affine_rejects_singular_and_underdetermined_systems():
    singular = _square([[P, 0, 1], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError, match="nullspace"):
        solve_affine(_inverse_rows(singular), 9)
    # x0 + x1 = 1 leaves one unknown free
    rows = affine_rows(lambda x: [_square([[x[0] + x[1] - rat(1)]])], 2)
    with pytest.raises(ValueError, match="2-dimensional nullspace"):
        solve_affine(rows, 2)
    # the inverse of diag(p, 1, 1) is not over Q[p]
    with pytest.raises(ValueError, match="divisible"):
        solve_affine(_inverse_rows(_square([[P, 0, 0], [0, 1, 0], [0, 0, 1]])), 9)


def test_symbolic_span_of_a_monomial_with_non_primitive_coefficient():
    # a coefficient with integer content and positive degree spans the same
    # line over Q(p), so neither may be decided at an integer value of p
    m = w("a", "c")
    scaled = m.scale(rat(2) * P ** 2)
    assert span_contains([m], [scaled], 2)[0]
    assert span_contains([scaled], [m], 2)[0]
    # p - k vanishes at the first evaluation point of the default seed; as a
    # target it splits into two weight components, each on the line, but as
    # a generator it gives a*c two powers of p and so no grading
    k = _evaluation_points(0, 3)[0]
    assert span_contains([m], [m.scale(P - rat(k))], 2)[0]
    with pytest.raises(ValueError, match="homogeneous"):
        span_contains([m.scale(P - rat(k))], [m], 2)


# -- interreduced span generators ------------------------------------------

def _row(f, ranks):
    """The integer row of an element at p = 1, by word rank."""
    return _int_row((ranks[word], c.substitute(p=1).as_rational())
                    for word, c in f._terms.items())


def test_span_generators_are_interreduced_shortest_first():
    # ab + p*a and ab give back a only as ab + p*a - ab, in degree 2; the
    # shifts a*c*c of the shorter a itself must survive the interreduction
    gens = [w("a", "b") + w("a").scale(P), w("a", "b"), w("a")]
    target = w("a", "c", "c")
    ok, detail = span_contains(gens, [target], 3)
    assert ok and detail.endswith("of 2 of 3 generators")
    assert not span_contains(gens[:2], [target], 3)[0]
    # with c of weight 1 and b of weight 3 the leading rank puts c*c before
    # b: inserted in that order, b would be the dropped generator and b*a*a
    # would escape, so the order must be by length first (p^3*c*c has the
    # torus weight 2 of b)
    gens = [w("c", "c").scale(P ** 3) + w("b"), w("c", "c"), w("b")]
    ranks = _word_ranks(frt.ALPHABET, 3)
    by_rank = sorted(gens, key=lambda f: ranks[f.leading_word()])
    basis = {}
    assert [_int_insert(basis, _row(f, ranks)) for f in by_rank] == [True, True, False]
    assert by_rank[2] == w("b")
    assert not span_contains(by_rank[:2], [w("b", "a", "a")], 3)[0]
    ok, detail = span_contains(gens, [w("b", "a", "a")], 3)
    assert ok and detail.endswith("of 2 of 3 generators")


# x, y, z of torus weights 1, -1, 2 and p of weight 2: the weight of a word
# fixes the parity of the power of p beside it
XZY_WEIGHTS = {"x": 1, "y": -1, "z": 2}
XYZ = GradedAlphabet(("x", "y", "z"), {"x": 0, "y": 1, "z": 0},
                     weights={"x": 1, "y": 6, "z": 1}, torus=XZY_WEIGHTS)


def test_interreduced_span_equals_the_span_of_all_shifts():
    # homogeneous families padded with redundant generators, each a sum of a
    # shorter and a longer one: the echelon of the kept generators' shifts
    # has the rank of all shifts, and decides random targets as Fraction
    # elimination at p = 3 does.  The quadratic generators lead with the
    # heavy y of XYZ and the cubic ones avoid it, so a sum shares the leading
    # word of its shorter summand, and an order by leading rank alone could
    # keep the sum and drop the summand.
    rng = random.Random(3)
    bound = 4
    dropped = verdicts = 0
    for _ in range(10):
        gens = ([_random_homogeneous(rng, 2, first=("y", "x"))
                 for _ in range(rng.randint(1, 2))]
                + [_random_homogeneous(rng, 3, "xz") for _ in range(rng.randint(1, 2))])
        pairs = [(f, g) for f in gens for g in gens if f.degree() < g.degree()
                 and (_xzy_weight(g) - _xzy_weight(f)) % 2 == 0]
        gens += [_homogeneous_sum(rng, f, g) for f, g in rng.sample(pairs, min(3, len(pairs)))]
        rng.shuffle(gens)
        gens = tuple(SuperPoly(XYZ, dict(f._terms)) for f in gens if not f.is_zero)
        shifts = shift_family(gens, bound)
        pivots = _shift_pivots(shifts)
        _, basis, _, nkept = _graded_echelon(gens, bound)
        assert len(basis) == len(pivots)
        dropped += len(gens) - nkept
        for _ in range(8):
            if rng.random() < 0.5:
                t = SuperPoly(XYZ, dict(_random_homogeneous(rng, rng.randint(1, bound))._terms))
            else:
                t = _inside_component(rng, shifts)
            expected = _inside_at_3(pivots, t)
            assert span_contains(gens, [t], bound)[0] is expected
            verdicts += expected
    # both verdicts occurred, and generators were dropped
    assert dropped > 0 and 0 < verdicts < 80


# -- spans decided at p = 1 under the torus grading --------------------------

def test_torus_grading_rejects_two_powers_of_p_on_one_word():
    # (p - 85)*ac gives the word a*c two weights, so no echelon decides a
    # span of it and it has no value at p = 2; nor has sqrt(2)*ac
    ungraded = w("a", "c").scale(P - rat(85))
    # (``test_completion_rejects_an_ungraded_family`` covers ``complete``)
    with pytest.raises(ValueError, match="homogeneous"):
        span_contains([ungraded], [w("c", "a", "c")], 3)
    with pytest.raises(ValueError, match="homogeneous"):
        at_two(ungraded)
    with pytest.raises(ValueError, match="polynomial in p"):
        at_two(w("a", "c").scale(SQRT2))


def test_torus_grading_grades_a_p_free_family():
    for f in frt.defining_relations():
        assert len(_weight_components(f.substitute_parameter(p=0))) == 1


def test_graded_paths_need_a_declared_grading():
    ungraded = GradedAlphabet(frt.ALPHABET.letters, frt.ALPHABET.grades, frt.ALPHABET.weights)
    rel = SuperPoly.word(ungraded, ("b", "a")) - SuperPoly.word(ungraded, ("a", "b"))
    for decide in (lambda: complete(ungraded, [rel], 4),
                   lambda: span_contains([rel], [rel], 2),
                   lambda: at_two(rel)):
        with pytest.raises(ValueError, match="declares no torus grading"):
            decide()


XZY = GradedAlphabet(("x", "z", "y"), {"x": 0, "z": 0, "y": 1}, torus=XZY_WEIGHTS)
_word_weight = XZY.torus_weight


def _xzy_weight(f):
    word, c = next(iter(f._terms.items()))
    return _word_weight(word) + 2 * max(c.p_coefficients())


def _random_homogeneous(rng, degree, letters="xyz", first=None):
    """A random homogeneous element of the given length in the given
    letters, p of degree <= 2; its first word is ``first`` when given."""
    while True:
        word0 = first or tuple(rng.choice(letters) for _ in range(degree))
        weight = _word_weight(word0) + 2 * rng.randint(0, 1)
        terms = {}
        for word in [word0] + [tuple(rng.choice(letters) for _ in range(rng.randint(0, degree)))
                               for _ in range(6)]:
            d, odd = divmod(weight - _word_weight(word), 2)
            if not odd and 0 <= d <= 2:
                terms[word] = rat(rng.choice([-3, -2, -1, 1, 2, 5])) * P ** d
        if len(terms) > 1:
            return SuperPoly(XZY, terms)


def _p_power(f, k):
    return f.scale(P ** k)


def _homogeneous_sum(rng, f, g):
    """A multiple of f plus g, one of them times the power of p that gives
    both one weight; their weights must have the same parity."""
    k = (_xzy_weight(g) - _xzy_weight(f)) // 2
    f = f.scale(rat(rng.randint(1, 2)))
    return _p_power(f, k) + g if k >= 0 else f + _p_power(g, -k)


def _inside_component(rng, shifts):
    """A homogeneous combination of two shifts of the same weight parity."""
    s1 = rng.choice(shifts)
    s2 = rng.choice([s for s in shifts if (_xzy_weight(s) - _xzy_weight(s1)) % 2 == 0])
    weight = max(_xzy_weight(s1), _xzy_weight(s2)) + 2 * rng.randint(0, 1)
    return (_p_power(s1, (weight - _xzy_weight(s1)) // 2).scale(rat(rng.randint(1, 3)))
            + _p_power(s2, (weight - _xzy_weight(s2)) // 2).scale(rat(rng.randint(-3, -1))))


def _components_at_3(f):
    """``{weight: {word: Fraction}}``: f at p = 3, split by XZY_WEIGHTS with p
    of weight 2.  A word has one power of p in each component."""
    out = {}
    for word, c in f._terms.items():
        for d, q in c.p_coefficients().items():
            out.setdefault(_word_weight(word) + 2 * d, {})[word] = q * 3 ** d
    return out


def _shift_pivots(shifts):
    """Gaussian pivots at p = 3 of homogeneous shifts.

    A word u in a shift of weight E carries p^((E - wt(u))/2), so the rows
    have the form D_r*C*D_c and their rank at p = 3 is their rank over Q(p).
    A homogeneous target keeps that form, so it lies in the span over Q(p)
    exactly when its row at p = 3 lies in the span at p = 3.
    """
    rows = []
    for s in shifts:
        (row,) = _components_at_3(s).values()
        rows.append(row)
    return _fraction_pivots(rows)


def _inside_at_3(pivots, t):
    return not any(_fraction_reduce(pivots, part) for part in _components_at_3(t).values())


def test_graded_span_decides_like_fraction_elimination_at_p_3():
    # random homogeneous families padded with redundant generators (p-multiples,
    # same-weight sums of a shorter and a longer one, p-shifted sums across
    # weights, and shifts); targets of 2-3 weight components, each either a
    # combination of shifts or random.  The integer echelon at p = 1 has the
    # rank of all shifts, and decides every target as Fraction elimination
    # at p = 3 over the shifts of all generators does.
    rng = random.Random(14)
    bound = 4
    dropped = verdicts = escapes = 0
    for _ in range(8):
        gens = [_random_homogeneous(rng, rng.choice([2, 2, 3]))
                for _ in range(rng.randint(2, 3))]
        f = rng.choice(gens)
        gens.append(_p_power(f, 1))
        gens.append(SuperPoly.letter(XZY, "x") * f)
        pairs = [(f, g) for f in gens for g in gens if f.degree() < g.degree()
                 and (_xzy_weight(g) - _xzy_weight(f)) % 2 == 0]
        gens += [_homogeneous_sum(rng, f, g) for f, g in rng.sample(pairs, min(2, len(pairs)))]
        rng.shuffle(gens)
        gens = tuple(f for f in gens if not f.is_zero)
        _, basis, _, nkept = _graded_echelon(gens, bound)
        shifts = shift_family(gens, bound)
        pivots = _shift_pivots(shifts)
        assert len(basis) == len(pivots)
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
                expected = _inside_at_3(pivots, target)
                assert span_contains(gens, [target], bound)[0] is expected
                verdicts += 1
                escapes += not expected
    # both verdicts occurred, and generators were dropped
    assert dropped > 0 and 0 < escapes < verdicts


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
                               weights={"x": 3, "z": 4, "y": 1}, torus=XZY_WEIGHTS)


def _primitive_part(poly):
    """Divide out the largest power of p that divides every coefficient (the
    reference completion's content division over Q[p])."""
    low = min(min(c.p_coefficients()) for c in poly._terms.values())
    return poly.map_scalars(
        lambda c: Scalar.in_p({d - low: q for d, q in c.p_coefficients().items()}))


def _orient_over_qp(polys):
    """``orient`` over Q[p]: a relation whose leading word an earlier rule
    holds is reduced by that rule first, its content is divided out, and its
    leading coefficient must then be a unit."""
    rules = {}
    for f in polys:
        while f and f.leading_word() in rules:
            lead = f.leading_word()
            f = f + (rules[lead] - SuperPoly.word(f.alphabet, lead)).scale(f.coefficient(lead))
        if f.is_zero:
            continue
        f = _primitive_part(f)
        lead = f.leading_word()
        lc = f.coefficient(lead)
        if not lc.is_constant:
            raise OrientationError(f"leading coefficient {lc} of {f!r} is not a unit")
        inv = lc.unit_inverse()
        rules[lead] = SuperPoly(f.alphabet, {u: -c * inv for u, c in f._terms.items()
                                             if u != lead})
    return rules


def _complete_over_qp(alphabet, relations, max_degree):
    """The completion that ``complete`` evaluates at p = 2, run on Scalars:
    every new relation oriented by ``_orient_over_qp``, which divides out its
    content."""
    def interreduce(rules):
        for _ in range(200):
            changed = False
            for lhs in sorted(rules, key=alphabet.word_key):
                rhs = rules.pop(lhs)
                others = RewriteSystem(alphabet, rules)
                f = others.nf_word(lhs) - others.normal_form(rhs)
                if f.is_zero:
                    changed = True
                    continue
                (new_lhs, new_rhs), = _orient_over_qp([f]).items()
                changed = changed or (new_lhs, new_rhs) != (lhs, rhs)
                rules[new_lhs] = new_rhs
            if not changed:
                return rules
        raise RuntimeError("interreduction did not stabilize")

    rules = interreduce(_orient_over_qp(relations))
    for _ in range(rewrite.COMPLETION_ROUNDS):
        system = RewriteSystem(alphabet, rules)
        bad = ([d for _, d in system.overlap_check(max_degree)]
               or [d for f in relations if (d := system.normal_form(f))])
        if not bad:
            return system
        rules = interreduce(_orient_over_qp(system.rule_polys() + bad))
    raise RuntimeError("completion did not converge")


def _leftmost_nf(system):
    """The reducer that ``nf_word`` replaced, kept as a reference: a word is
    rewritten at its leftmost match, by the longest left side there, and
    waits on the stack with its rewritten words, memoized whole, until their
    normal forms are known.  Returns its normal-form function on words."""
    rules, cache, lengths = system.rules, {}, {}
    for lhs in rules:
        lengths.setdefault(lhs[0], set()).add(len(lhs))
    lengths = {x: sorted(ns, reverse=True) for x, ns in lengths.items()}

    def first_match(word):
        for i, x in enumerate(word):
            for n in lengths.get(x, ()):
                if word[i:i + n] in rules:
                    return i, word[i:i + n]
        return None

    def nf(word):
        stack = [(word, None)]
        while stack:
            w, rewritten = stack[-1]
            if rewritten is None:
                if w in cache:
                    stack.pop()
                    continue
                m = first_match(w)
                if m is None:
                    cache[w] = SuperPoly(system.alphabet, {w: system.one})
                    stack.pop()
                    continue
                i, lhs = m
                rewritten = [(w[:i] + r + w[i + len(lhs):], c)
                             for r, c in rules[lhs]._terms.items()]
                missing = [(d, None) for d, _ in rewritten if d not in cache]
                if missing:
                    stack[-1] = (w, rewritten)
                    stack.extend(missing)
                    continue
            cache[w] = sum((cache[d].scale(c) for d, c in rewritten),
                           SuperPoly.zero(system.alphabet))
            stack.pop()
        return cache[word]
    return nf


def _completion(alphabet, relations, fn):
    """The rules of ``fn(alphabet, relations, 4)`` with the term order of
    each right side, or the type of the error it raised."""
    try:
        system = fn(alphabet, relations, 4)
    except ValueError as error:
        return type(error)
    return [(lhs, list(rhs._terms.items())) for lhs, rhs in system.rules.items()]


def _seeded_family(rng, alphabet):
    """Two random homogeneous relations, a p-multiple of one of them and its
    shift by x, over ``alphabet``."""
    gens = [_random_homogeneous(rng, rng.choice([2, 2, 3])) for _ in range(2)]
    f = rng.choice(gens)
    gens += [_p_power(f, 1), SuperPoly.letter(XZY, "x") * f]
    return [SuperPoly(alphabet, dict(g._terms)) for g in gens]


def _spy_audits(monkeypatch, rounds):
    """Append to ``rounds``, for each overlap audit, (the number of all its
    system's ambiguities, [(ambiguity, right sides of its two rules)
    normal-formed]).  An audit of the fresh rules enumerates exactly the
    ambiguities one of whose rules is fresh, in the order of all of them."""
    overlap_words, difference = RewriteSystem._overlap_words, RewriteSystem._difference

    def words_spy(self, max_degree, fresh=None):
        every = list(overlap_words(self, max_degree))
        items = list(overlap_words(self, max_degree, fresh))
        assert items == [item for item in every
                         if fresh is None or {item[1], item[3]} & fresh]
        rounds.append((len(every), []))
        return iter(items)

    def difference_spy(self, *item):
        sides = tuple(frozenset(self.rules[lhs]._terms.items()) for lhs in (item[1], item[3]))
        rounds[-1][1].append((item, sides))
        return difference(self, *item)

    monkeypatch.setattr(RewriteSystem, "_overlap_words", words_spy)
    monkeypatch.setattr(RewriteSystem, "_difference", difference_spy)


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
            gens = _seeded_family(rng, alphabet)
            lifted = _completion(alphabet, gens, lambda *args: complete(*args).lifted())
            assert lifted == _completion(alphabet, gens, _complete_over_qp)
            if lifted is OrientationError:
                outcomes[OrientationError] += 1
                continue
            system = complete(alphabet, gens, 4).lifted()
            assert system.overlap_check(4) == []
            assert all(system.reduces_to_zero(g) for g in gens)
            outcomes["rules"] += len(system)
            outcomes["with p"] += sum(any(c.p_coefficients().keys() - {0}
                                          for c in rhs._terms.values())
                                      for rhs in system.rules.values())
    assert all(outcomes.values()), outcomes


def test_completion_over_several_rounds_lifts_to_the_completion_over_qp(monkeypatch):
    # families whose completion takes three rounds or more, so that later
    # rounds skip the ambiguities whose two rules an earlier round audited:
    # the lifted rules equal those of the full-audit Scalar completion, in
    # the same order with the same terms, and a full audit to the degree
    # bound finds every ambiguity resolved
    rng = random.Random(41)
    several = 0
    for _ in range(30):
        for alphabet in (XZY, XZY_BY_WEIGHT):
            gens = _seeded_family(rng, alphabet)
            rounds = []
            with monkeypatch.context() as m:
                _spy_audits(m, rounds)
                lifted = _completion(alphabet, gens, lambda *args: complete(*args).lifted())
            assert lifted == _completion(alphabet, gens, _complete_over_qp)
            if lifted is OrientationError or lifted is ValueError or len(rounds) < 3:
                continue
            several += 1
            assert any(len(audits) < count for count, audits in rounds[1:])
            system = complete(alphabet, gens, 4).lifted()
            assert system.overlap_check(4) == []
            assert all(system.reduces_to_zero(g) for g in gens)
    assert several >= 5


def test_presentation_audits_each_ambiguity_once_per_rule_version(monkeypatch):
    # the presentation build runs two completions; within each, no
    # ambiguity is normal-formed twice while its two rules keep their right
    # sides, and the audits are fewer than the ambiguities of every round
    # taken together (611 with the full audit in each round)
    expected = frt.presentation().at2.rules
    runs, rounds = [], []
    _spy_audits(monkeypatch, rounds)
    complete_ = frt.complete

    def complete_spy(*args, **kwargs):
        runs.append(len(rounds))
        return complete_(*args, **kwargs)

    monkeypatch.setattr(frt, "complete", complete_spy)
    assert frt.presentation.__wrapped__().at2.rules == expected
    assert len(runs) == 2
    for start, end in zip(runs, runs[1:] + [len(rounds)]):
        audits = [audit for _, round_audits in rounds[start:end] for audit in round_audits]
        assert len(audits) == len(set(audits))
    audited, every = sum(len(audits) for _, audits in rounds), sum(count for count, _ in rounds)
    assert audited < every
    # only the ambiguities with a fresh rule are enumerated: 198 of 611
    assert (audited, every) == (198, 611)


def _contains(word, sub):
    return any(word[i:i + len(sub)] == sub for i in range(len(word) - len(sub) + 1))


def test_interreduced_rules_are_reduced_and_in_word_order(monkeypatch):
    # every system that the completions of the presentation and of seeded
    # families interreduce: no left side lies inside another, every right
    # side is its own normal form, and the rules are in word_key order; some
    # inputs have a left side inside another, so their reduction runs
    calls = []
    interreduce = rewrite.interreduce

    def spy(alphabet, rules):
        calls.append((alphabet, rules, interreduce(alphabet, rules)))
        return calls[-1][2]

    monkeypatch.setattr(rewrite, "interreduce", spy)
    frt.presentation.__wrapped__()
    rng = random.Random(41)
    for _ in range(10):
        for alphabet in (XZY, XZY_BY_WEIGHT):
            try:
                complete(alphabet, _seeded_family(rng, alphabet), 4)
            except ValueError:
                pass
    nested = 0
    for alphabet, rules, out in calls:
        nested += any(l1 != l2 and _contains(l1, l2) for l1 in rules for l2 in rules)
        assert not any(l1 != l2 and _contains(l1, l2) for l1 in out for l2 in out)
        system = RewriteSystem(alphabet, out, one=1)
        assert all(system.normal_form(rhs) == rhs for rhs in out.values())
        assert list(out) == sorted(out, key=alphabet.word_key)
    assert nested and len(calls) > nested


def test_completion_keeps_relations_that_share_a_leading_word():
    # both relations lead with z*x; one rule per leading word must not lose
    # the other relation
    z_x = SuperPoly.word(XZY_BY_WEIGHT, ("z", "x"))
    z_y = SuperPoly.word(XZY_BY_WEIGHT, ("z", "y"))
    rels = [z_x + z_y.scale(rat(5) * P), (z_x.scale(rat(2)) - z_y.scale(rat(3) * P)).scale(P)]
    system = complete(XZY_BY_WEIGHT, rels, 4).lifted()
    assert all(system.reduces_to_zero(f) for f in rels)
    zero = SuperPoly.zero(XZY_BY_WEIGHT)
    assert system.rules == {("z", "x"): zero, ("z", "y"): zero}


def test_orient_keeps_relations_that_share_a_leading_word():
    # both relations lead with z*x; the second is reduced by the first rule
    # to a relation leading with z*y, so neither is lost
    z_x = SuperPoly.word(XZY_BY_WEIGHT, ("z", "x"))
    z_y = SuperPoly.word(XZY_BY_WEIGHT, ("z", "y"))
    rels = [at_two(f)[1] for f in (z_x + z_y.scale(rat(5) * P),
                                   z_x.scale(rat(2)) - z_y.scale(rat(3) * P))]
    rules = orient(rels)
    assert list(rules) == [("z", "x"), ("z", "y")]
    system = RewriteSystem(XZY_BY_WEIGHT, rules, one=1)
    assert all(system.normal_form(f).is_zero for f in rels)


def test_completion_rejects_a_lead_that_carries_p():
    # a*d with p beside it and b of the same torus weight 2: a*d leads in the
    # order, so its coefficient p is not a unit of Q[p]
    rel = w("a", "d").scale(P) - w("b")
    with pytest.raises(OrientationError):
        _orient_over_qp([rel])
    with pytest.raises(OrientationError):
        complete(frt.ALPHABET, [rel], 4)


def test_completion_rejects_relations_that_generate_the_unit_ideal():
    # x*y = 1 and (x*y)^2 = 2 give 1 = 2: the longer rule, reduced by the
    # shorter one, leaves a constant, which no rule can have as left side
    x_y, one = SuperPoly.word(XZY, ("x", "y")), SuperPoly.word(XZY, ())
    rels = [x_y - one, x_y * x_y - one.scale(rat(2))]
    for fn in (complete, _complete_over_qp):
        with pytest.raises(ValueError, match="empty left side"):
            fn(XZY, rels, 4)


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
    assert system.lifted().rules[("b", "a")].coefficient(("a", "a")) == -P


def test_nf_word_searches_each_word_once(monkeypatch):
    # every word of degree <= 4, normal-formed by right extension on a fresh
    # copy of the presentation's rules: a word waits on the stack for its
    # prefix and then for its parts, and is searched at its end only once,
    # so there are no more searches than memo entries; the normal forms
    # equal those the completed system built
    at2 = frt.presentation().at2
    words = list(frt.ALPHABET.words_up_to(4))
    expected = [at2.nf_word(word) for word in words]
    fresh = RewriteSystem(frt.ALPHABET, at2.rules, one=1)
    searched = []
    end_match = RewriteSystem._end_match

    def spy(self, word):
        searched.append(word)
        return end_match(self, word)

    monkeypatch.setattr(RewriteSystem, "_end_match", spy)
    assert [fresh.nf_word(word) for word in words] == expected
    assert len(searched) == len(set(searched)) <= len(fresh._cache)


def _assert_leftmost_normal_forms(system, degree):
    nf = _leftmost_nf(system)
    for word in system.alphabet.words_up_to(degree):
        assert system.nf_word(word) == nf(word), word


def test_nf_word_agrees_with_the_leftmost_reducer():
    # on confluent systems the normal form does not depend on the strategy:
    # the presentation at p = 2 to degree 5, the classical PBW system with
    # Scalar coefficients to degree 4, and the seeded completion families at
    # p = 2 and lifted to degree 4
    _assert_leftmost_normal_forms(RewriteSystem(frt.ALPHABET, frt.presentation().at2.rules,
                                                one=1), 5)
    _assert_leftmost_normal_forms(RewriteSystem(classical.ALPHABET, classical.PBW.rules), 4)
    rng, completed = random.Random(15), 0
    for alphabet in (XZY, XZY_BY_WEIGHT):
        for _ in range(20):
            try:
                system = complete(alphabet, _seeded_family(rng, alphabet), 4)
            except ValueError:
                continue
            completed += 1
            _assert_leftmost_normal_forms(system, 4)
            _assert_leftmost_normal_forms(system.lifted(), 4)
    assert completed >= 10


def test_a_long_word_normal_forms_without_recursion():
    # the stack is explicit: a seeded word of 200 letters in three commuting
    # letters sorts into its normal form, one more normal-form pass changes
    # nothing, and the leftmost reducer agrees
    alphabet = GradedAlphabet(("x", "y", "z"), {"x": 0, "y": 0, "z": 0})

    def ww(*letters):
        return SuperPoly.word(alphabet, letters)
    system = RewriteSystem(alphabet, {("y", "x"): ww("x", "y"), ("z", "x"): ww("x", "z"),
                                      ("z", "y"): ww("y", "z")})
    rng = random.Random(200)
    word = tuple(rng.choice("xyz") for _ in range(200))
    nf = system.nf_word(word)
    assert nf == ww(*sorted(word)) == _leftmost_nf(system)(word)
    assert system.normal_form(nf) == nf
