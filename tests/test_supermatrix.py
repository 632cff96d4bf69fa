import random

import pytest

from ospq.scalars import Scalar, rat, P, HALF
from ospq.freealg import SuperPoly, SCALAR_ALPHABET
from ospq.supermatrix import (SuperMatrix, kron, exp_nilpotent,
                              invert_unipotent, partial_transpose_first, desuperize,
                              ybe_check, entry_grade, index_grade, letter_matrix)
from ospq import frt


def unit(i, j):
    m = SuperMatrix.zero(SCALAR_ALPHABET, 3)
    m.entries[i - 1][j - 1] = SuperPoly.one(SCALAR_ALPHABET)
    return m


def unit_tensor(i, j, k, l):
    return kron(unit(i, j), unit(k, l))


def left(t):
    return kron(t, SuperMatrix.identity(t.alphabet, 3))


def right(t):
    return kron(SuperMatrix.identity(t.alphabet, 3), t)


def test_embed_elementary_all_even():
    m = unit_tensor(1, 1, 1, 1)
    assert m[1, 1] == SuperPoly.one(SCALAR_ALPHABET)
    assert sum(1 for r in m.entries for e in r if not e.is_zero) == 1


def test_embed_elementary_odd_sign():
    # odd first leg against an odd row index picks up the Koszul sign
    m = unit_tensor(1, 2, 2, 2)
    assert m[2, 5] == -SuperPoly.one(SCALAR_ALPHABET)


def test_embed_is_linear_and_injective():
    rng = random.Random(1)
    basis = [(i, j, k, l) for i in (1, 2, 3) for j in (1, 2, 3)
             for k in (1, 2, 3) for l in (1, 2, 3)]
    m = SuperMatrix.zero(SCALAR_ALPHABET, 9)
    coeffs = {}
    for idx in rng.sample(basis, 10):
        c = rat(rng.randint(1, 5))
        coeffs[idx] = c
        m = m + unit_tensor(*idx).scale(c)
    nonzero = sum(1 for r in m.entries for e in r if not e.is_zero)
    assert nonzero == len(coeffs)


def test_embed_multiplicative_on_graded_product():
    # the embedding turns the graded tensor product into matrix product
    rng = random.Random(4)
    for _ in range(20):
        i, j, k, l = (rng.randint(1, 3) for _ in range(4))
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        o, q = rng.randint(1, 3), rng.randint(1, 3)
        a = unit_tensor(i, j, k, l)
        b = unit_tensor(j, m, l, n)
        g = [0, 1, 0]
        sign = (-1) ** ((g[k - 1] + g[l - 1]) * (g[j - 1] + g[m - 1]))
        prod = unit_tensor(i, m, k, n).scale(rat(sign))
        assert a @ b == prod


def test_embed_left_sign_pattern():
    t = frt.defining_matrix()
    t1 = left(t)
    al = SuperPoly.letter(frt.ALPHABET9, "al")
    de = SuperPoly.letter(frt.ALPHABET9, "de")
    assert t1[2, 5] == -al
    assert t1[8, 5] == -de
    assert t1[1, 4] == al


def test_embed_right_is_block_diagonal():
    t = frt.defining_matrix()
    t2 = right(t)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert t2[3 * k + i + 1, 3 * k + j + 1] == t.entries[i][j]
    assert t2[1, 4].is_zero


def test_identity_embeds_to_identity():
    one = SuperMatrix.identity(frt.ALPHABET9, 3)
    assert left(one) == SuperMatrix.identity(frt.ALPHABET9, 9)
    assert right(one) == SuperMatrix.identity(frt.ALPHABET9, 9)


def test_embed_respects_products_of_scalar_matrices():
    rng = random.Random(8)
    for _ in range(5):
        a = _random_even_scalar_matrix(rng)
        b = _random_even_scalar_matrix(rng)
        assert left(a) @ left(b) == left(a @ b)
        assert right(a) @ right(b) == right(a @ b)


def _random_even_scalar_matrix(rng):
    rows = [[Scalar.zero()] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            if entry_grade(3, i + 1, j + 1) == 0:
                rows[i][j] = rat(rng.randint(-2, 2))
    return SuperMatrix.from_scalars(rows)


def test_dual_matrix_embedding_signs():
    from ospq.borel import L_ENTRIES, RLL_ALPHABET
    l1 = left(letter_matrix(RLL_ALPHABET, L_ENTRIES))
    b = SuperPoly.letter(RLL_ALPHABET, "B")
    e = SuperPoly.letter(RLL_ALPHABET, "E")
    assert l1[2, 5] == -b
    assert l1[5, 8] == -e


def test_exp_nilpotent_basics():
    z = SuperMatrix.zero(SCALAR_ALPHABET, 3)
    assert exp_nilpotent(z) == SuperMatrix.identity(SCALAR_ALPHABET, 3)
    e13 = SuperMatrix.zero(SCALAR_ALPHABET, 3)
    e13.entries[0][2] = SuperPoly.one(SCALAR_ALPHABET)
    assert exp_nilpotent(e13) == SuperMatrix.identity(SCALAR_ALPHABET, 3) + e13


def test_exp_nilpotent_rejects_non_nilpotent():
    m = SuperMatrix.identity(SCALAR_ALPHABET, 3)
    with pytest.raises(ValueError):
        exp_nilpotent(m)


def test_exp_inverse_property():
    rng = random.Random(13)
    for _ in range(5):
        m = SuperMatrix.zero(SCALAR_ALPHABET, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                m.entries[i][j] = SuperPoly.constant(
                    SCALAR_ALPHABET, rat(rng.randint(-3, 3)) * P)
        prod = exp_nilpotent(m, Scalar.one()) @ exp_nilpotent(m, rat(-1))
        assert prod == SuperMatrix.identity(SCALAR_ALPHABET, 4)


def test_quantum_r_corner():
    r = frt.quantum_r_matrix()
    assert r[1, 9] == SuperPoly.constant(SCALAR_ALPHABET, HALF * P * P)


def test_desuperize_flips_only_doubly_odd_rows():
    r = frt.quantum_r_matrix()
    twisted = desuperize(r)
    assert twisted[5, 5] == -SuperPoly.one(SCALAR_ALPHABET)
    assert twisted[5, 9] == -r[5, 9]
    assert twisted[1, 9] == r[1, 9]
    assert desuperize(twisted) == r


def test_ybe_identity_matrix():
    assert ybe_check(SuperMatrix.identity(SCALAR_ALPHABET, 9))


def test_ybe_desuperized_r():
    assert ybe_check(desuperize(frt.quantum_r_matrix()))


def test_ybe_fails_for_perturbed_r():
    r = frt.quantum_r_matrix()
    bad = SuperMatrix(r.alphabet, [row[:] for row in r.entries])
    bad.entries[0][8] = SuperPoly.constant(SCALAR_ALPHABET, P * P)
    assert not ybe_check(desuperize(bad))


def test_partial_transpose_moves_first_leg():
    mt = partial_transpose_first(unit_tensor(1, 3, 1, 1))
    assert mt == unit_tensor(3, 1, 1, 1)


def test_invert_unipotent():
    r = frt.quantum_r_matrix()
    rinv = invert_unipotent(r)
    one = SuperMatrix.identity(r.alphabet, 9)
    assert rinv @ r == one and r @ rinv == one
    with pytest.raises(ValueError):
        invert_unipotent(SuperMatrix.zero(SCALAR_ALPHABET, 3))


def test_grading_validation():
    t = frt.defining_matrix()
    t.check_grading()
    bad = SuperMatrix.zero(frt.ALPHABET9, 3)
    bad.entries[0][1] = SuperPoly.letter(frt.ALPHABET9, "a")  # even letter, odd slot
    with pytest.raises(ValueError):
        bad.check_grading()
    # the letter matrix checks its grading: al and a swap slots
    with pytest.raises(ValueError, match="slot needs"):
        letter_matrix(frt.ALPHABET9, (("al", "a", "b"),) + frt.T_ENTRIES[1:])


def test_setting_p_zero_gives_identity():
    r = frt.quantum_r_matrix()
    assert r.substitute_parameter(p=0) == SuperMatrix.identity(r.alphabet, 9)


def test_index_grade_counts_odd_digits():
    assert [index_grade(3, i) for i in range(3)] == [0, 1, 0]
    assert [index_grade(9, i) for i in (0, 1, 3, 4, 5)] == [0, 1, 1, 0, 1]
    assert index_grade(27, 13) == 1  # digits (1, 1, 1)
    assert entry_grade(9, 2, 5) == 1 and entry_grade(9, 5, 5) == 0


def test_kron_takes_odd_scalar_operators():
    from ospq.classical import REP
    vp = REP["Vp"]
    with pytest.raises(ValueError):
        vp.check_grading()  # grade-0 constants in odd slots
    one = SuperMatrix.identity(SCALAR_ALPHABET, 3)
    # Vp ox 1 picks up the sign on the odd second-leg index, 1 ox Vp does not
    assert kron(vp, one)[2, 5] == -vp[1, 2]
    assert kron(vp, one)[1, 4] == vp[1, 2]
    assert kron(one, vp)[4, 5] == vp[1, 2]


def test_kron_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        kron(frt.defining_matrix(), SuperMatrix.identity(SCALAR_ALPHABET, 3))


def test_sum_and_difference_reject_unequal_sizes():
    small = SuperMatrix.zero(SCALAR_ALPHABET, 9)
    big = SuperMatrix.zero(SCALAR_ALPHABET, 27)
    with pytest.raises(ValueError):
        small + big
    with pytest.raises(ValueError):
        big - small


def _sparse(rng, n, pool, zero):
    return SuperMatrix(zero.alphabet, [[rng.choice(pool) if rng.random() < 0.2 else zero
                                        for _ in range(n)] for _ in range(n)])


def test_sparse_products_and_sums_match_a_dense_reference():
    # every entry comes with its negative, so many products cancel; the
    # reference sums each entry over all slots with SuperPoly + and *
    alphabet = frt.ALPHABET
    zero = SuperPoly.zero(alphabet)
    a, b = SuperPoly.letter(alphabet, "a"), SuperPoly.letter(alphabet, "b")
    pool = [a, -a, b, -b, a * b, -(a * b), a.scale(P), SuperPoly.one(alphabet)]
    rng = random.Random(19)
    cancelled = {"@": 0, "+": 0, "-": 0}
    for n in (9, 9, 27, 27):
        x = _sparse(rng, n, pool, zero)
        y = _sparse(rng, n, pool, zero)
        for _ in range(n):
            i, j = rng.randrange(n), rng.randrange(n)
            y.entries[i][j] = x.entries[i][j].scale(rat(rng.choice((1, -1))))
        for op, got in (("@", x @ y), ("+", x + y), ("-", x - y)):
            for i in range(n):
                for j in range(n):
                    if op == "@":
                        terms = [x.entries[i][k] * y.entries[k][j] for k in range(n)]
                    else:
                        terms = [x.entries[i][j],
                                 y.entries[i][j] if op == "+" else -y.entries[i][j]]
                    ref = zero
                    for t in terms:
                        ref = ref + t
                    assert got.entries[i][j] == ref
                    if not ref:
                        assert got.entries[i][j].is_zero
                        cancelled[op] += any(terms)
    assert all(cancelled.values()), cancelled
    with pytest.raises(ValueError):
        SuperMatrix.zero(alphabet, 9) @ SuperMatrix.zero(alphabet, 27)
    with pytest.raises(ValueError):
        SuperMatrix.zero(alphabet, 3) @ SuperMatrix.zero(SCALAR_ALPHABET, 3)
