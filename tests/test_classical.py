from fractions import Fraction

import pytest

from ospq.scalars import Scalar, rat, P
from ospq.freealg import SCALAR_ALPHABET
from ospq.supermatrix import SuperMatrix, kron
from ospq import classical
from ospq.checks import CheckConfig, _r2_target_matrix, run_checks


def test_bracket_examples():
    assert classical.bracket("H", "Xp") == {"Xp": Fraction(1)}
    assert classical.bracket("Xp", "Vp") == {}
    assert classical.bracket("Vp", "Vm") == {"H": Fraction(-1, 2)}
    # graded antisymmetry on an odd pair: anticommutator is symmetric
    assert classical.bracket("Vm", "Vp") == {"H": Fraction(-1, 2)}
    # ordinary antisymmetry for even pairs
    assert classical.bracket("Xm", "Xp") == {"H": Fraction(-2)}


def test_jacobi_everywhere():
    assert classical.jacobi_holds_everywhere()


def test_rep_satisfies_all_relations():
    assert classical.rep_is_faithful_presentation()


def test_sl2_triple_inside():
    xp, xm, h = classical.REP["Xp"], classical.REP["Xm"], classical.REP["H"]
    assert (xp @ xm) - (xm @ xp) == h.scale(rat(2))


def test_lowering_matrices_derived_uniquely():
    xm, vm = classical.derive_lowering_matrices()
    assert xm == classical.REP["Xm"]
    assert vm == classical.REP["Vm"]


def test_lowering_equations_come_from_the_six_affine_relations():
    eqs = classical.lowering_equations()
    fixing = sorted(pair for pair, rows in eqs.items() if rows)
    assert fixing == sorted([("H", "Xm"), ("H", "Vm"), ("Xp", "Xm"), ("Xp", "Vm"),
                             ("Xm", "Vp"), ("Vp", "Vm")])
    assert sum(map(len, eqs.values())) == 42
    assert ("Xm", "Vm") not in eqs and ("Vm", "Vm") not in eqs


def test_lowering_solve_ignores_the_frozen_values(monkeypatch):
    frozen = classical.REP["Xm"], classical.REP["Vm"]
    zero = SuperMatrix.zero(SCALAR_ALPHABET, 3)
    monkeypatch.setitem(classical.REP, "Xm", zero)
    monkeypatch.setitem(classical.REP, "Vm", zero)
    assert classical.derive_lowering_matrices() == frozen


def test_one_classical_run_builds_the_lowering_equations_once(monkeypatch):
    # lowering-derivation solves the equations and counts them for its
    # detail string from one build: one affine_rows call per relation pair
    built = []
    rows = classical.affine_rows

    def spy(defect, n):
        built.append(n)
        return rows(defect, n)

    monkeypatch.setattr(classical, "_lowering_memo", [(), None])
    monkeypatch.setattr(classical, "affine_rows", spy)
    reports = run_checks("classical", CheckConfig())
    assert [r.status for r in reports] == ["pass"] * len(reports)
    assert len(built) == len(classical.lowering_equations()) == 12


def test_lowering_solve_follows_a_rescaling_automorphism(monkeypatch):
    # Xp -> 9 Xp, Vp -> 3 Vp fixes every bracket once Xm -> Xm/9, Vm -> Vm/3
    xm, vm = classical.REP["Xm"], classical.REP["Vm"]
    monkeypatch.setitem(classical.REP, "Xp", classical.REP["Xp"].scale(rat(9)))
    monkeypatch.setitem(classical.REP, "Vp", classical.REP["Vp"].scale(rat(3)))
    assert classical.derive_lowering_matrices() == (
        xm.scale(rat(Fraction(1, 9))), vm.scale(rat(Fraction(1, 3))))


def test_lowering_solve_follows_the_odd_sign_flip(monkeypatch):
    xm, vm = classical.REP["Xm"], classical.REP["Vm"]
    monkeypatch.setitem(classical.REP, "Vp", classical.REP["Vp"].scale(rat(-1)))
    assert classical.derive_lowering_matrices() == (xm, vm.scale(rat(-1)))


def test_lowering_solve_rejects_an_inconsistent_raising_part(monkeypatch):
    # [Xp, Xm] = 2H wants Xm/2 while {Vp, Vp} = Xp/2 already fails
    monkeypatch.setitem(classical.REP, "Xp", classical.REP["Xp"].scale(rat(2)))
    with pytest.raises(ValueError, match="do not fix Xm and Vm"):
        classical.derive_lowering_matrices()


def test_r2_embedding_matches_reference_matrix():
    assert classical.r2().expand() == _r2_target_matrix()


def test_schouten_triangular():
    assert classical.schouten(classical.r1()).is_zero()
    assert classical.schouten(classical.r2()).is_zero()


def test_schouten_r3_nonzero_but_invariant():
    s3 = classical.schouten(classical.r3(Scalar.one()))
    assert not s3.is_zero()
    assert classical.ad_invariance_check(s3)


def test_schouten_scales_quadratically():
    s_1 = classical.schouten(classical.r3(Scalar.one()))
    for t in map(rat, (2, -3, Fraction(1, 2))):
        assert classical.schouten(classical.r3(t)) == s_1.scale(t * t)


def test_parameter_absorbed_by_linearity():
    r_1 = classical.r3(Scalar.one()).expand()
    for t in map(rat, (2, -3, Fraction(1, 2))):
        assert classical.r3(t).expand().scale(rat(2) * P) == r_1.scale(rat(2) * P * t)


def test_invariant_element():
    assert classical.ad_invariance_check(classical.ad_invariant_element())


def test_h_tensor_h_not_invariant():
    omega = kron(classical.REP["H"], classical.REP["H"])
    assert not classical.ad_invariance_check(omega)


def test_zero_is_invariant():
    assert classical.ad_invariance_check(SuperMatrix.zero(SCALAR_ALPHABET, 9))
    assert classical.ad_invariance_check(SuperMatrix.zero(SCALAR_ALPHABET, 27))


def test_families_fully_symbolic():
    assert classical.family_coboundary_check(classical.family_one())
    assert classical.family_coboundary_check(classical.family_two())


def test_family_two_specializes_to_r2():
    special = dict(classical.family_two())[(1, 0, 0)]
    assert special.expand() == classical.r2().expand()


def test_odd_probe_not_coboundary_compatible():
    probe = classical.RMatrixExpr([(Scalar.one(), "H", "Vp")])
    s = classical.schouten(probe)
    assert not s.is_zero()
    assert classical.family_coboundary_check([((), probe)]) is False


def _wedges(*terms):
    return classical.RMatrixExpr([(rat(c), x, y) for c, x, y in terms])


def test_family_groups_are_the_coefficients_of_each_monomial():
    # [[r, r]] of x^2 H^Xp + xy Xp^Xm + y^2 H^Xm at x = 2, y = -1 (it is
    # homogeneous of degree 4) against the groups evaluated there
    groups = classical.family_groups(classical.family_one())
    assert sorted(groups) == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    r = _wedges((4, "H", "Xp"), (-2, "Xp", "Xm"), (1, "H", "Xm"))
    total = SuperMatrix.zero(SCALAR_ALPHABET, 27)
    for (i, j), m in groups.items():
        total = total + m.scale(rat(2 ** i * (-1) ** j))
    assert classical.schouten(r) == total
    # one piece alone is its own Schouten bracket
    assert classical.family_groups([((1,), classical.r2())]) == {
        (2,): classical.schouten(classical.r2())}


def test_family_one_with_a_doubled_cross_term_fails():
    pieces = dict(classical.family_one())
    pieces[(1, 1)] = _wedges((2, "Xp", "Xm"))
    assert classical.family_coboundary_check(list(pieces.items())) is False


def test_family_two_with_a_halved_odd_wedge_fails():
    pieces = dict(classical.family_two())
    pieces[(0, 1, 0)] = _wedges((1, "Xp", "Xm"), (1, "Vp", "Vm"))
    assert classical.family_coboundary_check(list(pieces.items())) is False


def test_families_are_decided_by_monomial_not_by_piece():
    # the Xp^Xm piece of family_one is not coboundary-compatible alone; only
    # the whole (2, 2) group, with B(H^Xp, H^Xm), is ad-invariant
    cross = dict(classical.family_one())[(1, 1)]
    assert classical.family_coboundary_check([((1, 1), cross)]) is False
    assert classical.family_coboundary_check(classical.family_one())


def test_family_pieces_of_mixed_parity_are_rejected():
    with pytest.raises(ValueError, match="mixed parity"):
        classical.family_groups([((1,), classical.r2()), ((0,), _wedges((1, "H", "Vp")))])


def _full_basis_invariant(omega):
    arity = {9: 2, 27: 3}[omega.n]
    return all((dx @ omega) == (omega @ dx) for dx in
               (classical.coproduct_embedding(name, arity) for name in classical.BASIS))


@pytest.mark.parametrize("arity", [2, 3])
def test_odd_coproducts_generate_the_even_ones(arity):
    vp = classical.coproduct_embedding("Vp", arity)
    vm = classical.coproduct_embedding("Vm", arity)
    embed = lambda name, c: classical.coproduct_embedding(name, arity).scale(rat(c))
    assert vp @ vp == embed("Xp", Fraction(1, 4))
    assert vm @ vm == embed("Xm", Fraction(-1, 4))
    assert (vp @ vm) + (vm @ vp) == embed("H", Fraction(-1, 2))


def test_odd_generators_give_the_full_basis_verdict():
    probe = classical.schouten(_wedges((1, "H", "Vp")))
    cases = [kron(classical.REP["H"], classical.REP["H"]).scale(rat(2)),
             classical.ad_invariant_element(),
             classical.schouten(classical.r3(Scalar.one())), probe]
    for family in (classical.family_one(), classical.family_two()):
        cases += classical.family_groups(family).values()
    cases.append(classical.schouten(dict(classical.family_one())[(1, 1)]))
    verdicts = [classical.ad_invariance_check(m) for m in cases]
    assert verdicts == [_full_basis_invariant(m) for m in cases]
    assert verdicts[:4] == [False, True, True, False] and not verdicts[-1]


def test_one_run_builds_each_coproduct_embedding_once(monkeypatch):
    built = []
    reduce = classical.reduce

    def spy(fn, legs):
        name, = (n for n in classical.BASIS for leg in legs if leg is classical.REP[n])
        built.append((name, len(legs)))
        return reduce(fn, legs)

    classical.coproduct_embedding.cache_clear()
    monkeypatch.setattr(classical, "reduce", spy)
    try:
        reports = run_checks("r-matrix", CheckConfig())
    finally:
        classical.coproduct_embedding.cache_clear()
    assert [r.status for r in reports] == ["pass"] * len(reports)
    # one reduce per leg position of each embedding built
    assert sorted(built) == sorted((name, arity) for name in ("Vp", "Vm")
                                   for arity in (2, 3) for _ in range(arity))


def test_one_r_matrix_run_brackets_r3_once(monkeypatch):
    # modified-cybe and parameter-absorption read one [[r3(1), r3(1)]]
    unit = classical.r3(Scalar.one()).terms
    bracketed = []
    schouten = classical.schouten

    def spy(expr):
        bracketed.append(expr.terms == unit)
        return schouten(expr)

    classical.r3_schouten.cache_clear()
    monkeypatch.setattr(classical, "schouten", spy)
    reports = run_checks("r-matrix", CheckConfig())
    assert [r.status for r in reports] == ["pass"] * len(reports)
    assert bracketed.count(True) == 1
    assert len(bracketed) == 4


def test_mixed_parity_wedge_rejected():
    expr = classical.RMatrixExpr([(Scalar.one(), "H", "Xp"),
                                  (Scalar.one(), "H", "Vp")])
    with pytest.raises(ValueError):
        expr.parity()


def test_coproduct_embedding_is_a_sum_of_one_leg_images():
    one = SuperMatrix.identity(SCALAR_ALPHABET, 3)
    vp = classical.REP["Vp"]
    assert classical.coproduct_embedding("Vp", 2) == kron(vp, one) + kron(one, vp)
    three = classical.coproduct_embedding("Vp", 3)
    assert three == (kron(kron(vp, one), one) + kron(one, kron(vp, one))
                     + kron(one, kron(one, vp)))
