from fractions import Fraction

import pytest

from ospq.scalars import Scalar, rat, P
from ospq.freealg import SCALAR_ALPHABET
from ospq.supermatrix import SuperMatrix, kron
from ospq import classical
from ospq.checks import _r2_target_matrix


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
    t = Scalar.var("t")
    assert classical.schouten(classical.r3(t)) == \
        classical.schouten(classical.r3(Scalar.one())).scale(t * t)


def test_parameter_absorbed_by_linearity():
    t = Scalar.var("t")
    lhs = classical.r3(t).expand().scale(rat(2) * P)
    rhs = classical.r3(Scalar.one()).expand().scale(rat(2) * P * t)
    assert lhs == rhs


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
    special = classical.family_two(Scalar.one(), Scalar.zero(), Scalar.zero())
    assert special.expand() == classical.r2().expand()


def test_odd_probe_not_coboundary_compatible():
    probe = classical.RMatrixExpr([(Scalar.one(), "H", "Vp")])
    s = classical.schouten(probe)
    assert not s.is_zero()
    assert classical.family_coboundary_check(probe) is False


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
