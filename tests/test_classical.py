from fractions import Fraction
from functools import reduce

import pytest

from ospq.scalars import Scalar, rat, P
from ospq.freealg import SCALAR_ALPHABET, SuperPoly, TensorElement
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


def test_lowering_rows_read_only_the_unknowns_each_relation_reads(monkeypatch):
    # a relation's defect is evaluated at 0 and at the unit vectors of the
    # Xm or Vm entries it reads: 75 evaluations, where all 18 unknowns for
    # each of the 12 relations take 228; the rows are those of the full build
    evaluations = []
    rows = classical.affine_rows

    def spy(defect, n):
        def counted(values):
            evaluations.append(n)
            return defect(values)
        return rows(counted, n)

    monkeypatch.setattr(classical, "_lowering_memo", [(), None])
    monkeypatch.setattr(classical, "affine_rows", spy)
    eqs = classical.lowering_equations()
    assert len(evaluations) == 75
    assert eqs == {pair: rows(lambda values, pair=pair: [classical.relation_defect(
                       {**classical.REP, **classical._lowering(values)}, *pair)], 18)
                   for pair in eqs}


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
    assert classical.schouten(classical.r1()).is_zero
    assert classical.schouten(classical.r2()).is_zero


def test_schouten_r3_nonzero_but_invariant():
    s3 = classical.schouten(classical.r3(Scalar.one()))
    assert not s3.is_zero
    assert classical.ad_invariance_check(s3)


def test_modified_cybe_in_standard_form():
    # [[r3(1), r3(1)]] = -[Omega12, Omega23], 18 terms on each side; the
    # identity with the other sign fails
    s3, bracket = classical.r3_schouten(), classical.omega_commutator()
    assert len(s3.terms()) == len(bracket.terms()) == 18
    assert s3 == -bracket
    assert s3 != bracket


def test_pbw_rewriting_is_confluent_in_all_degrees():
    # every left side has length 2, so every ambiguity is an overlap of
    # length 3, and a clean overlap_check(3) gives confluence in all degrees
    # (Bergman's diamond lemma): a normal form decides zero in U(osp(1|2))
    assert len(classical.PBW) == 12
    assert {len(lhs) for lhs in classical.PBW.rules} == {2}
    assert classical.PBW.overlap_check(3) == []


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


def _tensor(*terms):
    """A tensor over the basis from (coefficient, leg, leg, ...) terms."""
    return TensorElement(classical.ALPHABET, len(terms[0]) - 1,
                         {tuple((x,) for x in legs): rat(c) for c, *legs in terms})


def test_h_tensor_h_not_invariant():
    assert not classical.ad_invariance_check(_tensor((1, "H", "H")))


def test_zero_is_invariant():
    assert classical.ad_invariance_check(TensorElement.zero(classical.ALPHABET, 2))
    assert classical.ad_invariance_check(TensorElement.zero(classical.ALPHABET, 3))


def test_odd_tensors_are_rejected_by_the_ad_invariance_check():
    with pytest.raises(ValueError, match="even tensors"):
        classical.ad_invariance_check(_tensor((1, "H", "Vp")))


def test_families_fully_symbolic():
    assert classical.family_coboundary_check(classical.family_one())
    assert classical.family_coboundary_check(classical.family_two())


def test_family_one_solves_the_classical_ybe():
    # [[r, r]] = 0 for every member of family_one; of family_two only the
    # xz and y^2 groups are nonzero
    assert all(g.is_zero for g in classical.family_groups(classical.family_one()).values())
    groups = classical.family_groups(classical.family_two())
    assert {m: len(g.terms()) for m, g in groups.items() if not g.is_zero} == {
        (1, 0, 1): 18, (0, 2, 0): 18}


def test_family_two_specializes_to_r2():
    special = dict(classical.family_two())[(1, 0, 0)]
    assert special.expand() == classical.r2().expand()


def test_odd_probe_not_coboundary_compatible():
    probe = classical.RMatrixExpr([(Scalar.one(), "H", "Vp")])
    s = classical.schouten(probe)
    assert not s.is_zero
    assert classical.family_coboundary_check([((), probe)]) is False


def _wedges(*terms):
    return classical.RMatrixExpr([(rat(c), x, y) for c, x, y in terms])


def test_family_groups_are_the_coefficients_of_each_monomial():
    # [[r, r]] of x^2 H^Xp + xy Xp^Xm + y^2 H^Xm at x = 2, y = -1 (it is
    # homogeneous of degree 4) against the groups evaluated there
    groups = classical.family_groups(classical.family_one())
    assert sorted(groups) == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
    r = _wedges((4, "H", "Xp"), (-2, "Xp", "Xm"), (1, "H", "Xm"))
    total = TensorElement.zero(classical.ALPHABET, 3)
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
    return all(classical.PBW.normal_form(dx * omega - omega * dx).is_zero for dx in
               (classical.coproduct(name, omega.arity) for name in classical.BASIS))


@pytest.mark.parametrize("arity", [2, 3])
def test_odd_coproducts_generate_the_even_ones(arity):
    # in PBW normal form: Delta(Vp)^2 = Delta(Xp)/4, Delta(Vm)^2 = -Delta(Xm)/4
    # and {Delta(Vp), Delta(Vm)} = -Delta(H)/2
    vp = classical.coproduct("Vp", arity)
    vm = classical.coproduct("Vm", arity)
    nf = classical.PBW.normal_form
    embed = lambda name, c: classical.coproduct(name, arity).scale(rat(c))
    assert nf(vp * vp) == embed("Xp", Fraction(1, 4))
    assert nf(vm * vm) == embed("Xm", Fraction(-1, 4))
    assert nf(vp * vm + vm * vp) == embed("H", Fraction(-1, 2))


def _verdict_cases():
    """2H ox H, Omega, [[r3, r3]], the H^Vp probe, the family groups and the
    lone Xp^Xm piece of family_one."""
    cases = [_tensor((2, "H", "H")), classical.ad_invariant_element(),
             classical.schouten(classical.r3(Scalar.one())),
             classical.schouten(_wedges((1, "H", "Vp")))]
    for family in (classical.family_one(), classical.family_two()):
        cases += classical.family_groups(family).values()
    cases.append(classical.schouten(dict(classical.family_one())[(1, 1)]))
    return cases


def test_odd_generators_give_the_full_basis_verdict():
    cases = _verdict_cases()
    verdicts = [classical.ad_invariance_check(t) for t in cases]
    assert verdicts == [_full_basis_invariant(t) for t in cases]
    assert verdicts[:4] == [False, True, True, False] and not verdicts[-1]


# ----------------------------------------------------------------------
# The 27x27 route as an independent oracle: REP ox REP ox REP is injective on
# g ox g ox g, so the tensor verdicts are the matrix verdicts.
# ----------------------------------------------------------------------

def _graded_flip():
    """The 9x9 graded flip u ox v -> (-1)^{|u||v|} v ox u (index 2 is odd)."""
    out = SuperMatrix.zero(SCALAR_ALPHABET, 9)
    one = SuperPoly.one(SCALAR_ALPHABET)
    for i in range(3):
        for k in range(3):
            out.entries[3 * k + i][3 * i + k] = -one if i == k == 1 else one
    return out


def _matrix_schouten(expr):
    """[[r, r]] as the 27x27 sum of graded matrix commutators of the legs
    kron(r, 1), kron(1, r) and kron(r, 1) with legs 2 and 3 flipped."""
    r, one = expr.expand(), SuperMatrix.identity(SCALAR_ALPHABET, 3)
    flip23 = kron(one, _graded_flip())
    r12, r23 = kron(r, one), kron(one, r)
    r13 = flip23 @ r12 @ flip23
    sign = rat((-1) ** expr.parity())

    def gcomm(a, b):
        return (a @ b) - (b @ a).scale(sign)
    return gcomm(r12, r13) + gcomm(r12, r23) + gcomm(r13, r23)


def _oracle_exprs():
    """r1, r2, r3(1), the H^Vp probe and the six family pieces."""
    exprs = [classical.r1(), classical.r2(), classical.r3(Scalar.one()),
             _wedges((1, "H", "Vp"))]
    for family in (classical.family_one(), classical.family_two()):
        exprs += [expr for _, expr in family]
    return exprs


@pytest.mark.parametrize("index", range(10))
def test_schouten_tensor_maps_to_the_matrix_schouten(index):
    expr = _oracle_exprs()[index]
    assert classical.rep_image(classical.schouten(expr)) == _matrix_schouten(expr)


def _matrix_invariant(m):
    """Does m commute with the 3**k matrix images of Delta(x), x in BASIS?"""
    one = SuperMatrix.identity(SCALAR_ALPHABET, 3)
    arity = {9: 2, 27: 3}[m.n]
    for name in classical.BASIS:
        dx = SuperMatrix.zero(SCALAR_ALPHABET, m.n)
        for slot in range(arity):
            legs = [classical.REP[name] if k == slot else one for k in range(arity)]
            dx = dx + reduce(kron, legs)
        if dx @ m != m @ dx:
            return False
    return True


def test_tensor_verdicts_are_the_matrix_verdicts():
    cases = _verdict_cases()
    assert ([classical.ad_invariance_check(t) for t in cases]
            == [_matrix_invariant(classical.rep_image(t)) for t in cases])


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
    # the image of the tensor Delta(Vp) is the embedded coproduct
    one = SuperMatrix.identity(SCALAR_ALPHABET, 3)
    vp = classical.REP["Vp"]
    two = classical.rep_image(classical.coproduct("Vp", 2))
    assert two == kron(vp, one) + kron(one, vp)
    three = classical.rep_image(classical.coproduct("Vp", 3))
    assert three == (kron(kron(vp, one), one) + kron(one, kron(vp, one))
                     + kron(one, kron(one, vp)))
