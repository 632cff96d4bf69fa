"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is exact symbolic equality (no tolerances beyond the stated
series truncation weights).  Criterion 5 keeps the historically tabulated
metric reference form [[p,0,-1],[0,1,0],[1,0,0]] and certifies its exact
relation to the engine: the derived metric for R = exp(2p r) is
[[p/2,0,-1],[0,1,0],[1,0,0]], the reference form fails the metric equation
for that R, and it is the (3,1)-normalized unique solution for exp(4p r).
"""

import time

from ospq.scalars import Scalar, rat, P, HALF
from ospq.freealg import SuperPoly, SCALAR_ALPHABET
from ospq.supermatrix import (SuperMatrix, desuperize, ybe_check, exp_nilpotent,
                              partial_transpose_first)
from ospq.rewrite import span_contains, span_equal, RewriteSystem
from ospq import classical, frt, borel
from ospq.checks import (CheckConfig, quantum_r_target_matrix, _r2_target_matrix,
                         derived_metric_expected)

CONFIG = CheckConfig(truncation=16, seed=0)


def _report(number, name, ok, started, extra=""):
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{extra}]" if extra else ""
    line = f"ACCEPTANCE {number:2d} {status}: {name} ({elapsed:.2f}s){suffix}"
    print(line)
    from conftest import collected_acceptance_lines
    collected_acceptance_lines.append(line)
    return ok


def test_criterion_01_representation_fidelity():
    started = time.monotonic()
    ok = classical.rep_is_faithful_presentation()
    xm, vm = classical.derive_lowering_matrices()
    ok = ok and xm == classical.REP["Xm"] and vm == classical.REP["Vm"]
    ok = ok and classical.jacobi_holds_everywhere()
    assert _report(1, "all 15 superalgebra relations hold exactly in the "
                      "representation, lowering generators re-derived", ok, started)


def test_criterion_02_r_matrix_embedding():
    started = time.monotonic()
    ok = classical.r2().expand() == _r2_target_matrix()
    r = frt.quantum_r_matrix()
    ok = ok and r == quantum_r_target_matrix()
    ok = ok and r.entries[0][8] == SuperPoly.constant(SCALAR_ALPHABET, HALF * P * P)
    assert _report(2, "wedge embedding and nilpotent exponential reproduce the "
                      "9x9 matrices including the p^2/2 corner", ok, started)


def test_criterion_03_yang_baxter():
    started = time.monotonic()
    ok = ybe_check(desuperize(frt.quantum_r_matrix()))
    assert _report(3, "desuperized R satisfies the braid identity as exact "
                      "27x27 matrices", ok, started)


def test_criterion_04_triangularity():
    started = time.monotonic()
    ok = classical.schouten(classical.r1()).is_zero
    ok = ok and classical.schouten(classical.r2()).is_zero
    s3 = classical.schouten(classical.r3(Scalar.one()))
    ok = ok and not s3.is_zero and classical.ad_invariance_check(s3)
    ok = ok and classical.ad_invariance_check(classical.ad_invariant_element())
    assert _report(4, "Schouten brackets vanish for the triangular pair; the "
                      "third direction and the pairing element are ad-invariant",
                   ok, started)


def _metric_equation_holds(r, c):
    """R (C ox 1) R^{t1} == C ox 1 exactly, with the engine's graded transpose."""
    c = c.promote(r.alphabet)
    c_big = SuperMatrix.zero(r.alphabet, 9)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c_big.entries[3 * i + k][3 * j + k] = c.entries[i][j]
    return r @ c_big @ partial_transpose_first(r, graded=True) == c_big


def _normalized_metric(mat):
    """A 3x3 Scalar solution scaled so that its (3,1) entry is 1."""
    inv = mat[2][0].unit_inverse()
    return SuperMatrix.from_scalars([[inv * e for e in row] for row in mat])


def test_criterion_05_metric():
    started = time.monotonic()
    solutions = frt.derive_metric_solutions()
    one_dimensional = len(solutions) == 1
    derived = frt.metric_matrix()
    reference = SuperMatrix.from_scalars([
        [P, Scalar.zero(), rat(-1)],
        [Scalar.zero(), Scalar.one(), Scalar.zero()],
        [Scalar.one(), Scalar.zero(), Scalar.zero()],
    ])
    # the (3,1)-normalized representatives differ in the corner: p/2 against p
    differs_from_reference = derived != reference
    r = frt.quantum_r_matrix()
    derived_solves = _metric_equation_holds(r, derived)
    reference_fails = not _metric_equation_holds(r, reference)
    r4 = exp_nilpotent(classical.r2().expand(), rat(4) * P)
    solutions4 = frt.derive_metric_solutions(r4)
    reference_is_metric_of_r4 = (len(solutions4) == 1
                                 and _normalized_metric(solutions4[0]) == reference
                                 and _metric_equation_holds(r4, reference))
    ok = (one_dimensional and derived == derived_metric_expected()
          and differs_from_reference and derived_solves and reference_fails
          and reference_is_metric_of_r4)
    _report(5, "metric solution space is 1-dimensional; the tabulated "
               "reference form is the metric of exp(4p r), not of exp(2p r)",
            ok, started,
            extra="derived corner p/2 vs reference corner p")
    assert one_dimensional
    assert derived == derived_metric_expected()
    assert differs_from_reference, (
        "the derived metric now equals the tabulated reference "
        "[[p,0,-1],[0,1,0],[1,0,0]]; the engine no longer solves the metric "
        "equation for R = exp(2p r).  See the README section 'The tabulated "
        "metric (criterion 5)'.")
    assert derived_solves
    assert reference_fails, (
        "the tabulated reference form satisfies R (C ox 1) R^t1 = C ox 1 for "
        "R = exp(2p r); the derived metric would then not be unique")
    assert reference_is_metric_of_r4, (
        "the tabulated reference form is not the normalized unique metric of "
        "exp(4p r).  See the README section 'The tabulated metric "
        "(criterion 5)'.")


def test_criterion_06_rtt_certification():
    started = time.monotonic()
    pres = frt.presentation()
    rtt, orth = frt.eliminated_residuals()
    ok = all(pres.reduces_to_zero(f) for f in rtt + orth)
    relations = frt.defining_relations() + [frt.unimodularity_relation()]
    fwd, _ = span_contains(relations, rtt + orth, 4)
    rev, _ = span_contains(rtt + orth, relations, 4)
    ok = ok and fwd and rev
    assert _report(6, "all 81 exchange residuals reduce to zero after "
                      "elimination; mutual degree-4 span containment holds "
                      "both ways", ok, started)


def test_criterion_07_hopf_structure():
    started = time.monotonic()
    ok = frt.coproduct_respects_relations()
    ok = ok and frt.counit_annihilates_relations()
    ok = ok and all(left.is_zero and right.is_zero
                    for _, left, right in frt.antipode_axiom_defects())
    # classical limit: relations and constraints degenerate to the classical ones
    a = frt.ALPHABET
    grades = a.grades
    comms = []
    for x in a.letters:
        for y in a.letters:
            comms.append(SuperPoly.word(a, (x, y))
                         - SuperPoly.word(a, (y, x),
                                          rat((-1) ** (grades[x] * grades[y]))))
    comms += [SuperPoly.word(a, ("al", "al")), SuperPoly.word(a, ("de", "de"))]
    rel0 = [f.substitute_parameter(p=0) for f in frt.defining_relations()]
    ok = ok and span_equal(rel0, comms, 2, seed=CONFIG.seed, symbolic=False)
    elim = frt.EliminationMap()
    ok = ok and elim.e_image().substitute_parameter(p=0) == \
        SuperPoly.one(a) + SuperPoly.word(a, ("al", "de"))
    uni0 = frt.unimodularity_relation().substitute_parameter(p=0)
    ok = ok and uni0 == (SuperPoly.word(a, ("al", "de")) - SuperPoly.word(a, ("b", "c"))
                         + SuperPoly.word(a, ("a", "d")) - SuperPoly.one(a))
    assert _report(7, "coproduct is an algebra map, counit kills the ideal, "
                      "both antipode identities hold, and p=0 degenerates to "
                      "the classical constraints", ok, started)


def test_criterion_08_dual_exchange_span():
    started = time.monotonic()
    ok = borel.rll_span_matches_relations()
    assert _report(8, "dual residual span equals the dual relation span "
                      "(degree 2, both ways)", ok, started)


def test_criterion_09_ansatz():
    started = time.monotonic()
    w = CONFIG.truncation
    sols = [borel.particular_solution(w), borel.trivial_solution(w),
            borel.affine_solution(w)]
    ok = all(borel.check_ansatz_conditions(f) for f in sols)
    ok = ok and all(borel.verify_rll_solution(f, CONFIG.truncation) for f in sols)
    assert _report(9, "particular, trivial, and affine solutions satisfy the "
                      "division-free conditions and every dual relation at "
                      "truncation weight 16", ok, started)


def test_criterion_10_borel_coproducts():
    started = time.monotonic()
    w = CONFIG.truncation
    ok = (borel.delta_v(w) * borel.delta_v(w)
          == borel.delta_x(w).scale(rat("1/4")))
    ok = ok and all(borel.coproduct_relation_defect(n, w).is_zero
                    for n in borel.BOREL_RELATIONS)
    ok = ok and all(borel.coassociativity_defect(g, w).is_zero
                    for g in ("exp_sigma", "V", "H"))
    ok = ok and all(left.is_zero and right.is_zero
                    for left, right in borel.counit_defects(w).values())
    assert _report(10, "squared odd coproduct identity, homomorphism on the "
                       "Borel relations, coassociativity and counit at weight 16",
                   ok, started)


def test_criterion_11_negative_controls():
    started = time.monotonic()
    r = frt.quantum_r_matrix()
    bad = SuperMatrix(r.alphabet, [row[:] for row in r.entries])
    bad.entries[0][8] = SuperPoly.constant(SCALAR_ALPHABET, P * P)
    ok = not ybe_check(desuperize(bad))
    relations = frt.defining_relations()
    flipped = list(relations)
    flipped[0] = flipped[0].substitute_parameter() - rat(2) * (
        flipped[0] - flipped[0].substitute_parameter(p=0))
    ok = ok and not span_equal(relations, flipped, 3)
    pres = frt.presentation()
    rules = dict(pres.system.rules)
    dropped = next(l for l in sorted(rules, key=frt.ALPHABET.word_key)
                   if len(l) == 2)
    del rules[dropped]
    ok = ok and bool(RewriteSystem(frt.ALPHABET, rules).overlap_check(4))
    assert _report(11, "perturbed R fails the braid identity, a sign flip "
                       "breaks span equality, a dropped rule breaks the "
                       "diamond audit", ok, started)
