"""Named verification checks and their reports.

Every check is a pure function (config) -> (passed, details).  The registry
maps CLI subcommands to ordered check lists; reports are stable-sorted by
check name and carry the configuration echo.
"""

from __future__ import annotations

import importlib.util
import sys
import time

from .scalars import Scalar, rat, P, HALF
from .freealg import SuperPoly, TensorElement
from .supermatrix import SuperMatrix, desuperize, kron, ybe_check
from . import borel


def _lazy(name):
    """The submodule ``name``, bound now and executed on first attribute
    access (the lazy-import recipe of the ``importlib`` docs), so a run
    compiles only the layers its checks touch: the Borel coproduct and
    ansatz groups never load ``rewrite``, ``frt`` or ``classical``.  A
    module already imported is returned as it is, so there is one copy."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


rewrite = _lazy("rewrite")
classical = _lazy("classical")
frt = _lazy("frt")


class CheckConfig:
    """The options a run passes to every check."""

    __slots__ = ("truncation", "seed")

    def __init__(self, truncation: int = borel.DEFAULT_TRUNCATION, seed: int = 0):
        self.truncation, self.seed = truncation, seed

    def as_dict(self):
        return {"truncation": self.truncation, "seed": self.seed}


class CheckReport:
    """One check's verdict; ``status`` is pass, fail or skipped."""

    __slots__ = ("name", "status", "details", "elapsed_ms", "config")

    def __init__(self, name: str, status: str, details: str, elapsed_ms: int,
                 config: dict = None):
        self.name, self.status, self.details = name, status, details
        self.elapsed_ms = elapsed_ms
        self.config = {} if config is None else config

    def as_dict(self):
        return {"name": self.name, "status": self.status, "details": self.details,
                "elapsed_ms": self.elapsed_ms, "config": self.config}


# ----------------------------------------------------------------------
# classical
# ----------------------------------------------------------------------

def check_bracket_table(config):
    defects = [pair for pair, d in classical.rep_defects() if not d.is_zero()]
    return not defects, (f"all 15 bracket relations hold in the matrix representation"
                         if not defects else f"defective pairs: {defects}")


def check_jacobi(config):
    bad = [(x, y, z) for x in classical.BASIS for y in classical.BASIS
           for z in classical.BASIS if classical.jacobi_defect(x, y, z)]
    return not bad, ("graded Jacobi identity holds for all 125 basis triples"
                     if not bad else f"failing triples: {bad[:5]}")


def check_lowering_derivation(config):
    xm, vm = classical.derive_lowering_matrices()
    ok = xm == classical.REP["Xm"] and vm == classical.REP["Vm"]
    eqs = [rows for rows in classical.lowering_equations().values() if rows]
    return ok, (f"{len(eqs)} relations give {sum(map(len, eqs))} linear equations "
                "in the 18 entries of Xm and Vm; their one solution over Q(p) "
                "is the frozen pair and satisfies all 15 relations"
                if ok else "derived lowering generators differ from the frozen ones")


# ----------------------------------------------------------------------
# r-matrix
# ----------------------------------------------------------------------

def _r2_target_matrix():
    half = HALF
    data = {(1, 3): half, (1, 5): -half, (1, 7): -half, (2, 6): half,
            (3, 9): half, (4, 8): -half, (5, 9): half, (7, 9): -half}
    rows = [[data.get((i, j), Scalar.zero()) for j in range(1, 10)]
            for i in range(1, 10)]
    return SuperMatrix.from_scalars(rows)


def quantum_r_target_matrix():
    p = P
    p2h = HALF * p * p
    data = {(1, 3): p, (1, 5): -p, (1, 7): -p, (1, 9): p2h, (2, 6): p,
            (3, 9): p, (4, 8): -p, (5, 9): p, (7, 9): -p}
    rows = [[(Scalar.one() if i == j else Scalar.zero()) + data.get((i, j), Scalar.zero())
             for j in range(1, 10)] for i in range(1, 10)]
    return SuperMatrix.from_scalars(rows)


def check_r2_embedding(config):
    m = classical.r2().expand()
    ok = m == _r2_target_matrix()
    return ok, ("wedge expansion of the triangular r-matrix reproduces the 9x9 form"
                if ok else "embedded r-matrix differs from the expected 9x9 form")


def check_r_exponential(config):
    r = frt.quantum_r_matrix()
    ok1 = r == quantum_r_target_matrix()
    corner = r.entries[0][8].coefficient(())
    ok2 = corner == HALF * P * P
    ok3 = r.substitute_parameter(p=0) == SuperMatrix.identity(r.alphabet, 9)
    ok = ok1 and ok2 and ok3
    return ok, (f"exp(2p r) matches the closed form; corner entry {corner}; "
                f"identity at p=0" if ok else "exponential mismatch")


def check_triangularity(config):
    s1 = classical.schouten(classical.r1())
    s2 = classical.schouten(classical.r2())
    ok = s1.is_zero and s2.is_zero
    return ok, ("both triangular r-matrices have vanishing Schouten bracket"
                if ok else "a Schouten bracket expected to vanish does not")


def check_modified_cybe(config):
    s3 = classical.r3_schouten()
    nonzero = not s3.is_zero
    inv = classical.ad_invariance_check(s3)
    omega = classical.ad_invariant_element()
    inv_omega = classical.ad_invariance_check(omega)
    standard = s3 == -classical.omega_commutator()
    ok = nonzero and inv and inv_omega and standard
    return ok, ("third r-matrix: nonzero ad-invariant Schouten bracket; "
                "the symmetric pairing element is ad-invariant" if ok else
                f"nonzero={nonzero} schouten-invariant={inv} pairing-invariant={inv_omega} "
                f"standard-form={standard}")


def check_parameter_absorption(config):
    # both identities are polynomials of degree <= 2 in t that hold at t = 0
    # (both sides vanish) and t = 1 (both sides agree), so t = 2 decides them
    t = rat(2)
    r_t, r_1 = classical.r3(t), classical.r3(Scalar.one())
    ok1 = classical.schouten(r_t) == classical.r3_schouten().scale(t * t)
    ok2 = r_t.expand().scale(rat(2) * P) == r_1.expand().scale(rat(2) * P * t)
    return ok1 and ok2, ("Schouten scales as t^2 and the parameter is absorbed "
                         "into the deformation parameter by linearity"
                         if ok1 and ok2 else f"scaling={ok1} absorption={ok2}")


def check_families(config):
    ok1 = classical.family_coboundary_check(classical.family_one())
    ok2 = classical.family_coboundary_check(classical.family_two())
    probe = classical.RMatrixExpr([(Scalar.one(), "H", "Vp")])
    probe_inv = classical.family_coboundary_check([((), probe)])
    ok = ok1 and ok2 and probe_inv is False
    return ok, (f"both families symbolically coboundary-compatible; "
                f"odd probe ad-invariance recorded as {probe_inv}")


def check_h_tensor_h_probe(config):
    omega = TensorElement(classical.ALPHABET, 2, {(("H",), ("H",)): rat(2)})
    ok = classical.ad_invariance_check(omega) is False
    return ok, "H ox H alone is not ad-invariant (negative control)" if ok else \
        "H ox H unexpectedly ad-invariant"


# ----------------------------------------------------------------------
# ybe
# ----------------------------------------------------------------------

def check_ybe(config):
    r = frt.quantum_r_matrix()
    ok1 = ybe_check(desuperize(r))
    ok2 = ybe_check(SuperMatrix.identity(r.alphabet, 9))
    return ok1 and ok2, ("desuperized R satisfies the braid identity exactly "
                         "as 27x27 matrices" if ok1 and ok2 else "braid identity fails")


def check_ybe_negative(config):
    r = frt.quantum_r_matrix()
    perturbed = SuperMatrix(r.alphabet, [row[:] for row in r.entries])
    perturbed.entries[0][8] = SuperPoly.constant(r.alphabet, P * P)
    ok = not ybe_check(desuperize(perturbed))
    return ok, ("perturbing the corner entry breaks the braid identity"
                if ok else "perturbed matrix unexpectedly satisfies the identity")


def check_desuperize_involution(config):
    r = frt.quantum_r_matrix()
    ok = desuperize(desuperize(r)) == r
    return ok, "sign twist is an involution" if ok else "sign twist not involutive"


def check_metric_equation(config):
    from .supermatrix import partial_transpose_first, invert_unipotent
    r = frt.quantum_r_matrix()
    c1 = frt.metric_matrix().promote(r.alphabet)
    c1_big = kron(c1, SuperMatrix.identity(r.alphabet, 3))
    rt1 = partial_transpose_first(r, graded=True)
    lhs = r @ c1_big @ rt1
    ok1 = lhs == c1_big
    rt1_inv = invert_unipotent(rt1)
    ok2 = (rt1_inv @ rt1 == SuperMatrix.identity(r.alphabet, 9)
           and rt1 @ rt1_inv == SuperMatrix.identity(r.alphabet, 9))
    return ok1 and ok2, ("R (C ox 1) R^t1 = C ox 1 holds exactly; the transposed "
                         "matrix has a two-sided unipotent inverse"
                         if ok1 and ok2 else f"identity={ok1} inverse-two-sided={ok2}")


# ----------------------------------------------------------------------
# orthogonality / metric
# ----------------------------------------------------------------------

def check_metric_solution_space(config):
    sols = frt.derive_metric_solutions()
    ok = len(sols) == 1
    return ok, (f"metric solution space is 1-dimensional" if ok
                else f"solution space dimension {len(sols)}")


def derived_metric_expected():
    return SuperMatrix.from_scalars([
        [HALF * P, Scalar.zero(), rat(-1)],
        [Scalar.zero(), Scalar.one(), Scalar.zero()],
        [Scalar.one(), Scalar.zero(), Scalar.zero()],
    ])


def check_metric_value(config):
    c = frt.metric_matrix()
    ok = c == derived_metric_expected()
    from .serialize import format_poly
    entries = "; ".join(format_poly(e) for row in c.entries for e in row if not e.is_zero)
    return ok, (f"derived metric (normalized): nonzero entries {entries}"
                if ok else "derived metric changed (regression)")


def check_metric_classical_limit(config):
    c0 = frt.metric_matrix().substitute_parameter(p=0)
    anti = SuperMatrix.from_scalars([
        [Scalar.zero(), Scalar.zero(), rat(-1)],
        [Scalar.zero(), Scalar.one(), Scalar.zero()],
        [Scalar.one(), Scalar.zero(), Scalar.zero()],
    ])
    ok = c0 == anti
    return ok, ("p=0 metric is the classical antidiagonal pairing"
                if ok else "classical limit of the metric is off")


def check_orthogonality_reduction(config):
    pres = frt.presentation()
    _, orth = frt.eliminated_residuals()
    bad = [f for f in orth if not pres.reduces_to_zero(f)]
    return not bad, (f"all {len(orth)} orthogonality residuals reduce to zero"
                     if not bad else f"{len(bad)} residuals fail to reduce")


def check_unimodularity_regression(config):
    uni = frt.unimodularity_relation()
    a = frt.ALPHABET
    expected = (SuperPoly.word(a, ("al", "de")) - SuperPoly.word(a, ("b", "c"))
                + SuperPoly.word(a, ("a", "d")) - SuperPoly.word(a, ("a", "c"), HALF * P)
                - SuperPoly.one(a))
    ok = uni == expected
    return ok, (
        "derived unimodularity: al*de - b*c + a*d - (p/2)*a*c - 1"
        if ok else f"derived unimodularity changed: {uni!r}")


def check_e_square_identity(config):
    """The (2,2) orthogonality entry defines e as a square root."""
    pres = frt.presentation()
    a9 = frt.ALPHABET9
    res = frt.orthogonality_residuals()[4]  # (2,2) entry of T C T^t C^-1 - 1
    # substitute ga, be only; keep e as a letter
    images = frt.elimination_map().images
    res9 = res.substitute_letters({x: _relabel(images[x], a9) for x in ("ga", "be")})
    ee = SuperPoly.word(a9, ("e", "e"))
    target = (ee - SuperPoly.one(a9)
              - rat(2) * SuperPoly.word(a9, ("al", "de"))
              - SuperPoly.word(a9, ("a", "c"), P)
              + SuperPoly.word(a9, ("de", "de"), HALF * P))
    diff = res9 - target
    for w in diff.words():
        if "e" in w:
            return False, "dependent letter survives in the defining identity"
    ok = pres.reduces_to_zero(_relabel(diff, frt.ALPHABET))
    return ok, ("the (2,2) residual is exactly the square-root identity for "
                "the middle entry" if ok else "identity fails modulo the ideal")


def _relabel(poly, alphabet):
    """The same words and coefficients over the other alphabet."""
    return SuperPoly(alphabet, dict(poly._terms))


E_INVERSE_TAIL_ORDERS = (2, 3)


def check_e_inverse(config):
    """e times its truncated inverse, reduced by the presentation.

    Tail orders 2 and 3 reduce words of degree 8 and 10, while the overlap
    audit shows the rules confluent only on words up to
    ``frt.COMPLETION_DEGREE`` = 6.  Every rule lies in the ideal, so a zero
    normal form still proves the identity; above the audited degree a
    nonzero one would not refute it, since the normal form there may depend
    on the order in which rules are applied.  Reducing at the rightmost
    match, instead of from the left by right extension, keeps the 35 rules
    and the ``--export`` bytes, yet makes this check report "right inverse
    fails at tail order 2".
    """
    pres = frt.presentation()
    elim = frt.elimination_map()
    e = elim.e_image()
    for k in E_INVERSE_TAIL_ORDERS:
        einv = elim.e_inverse(tail_order=k)
        tail = elim.geometric_tail(tail_order=k)
        right = pres.normal_form(e * einv - SuperPoly.one(frt.ALPHABET) + tail)
        if not right.is_zero:
            return False, f"right inverse fails at tail order {k}"
        left = pres.normal_form(einv * e - SuperPoly.one(frt.ALPHABET))
        if left.min_degree() <= 4 and not left.is_zero:
            return False, f"left inverse has low-degree defect at tail order {k}"
    return True, ("e has the stated inverse: exact on the right up to the "
                  "geometric tail, and on the left up to filtration degree > 4")


# ----------------------------------------------------------------------
# rtt
# ----------------------------------------------------------------------

def _graded_commutators(alphabet):
    """xy - (-1)^{|x||y|} yx for every ordered pair of letters."""
    grades = alphabet.grades
    return [SuperPoly.word(alphabet, (x, y))
            - SuperPoly.word(alphabet, (y, x), rat((-1) ** (grades[x] * grades[y])))
            for x in alphabet.letters for y in alphabet.letters]


def check_rtt_classical_limit(config):
    residuals = frt.rtt_residuals()
    comms = _graded_commutators(frt.ALPHABET9)
    at0 = [f.substitute_parameter(p=0) for f in residuals]
    ok, detail = rewrite.span_contains(comms, at0, 2, seed=config.seed, symbolic=False)
    return ok, ("at p=0 every exchange residual is a graded commutator"
                if ok else detail)


def check_rtt_reduction(config):
    pres = frt.presentation()
    rtt, _ = frt.eliminated_residuals()
    failing = [pres.normal_form(f) for f in rtt if not pres.reduces_to_zero(f)]
    if failing:
        from .serialize import format_poly
        return False, (f"{len(failing)} residuals fail to reduce; first: "
                       f"{format_poly(failing[0])}")
    return True, (f"all 81 exchange residuals reduce to zero "
                  f"({len(rtt)} nonzero before reduction)")


def check_overlaps(config):
    at2 = frt.presentation().at2
    bad = at2.overlap_check(4)
    return not bad, (f"diamond audit clean to degree 4 over {len(at2)} rules"
                     if not bad else f"{len(bad)} unresolved overlaps")


def check_overlap_negative(config):
    at2 = frt.presentation().at2
    rules = dict(at2.rules)
    dropped = max(rules, key=lambda lhs: (len(lhs), at2.alphabet.word_key(lhs)))
    # drop a low-degree rule instead: removing a completion rule may stay confluent
    for lhs in sorted(rules, key=at2.alphabet.word_key):
        if len(lhs) == 2:
            dropped = lhs
            break
    del rules[dropped]
    weakened = rewrite.RewriteSystem(at2.alphabet, rules, one=1)
    bad = weakened.overlap_check(4)
    return bool(bad), (f"dropping one rule leaves {len(bad)} unresolved overlaps"
                       if bad else "dropping a rule unexpectedly stayed confluent")


def check_flatness(config):
    """Normal-word counts match the classical algebra degree by degree.

    Together with the clean overlap audit this certifies the deformation is
    flat in the audited window, so the p-saturation performed during
    completion adds nothing there.
    """
    pres = frt.presentation()
    rel0 = [f.substitute_parameter(p=0) for f in pres.all_relations()]
    classical_system = rewrite.complete(frt.ALPHABET, rel0, max_degree=6)
    counts = []
    for degree in range(5):
        words = [w for w in frt.ALPHABET.words_up_to(degree) if len(w) == degree]
        deformed = sum(1 for w in words if pres.at2.is_normal(w))
        classical_count = sum(1 for w in words if classical_system.is_normal(w))
        counts.append((degree, deformed, classical_count))
    ok = all(d == c for _, d, c in counts)
    detail = ", ".join(f"deg {g}: {d}/{c}" for g, d, c in counts)
    return ok, (f"normal-word counts match the classical algebra ({detail})"
                if ok else f"flatness defect: {detail}")


def check_rtt_span(config):
    pres = frt.presentation()
    rtt, orth = frt.eliminated_residuals()
    residuals = rtt + orth
    relations = pres.all_relations()
    ok1, d1 = rewrite.span_contains(relations, residuals, 4)
    if not ok1:
        return False, f"residuals escape the relation span: {d1}"
    ok2, d2 = rewrite.span_contains(residuals, relations, 4)
    if not ok2:
        return False, f"relations escape the residual span: {d2}"
    return True, "mutual degree-4 span containment holds both ways"


def check_span_negative(config):
    relations = frt.defining_relations()
    flipped = list(relations)
    flipped[0] = _flip_sign_of_deformation(flipped[0])
    ok = not rewrite.span_equal(relations, flipped, 3)
    return ok, ("sign-flipped relation breaks span equality"
                if ok else "sign flip not detected")


def _flip_sign_of_deformation(poly):
    return poly - rat(2) * (poly - poly.substitute_parameter(p=0))


def check_relation_membership(config):
    """Every defining relation really is in the degree-4 residual span, and a
    coefficient perturbation of the odd exchange relation is not."""
    rtt, orth = frt.eliminated_residuals()
    residuals = rtt + orth
    a = frt.ALPHABET
    good = frt.defining_relations()[10]           # [c,al] = p c de
    perturbed = (SuperPoly.word(a, ("c", "al")) - SuperPoly.word(a, ("al", "c"))
                 - SuperPoly.word(a, ("c", "de")))  # coefficient 1 instead of p
    ok_good, _ = rewrite.span_contains(residuals, [good], 4)
    ok_bad, _ = rewrite.span_contains(residuals, [perturbed], 4)
    ok = ok_good and not ok_bad
    return ok, ("the deformed odd exchange relation is a member; the same "
                "relation with unit coefficient is not" if ok
                else f"member={ok_good} perturbed-member={ok_bad}")


# ----------------------------------------------------------------------
# hopf
# ----------------------------------------------------------------------

def check_coproduct_homomorphism(config):
    ok = frt.coproduct_respects_relations()
    return ok, ("coproduct maps every defining relation to zero in the "
                "tensor square" if ok else "coproduct fails on a relation")


def check_counit(config):
    ok = frt.counit_annihilates_relations()
    e_val = frt.counit(frt.elimination_map().e_image())
    ok2 = e_val == Scalar.one()
    return ok and ok2, ("counit annihilates the relation ideal; middle entry "
                        "has counit 1" if ok and ok2 else "counit defect")


def check_antipode(config):
    defects = frt.antipode_axiom_defects()
    bad = [(ij, l, r) for ij, l, r in defects if not (l.is_zero and r.is_zero)]
    return not bad, ("both antipode matrix identities hold entry-wise after "
                     "reduction" if not bad else f"{len(bad)} entries fail")


def check_coassociativity(config):
    hopf = frt.hopf_maps()
    bad = [x for x in frt.ALPHABET.letters if hopf.coassociativity_defect(x)]
    return not bad, ("coproduct is coassociative on all six generators"
                     if not bad else f"failing generators: {bad}")


def check_counit_axiom(config):
    hopf = frt.hopf_maps()
    ok = not any(any(hopf.counit_defects(x)) for x in frt.ALPHABET.letters)
    return ok, ("counit axiom holds on both legs for all generators"
                if ok else "counit axiom fails")


def check_s_squared(config):
    images = frt.s_squared_images()
    a = frt.ALPHABET
    p = P
    expected = {
        "a": SuperPoly.letter(a, "a") + SuperPoly.letter(a, "c", p),
        "al": SuperPoly.letter(a, "al") + SuperPoly.letter(a, "de", p),
        "b": (SuperPoly.letter(a, "b") + SuperPoly.letter(a, "d", p)
              - SuperPoly.letter(a, "a", p) - SuperPoly.letter(a, "c", p * p)),
        "c": SuperPoly.letter(a, "c"),
        "de": SuperPoly.letter(a, "de"),
        "d": SuperPoly.letter(a, "d") - SuperPoly.letter(a, "c", p),
    }
    ok = images == expected
    at0 = all(images[x].substitute_parameter(p=0) == SuperPoly.letter(a, x)
              for x in a.letters)
    return ok and at0, ("S^2 is the recorded shift along the deformation and "
                        "the identity at p=0" if ok and at0
                        else "S^2 images changed (regression)")


def check_hopf_classical_limit(config):
    a = frt.ALPHABET
    comms = _graded_commutators(a)
    rel0 = [f.substitute_parameter(p=0) for f in frt.defining_relations()]
    ok1 = rewrite.span_equal(rel0, comms, 2, seed=config.seed, symbolic=False)
    elim = frt.elimination_map()
    e0 = elim.e_image().substitute_parameter(p=0)
    ga0 = elim.images["ga"].substitute_parameter(p=0)
    be0 = elim.images["be"].substitute_parameter(p=0)
    exp_e = SuperPoly.one(a) + SuperPoly.word(a, ("al", "de"))
    exp_ga = SuperPoly.word(a, ("al", "c")) - SuperPoly.word(a, ("de", "a"))
    exp_be = SuperPoly.word(a, ("al", "d")) - SuperPoly.word(a, ("de", "b"))
    ok2 = e0 == exp_e and ga0 == exp_ga and be0 == exp_be
    uni0 = frt.unimodularity_relation().substitute_parameter(p=0)
    exp_uni = (SuperPoly.word(a, ("al", "de")) - SuperPoly.word(a, ("b", "c"))
               + SuperPoly.word(a, ("a", "d")) - SuperPoly.one(a))
    ok3 = uni0 == exp_uni
    ok = ok1 and ok2 and ok3
    return ok, ("p=0 degenerates to the graded-commutative function algebra "
                "with the classical constraints" if ok
                else f"relations={ok1} substitutions={ok2} constraint={ok3}")


# ----------------------------------------------------------------------
# borel
# ----------------------------------------------------------------------

def check_borel_rll_span(config):
    ok = borel.rll_span_matches_relations()
    return ok, ("dual residual span equals the exchange relation span "
                "(degree 2, both ways)" if ok else "dual spans differ")


def check_borel_rll_classical(config):
    a = borel.RLL_ALPHABET
    comms = _graded_commutators(a)
    res0 = [f.substitute_parameter(p=0) for f in borel.rll_residuals()]
    ok = rewrite.span_equal(res0, comms, 2, seed=config.seed, symbolic=False)
    return ok, ("p=0 dual relations state graded commutativity with vanishing "
                "odd squares" if ok else "classical limit mismatch")


def _ansatz_solutions(w):
    return {
        "particular": borel.particular_solution(w),
        "trivial": borel.trivial_solution(w),
        "affine": borel.affine_solution(w),
    }


def check_ansatz_conditions(config):
    bad = [name for name, f in _ansatz_solutions(config.truncation).items()
           if not borel.check_ansatz_conditions(f)]
    return not bad, ("division-free ansatz conditions hold for the particular, "
                     "trivial, and affine solutions" if not bad
                     else f"failing: {bad}")


def check_rll_solutions(config):
    w = config.truncation
    bad = [name for name, f in _ansatz_solutions(w).items()
           if not borel.verify_rll_solution(f, w)]
    return not bad, (f"all three ansatz solutions satisfy every dual relation "
                     f"at truncation weight {w}" if not bad else f"failing: {bad}")


def check_ansatz_prefix_consistency(config):
    w = config.truncation
    f_hi = borel.particular_solution(w)
    f_lo = borel.particular_solution(max(w - 2, 4))
    ok_hi = borel.check_ansatz_conditions(f_hi)
    ok_lo = borel.check_ansatz_conditions(f_lo)
    # K at the working order, cut down to the lower order's bound
    k_cut = borel.BorelSeries(f_lo.K.weight_bound, dict(f_hi.K.terms()))
    ok = ok_hi and ok_lo and k_cut == f_lo.K
    return ok, ("a pass at the working order restricts to a pass one order "
                "lower with identical coefficients" if ok else "prefix breaks")


def check_coproduct_square(config):
    # at p = 1: p Delta(v)^2 = Delta(K)^2 - 1 ox 1, and Delta(K) (S(K) ox S(K)) = 1 ox 1
    hopf = borel.hopf_maps()
    delta, s_k = hopf.images["delta"], hopf.images["antipode"]["K"]
    ok = not (hopf.delta.word(("v", "v")) - hopf.delta.word(("K", "K")) + delta["1"])
    grouplike = not (delta["K"] * borel.ExactBorelTensor.of(s_k, s_k) - delta["1"])
    return ok and grouplike, ("squared odd coproduct reproduces the deformed "
                              "primitive form; group-likes invert" if ok and grouplike
                              else f"square={ok} grouplike={grouplike}")


def check_borel_homomorphism(config):
    bad = [name for name in borel.BOREL_RELATIONS if borel.coproduct_relation_defect(name)]
    # the exact algebra maps into the series at the truncation weight
    sanity = [name for name in borel.BOREL_RELATIONS
              if borel.borel_relation_defect(name, config.truncation)]
    ok = not bad and not sanity
    return ok, ("coproduct extends to an algebra map on all Borel relations"
                if ok else f"failing relations: {bad or sanity}")


def _failing_generators(defects):
    """The Borel generators at least one of whose exact defects is nonzero."""
    return [g for g in borel.BOREL_ALPHABET.letters if any(defects(g))]


def check_borel_coassociativity(config):
    hopf = borel.hopf_maps()
    bad = _failing_generators(lambda g: [hopf.coassociativity_defect(g)])
    return not bad, ("coassociativity exact at every weight for all three generators"
                     if not bad else f"failing: {bad}")


def check_borel_counit(config):
    bad = _failing_generators(borel.hopf_maps().counit_defects)
    return not bad, ("counit axiom holds on both legs for the three generators"
                     if not bad else f"failing: {bad}")


def check_borel_antipode_candidate(config):
    bad = _failing_generators(borel.hopf_maps().antipode_defects)
    detail = ("derived antipode candidate: S(e^sigma) = e^-sigma, "
              "S(V) = -e^-sigma V, S(H) = -H e^{2 sigma} + (p/4) X; "
              "both axiom sides vanish on the generators")
    return not bad, detail if not bad else f"axiom fails for: {bad}"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

CHECKS = {
    "classical": [
        ("classical.bracket-table", check_bracket_table),
        ("classical.jacobi-identity", check_jacobi),
        ("classical.lowering-derivation", check_lowering_derivation),
    ],
    "r-matrix": [
        ("r-matrix.wedge-embedding", check_r2_embedding),
        ("r-matrix.exponential", check_r_exponential),
        ("r-matrix.triangularity", check_triangularity),
        ("r-matrix.modified-cybe", check_modified_cybe),
        ("r-matrix.parameter-absorption", check_parameter_absorption),
        ("r-matrix.families", check_families),
        ("r-matrix.pairing-probe", check_h_tensor_h_probe),
    ],
    "ybe": [
        ("ybe.braid-identity", check_ybe),
        ("ybe.negative-control", check_ybe_negative),
        ("ybe.sign-twist-involution", check_desuperize_involution),
        ("ybe.metric-equation", check_metric_equation),
    ],
    "orthogonality": [
        ("orthogonality.metric-solution-space", check_metric_solution_space),
        ("orthogonality.metric-value", check_metric_value),
        ("orthogonality.metric-classical-limit", check_metric_classical_limit),
        ("orthogonality.residuals-reduce", check_orthogonality_reduction),
        ("orthogonality.unimodularity", check_unimodularity_regression),
        ("orthogonality.square-root-identity", check_e_square_identity),
        ("orthogonality.middle-inverse", check_e_inverse),
    ],
    "rtt": [
        ("rtt.classical-limit", check_rtt_classical_limit),
        ("rtt.residuals-reduce", check_rtt_reduction),
        ("rtt.overlap-audit", check_overlaps),
        ("rtt.overlap-negative-control", check_overlap_negative),
        ("rtt.flatness", check_flatness),
        ("rtt.span-containment", check_rtt_span),
        ("rtt.span-negative-control", check_span_negative),
        ("rtt.relation-membership", check_relation_membership),
    ],
    "hopf": [
        ("hopf.coproduct-homomorphism", check_coproduct_homomorphism),
        ("hopf.counit-annihilates", check_counit),
        ("hopf.counit-axiom", check_counit_axiom),
        ("hopf.antipode-identities", check_antipode),
        ("hopf.coassociativity", check_coassociativity),
        ("hopf.square-of-antipode", check_s_squared),
        ("hopf.classical-limit", check_hopf_classical_limit),
    ],
    "borel-rll": [
        ("borel-rll.span-equality", check_borel_rll_span),
        ("borel-rll.classical-limit", check_borel_rll_classical),
    ],
    "borel-ansatz": [
        ("borel-ansatz.conditions", check_ansatz_conditions),
        ("borel-ansatz.solutions-satisfy-relations", check_rll_solutions),
        ("borel-ansatz.prefix-consistency", check_ansatz_prefix_consistency),
    ],
    "borel-coproduct": [
        ("borel-coproduct.square-identity", check_coproduct_square),
        ("borel-coproduct.homomorphism", check_borel_homomorphism),
        ("borel-coproduct.coassociativity", check_borel_coassociativity),
        ("borel-coproduct.counit-axiom", check_borel_counit),
        ("borel-coproduct.antipode-candidate", check_borel_antipode_candidate),
    ],
}

SUBCOMMANDS = tuple(CHECKS) + ("all",)


def run_checks(subcommand: str, config: CheckConfig):
    if subcommand == "all":
        names = [item for group in CHECKS.values() for item in group]
    else:
        names = CHECKS[subcommand]
    reports = []
    for name, fn in sorted(names, key=lambda nf: nf[0]):
        start = time.monotonic()
        try:
            passed, details = fn(config)
            status = "pass" if passed else "fail"
        except Exception as exc:  # a crash is a failed check, not a crashed run
            status, details = "fail", f"exception: {exc!r}"
        elapsed = int((time.monotonic() - start) * 1000)
        reports.append(CheckReport(name=name, status=status, details=details,
                                   elapsed_ms=elapsed, config=config.as_dict()))
    return reports
