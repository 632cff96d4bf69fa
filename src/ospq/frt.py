"""The deformed function algebra of the orthosymplectic supergroup: quadratic
exchange relations from the 9x9 R-matrix, deformed superorthogonality with the
derived metric, elimination of the dependent generators, a completed rewrite
presentation, and the full Hopf structure (coproduct, counit, antipode).

Two alphabets appear: the nine matrix entries a, al, b, ga, e, be, c, de, d
of the defining matrix, and the six surviving generators after the dependent
entries e, ga, be are eliminated.  All certification happens in the 6-letter
algebra modulo the compiled rewrite system, at p = 2 (module ``rewrite``):
the rule audits, the normal forms and the one set of Hopf maps, whose
generator images are taken at p = 2.  The lifted Scalar rules are built
only for the exported rule set.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .scalars import Scalar, rat, P, HALF
from .freealg import (GradedAlphabet, SuperPoly, TensorElement, SCALAR_ALPHABET, extend,
                      sum_polys)
from .rewrite import (OrientationError, RewriteSystem, affine_rows, at_two, complete, lift,
                      nullspace, orient, solve_affine)
from .supermatrix import (SuperMatrix, entry_weights, exp_nilpotent, kron,
                          partial_transpose_first, supertranspose3)
from . import classical

T_ENTRIES = (("a", "al", "b"), ("ga", "e", "be"), ("c", "de", "d"))

# 6-letter alphabet; the weights make every defining relation orientable with
# a unit leading coefficient (plain degree-lex cannot orient them all), and
# each letter t_ij has the torus weight of its matrix position
ALPHABET = GradedAlphabet(
    ("a", "al", "b", "c", "de", "d"),
    {"a": 0, "al": 1, "b": 0, "c": 0, "de": 1, "d": 0},
    weights={"a": 2, "al": 3, "b": 3, "c": 1, "de": 2, "d": 2},
    torus=entry_weights(T_ENTRIES),
)

# 9-letter alphabet for the defining matrix before elimination
ALPHABET9 = GradedAlphabet(
    ("a", "al", "b", "ga", "e", "be", "c", "de", "d"),
    {"a": 0, "al": 1, "b": 0, "ga": 1, "e": 0, "be": 1, "c": 0, "de": 1, "d": 0},
    torus=entry_weights(T_ENTRIES),
)

# the coefficients p/2, p^2/2 and p^2/4, multiplied out once
HALF_P = HALF * P
HALF_P2 = HALF_P * P
QUARTER_P2 = HALF_P * HALF_P


def defining_matrix() -> SuperMatrix:
    """The 3x3 matrix of the nine generator letters."""
    return SuperMatrix(ALPHABET9, [[SuperPoly.letter(ALPHABET9, x) for x in row]
                                   for row in T_ENTRIES])


@lru_cache(maxsize=None)
def quantum_r_matrix() -> SuperMatrix:
    """R = exp(2p r2) of the 9x9 image of r2; upper unitriangular."""
    return exp_nilpotent(classical.r2().expand(), rat(2) * P)


def rtt_residuals():
    """The 81 entries of R T1 T2 - T2 T1 R over the 9-letter algebra."""
    t = defining_matrix()
    r9 = quantum_r_matrix().promote(t.alphabet)
    t.check_grading()
    one = SuperMatrix.identity(t.alphabet, 3)
    t1, t2 = kron(t, one), kron(one, t)
    diff = (r9 @ t1 @ t2) - (t2 @ t1 @ r9)
    return [diff.entries[i][j] for i in range(9) for j in range(9)]


# ----------------------------------------------------------------------
# The metric.
# ----------------------------------------------------------------------

def metric_solutions(left: SuperMatrix, right: SuperMatrix):
    """Basis of the solutions C of left (C ox 1) right = C ox 1, each a 3x3
    list of Scalars.  C ox 1 is the plain, unsigned Kronecker product:
    entry ((i, m), (j, n)) is C_ij when m = n."""
    zero = Scalar.zero()

    def defect(x):
        c1 = SuperMatrix.from_scalars(
            [[x[3 * (u // 3) + v // 3] if u % 3 == v % 3 else zero for v in range(9)]
             for u in range(9)], left.alphabet)
        return [left @ c1 @ right - c1]

    return [[vec[3 * i:3 * i + 3] for i in range(3)]
            for vec in nullspace(affine_rows(defect, 9), 9)]


def derive_metric_solutions(r: SuperMatrix = None):
    """Solve R (C ox 1) R^{t1} = C ox 1 for C; returns the solution basis.

    The first-leg transpose is the graded variant validated by this very
    equation having a one-dimensional solution space (the ungraded transpose
    admits no solution at all).  Solutions are 3x3 Scalar matrices.
    """
    if r is None:
        r = quantum_r_matrix()
    return metric_solutions(r, partial_transpose_first(r, graded=True))


@lru_cache(maxsize=None)
def metric_matrix() -> SuperMatrix:
    """The unique (up to scalar) metric, normalized so the (3,1) entry is 1."""
    basis = derive_metric_solutions()
    if len(basis) != 1:
        raise ValueError(f"metric solution space has dimension {len(basis)}")
    mat = basis[0]
    norm = mat[2][0]
    if norm.is_zero:
        raise ValueError("unexpected metric normalization")
    inv = norm.unit_inverse()
    scaled = [[inv * e for e in row] for row in mat]
    return SuperMatrix.from_scalars(scaled)


def _square(values, alphabet=SCALAR_ALPHABET) -> SuperMatrix:
    """The 3x3 matrix of nine Scalars, row by row."""
    return SuperMatrix.from_scalars([values[k:k + 3] for k in (0, 3, 6)], alphabet)


def metric_inverse(c: SuperMatrix) -> SuperMatrix:
    """Exact inverse of a 3x3 matrix with Scalar entries: the one solution X
    of C X = 1 over Q[p]; ValueError when there is none."""
    one = SuperMatrix.identity(c.alphabet, 3)
    return _square(solve_affine(
        affine_rows(lambda x: [c @ _square(x, c.alphabet) - one], 9), 9))


@lru_cache(maxsize=None)
def antipode_matrix() -> SuperMatrix:
    """S(T) = C T^st C^-1 over the nine letters: the inverse of T that
    superorthogonality asserts."""
    t = defining_matrix()
    c = metric_matrix()
    return c.promote(t.alphabet) @ supertranspose3(t) @ metric_inverse(c).promote(t.alphabet)


def orthogonality_residuals():
    """Entries of T S(T) - 1 and S(T) T - 1, with S(T) = C T^st C^-1."""
    t = defining_matrix()
    s = antipode_matrix()
    one = SuperMatrix.identity(t.alphabet, 3)
    m1 = (t @ s) - one
    m2 = (s @ t) - one
    return ([m1.entries[i][j] for i in range(3) for j in range(3)]
            + [m2.entries[i][j] for i in range(3) for j in range(3)])


# ----------------------------------------------------------------------
# Elimination of e, ga, be.
# ----------------------------------------------------------------------

def _w(word, coeff=None) -> SuperPoly:
    return SuperPoly.word(ALPHABET, word, coeff if coeff is not None else Scalar.one())


class EliminationMap:
    """Substitutions expressing e, ga, be through the six surviving letters."""

    def __init__(self):
        self.images = {
            "e": sum_polys([SuperPoly.one(ALPHABET), _w(("al", "de")),
                            _w(("a", "c"), HALF_P)]),
            "ga": sum_polys([_w(("al", "c")), _w(("de", "a"), rat(-1)),
                             _w(("de", "c"), P)]),
            "be": sum_polys([_w(("al", "d")), _w(("de", "b"), rat(-1)),
                             _w(("al", "c"), HALF_P), _w(("de", "a"), -HALF_P),
                             _w(("de", "d"), P), _w(("de", "c"), HALF_P2)]),
        }

    def substitute(self, poly: SuperPoly) -> SuperPoly:
        return poly.substitute_letters(self.images)

    def e_image(self) -> SuperPoly:
        return self.images["e"]

    def e_inverse(self, tail_order: int = 3) -> SuperPoly:
        """(1 - al.de - (p/2)ac) * sum_k ((p^2/4) c^2)^k up to the tail order."""
        u = _w(("al", "de")) + _w(("a", "c"), HALF_P)
        series = sum_polys([self.geometric_tail(k - 1) for k in range(tail_order + 1)])
        return (SuperPoly.one(ALPHABET) - u) * series

    def geometric_tail(self, tail_order: int = 3) -> SuperPoly:
        """((p^2/4) c^2)^(tail_order + 1)."""
        return _w(("c",) * (2 * tail_order + 2), QUARTER_P2 ** (tail_order + 1))


# ----------------------------------------------------------------------
# Defining relations and the compiled presentation.
# ----------------------------------------------------------------------

def defining_relations():
    """The seventeen quadratic exchange relations of the six generators.

    Written as polynomials that vanish in the quotient.  Each is certified
    against the residual ideal by the rtt checks; the full presentation also
    needs the derived unimodularity relation, which is extracted from the
    orthogonality residuals rather than written down here.
    """
    p = P
    half_p = HALF_P
    one = SuperPoly.one(ALPHABET)

    def comm(x, y):
        return _w((x, y)) - _w((y, x))

    def acomm(x, y):
        return _w((x, y)) + _w((y, x))

    return [
        comm("a", "b") - _w(("a", "a"), p) + one.scale(p),          # [a,b] = p(a^2-1)
        comm("a", "c") + _w(("c", "c"), p),                          # [a,c] = -p c^2
        comm("a", "d") - _w(("c", "a"), p) + _w(("c", "d"), p),      # [a,d] = p(ca-cd)
        comm("b", "c") + _w(("c", "a"), p) + _w(("d", "c"), p),      # [b,c] = -p(ca+dc)
        comm("b", "d") - one.scale(p) + _w(("d", "d"), p),           # [b,d] = p(1-d^2)
        comm("c", "d") - _w(("c", "c"), p),                          # [c,d] = p c^2
        comm("a", "al"),                                             # [a,al] = 0
        comm("a", "de") + _w(("c", "de"), p),                        # [a,de] = -p c de
        comm("b", "al") + _w(("al", "a"), p),                        # [b,al] = -p al a
        comm("b", "de") + _w(("d", "de"), p) + _w(("c", "al"), p),   # [b,de] = -p(d de + c al)
        comm("c", "al") - _w(("c", "de"), p),                        # [c,al] = p c de
        comm("c", "de"),                                             # [c,de] = 0
        comm("d", "al") - _w(("de", "d"), p) + _w(("de", "a"), p),   # [d,al] = p(de d - de a)
        comm("d", "de") + _w(("de", "c"), p),                        # [d,de] = -p de c
        _w(("al", "al")) - one.scale(half_p) + _w(("a", "a"), half_p),   # al^2 = (p/2)(1-a^2)
        acomm("al", "de") - _w(("de", "de"), p) + _w(("a", "c"), p),     # {al,de} = p(de^2-ac)
        _w(("de", "de")) + _w(("c", "c"), half_p),                       # de^2 = -(p/2)c^2
    ]


class Presentation:
    """Compiled rewrite presentation of the deformed function algebra: the
    completed system ``at2`` at p = 2 decides every zero test and runs every
    rule audit (module ``rewrite``); ``system``, its lifted Scalar system, is
    built when first read, which only the export does."""

    def __init__(self, at2: RewriteSystem, relations, derived):
        self.at2 = at2
        self.relations = list(relations)
        self.derived = list(derived)

    @cached_property
    def system(self) -> RewriteSystem:
        return self.at2.lifted()

    def normal_form(self, poly: SuperPoly) -> SuperPoly:
        top, value = at_two(poly)
        return lift(self.at2.normal_form(value), top)

    def reduces_to_zero(self, poly: SuperPoly) -> bool:
        return self.at2.normal_form(at_two(poly)[1]).is_zero

    def all_relations(self):
        return self.relations + self.derived


COMPLETION_DEGREE = 6


@lru_cache(maxsize=None)
def presentation() -> Presentation:
    """Build the compiled system: defining relations + derived unimodularity.

    The orthogonality residuals that do not already reduce modulo the
    exchange relations are adjoined (this is where the deformed
    unimodularity enters) and the union is completed so that overlap
    ambiguities up to COMPLETION_DEGREE all resolve.  The residuals are
    reduced at p = 2; ``orient`` divides a remainder's content, a power of
    p, out of the relation it adjoins.
    """
    relations = defining_relations()
    system = complete(ALPHABET, relations, max_degree=4)
    eliminated = [at_two(res)[1] for res in _eliminated_orthogonality()]
    derived = []
    for _ in range(8):
        remainders = [rem for res in eliminated if (rem := system.normal_form(res))]
        if not remainders:
            break
        # adjoin only the lowest-degree orientable relation per round; the
        # higher remainders are consequences once it is in the system
        for rem in sorted(remainders, key=lambda f: (f.degree(),
                                                     ALPHABET.word_key(f.leading_word()))):
            try:
                (lhs, rhs), = orient([rem]).items()
                break
            except OrientationError:
                continue
        else:
            raise RuntimeError("derived relations cannot be oriented")
        derived.append(lift(SuperPoly(ALPHABET, {lhs: 1}, _internal=True) - rhs,
                            ALPHABET.torus_weight(lhs)))
        system = complete(ALPHABET, relations + derived,
                          max_degree=COMPLETION_DEGREE)
    else:
        raise RuntimeError("orthogonality residuals keep producing relations")
    return Presentation(system, relations, derived)


@lru_cache(maxsize=None)
def _eliminated_orthogonality():
    """The orthogonality residuals in the 6 letters, substituted once."""
    return tuple(map(EliminationMap().substitute, orthogonality_residuals()))


@lru_cache(maxsize=None)
def eliminated_residuals():
    """All RTT and orthogonality residuals pushed down to the 6-letter algebra."""
    elim = EliminationMap()
    rtt = [elim.substitute(f) for f in rtt_residuals()]
    return ([f for f in rtt if not f.is_zero],
            [f for f in _eliminated_orthogonality() if not f.is_zero])


def unimodularity_relation() -> SuperPoly:
    """The derived scalar relation, normalized as a monic rule polynomial:
    the rule for al.de at p = 2, lifted at that word's torus weight."""
    lead = ("al", "de")
    rule = presentation().at2.rules.get(lead)
    if rule is None:
        raise ValueError("presentation has no unimodularity rule")
    return _w(lead) - lift(rule, ALPHABET.torus_weight(lead))


# ----------------------------------------------------------------------
# Hopf structure.
# ----------------------------------------------------------------------

def _position(name: str):
    """The (row, column) of a generator letter in the defining matrix."""
    for i, row in enumerate(T_ENTRIES):
        if name in row:
            return i, row.index(name)
    raise ValueError(f"unknown generator {name!r}")


def _coproduct_letter(name: str, t) -> TensorElement:
    """Delta(t_ij) = sum_k t_ik ox t_kj for the matrix entries ``t``."""
    i, j = _position(name)
    out = TensorElement.zero(ALPHABET, 2)
    for k in range(3):
        out = out + TensorElement.of(t[i][k], t[k][j])
    return out


def _counit_letter(name: str) -> int:
    """eps(t_ij) = delta_ij."""
    i, j = _position(name)
    return int(i == j)


@lru_cache(maxsize=None)
def antipode_images():
    """S(t_ij) for the six generators: the entries of S(T) = C T^st C^-1
    with the dependent letters eliminated."""
    s = antipode_matrix().map_entries(EliminationMap().substitute)
    return {x: s.entries[i][j] for x in ALPHABET.letters for i, j in [_position(x)]}


def eliminated_matrix() -> SuperMatrix:
    """The defining matrix with e, ga, be substituted (entries in 6 letters)."""
    images = EliminationMap().images
    return SuperMatrix(ALPHABET, [[images.get(x) or SuperPoly.letter(ALPHABET, x)
                                   for x in row] for row in T_ENTRIES])


@lru_cache(maxsize=None)
def _hopf_at_two():
    """The eliminated defining matrix at p = 2 as (weight, entry) pairs, and
    the antipode images at p = 2, for the Hopf checks, which decide their
    zero tests there (module ``rewrite``).  ValueError unless t_ik ox t_kj
    weighs as t_ij for every k and S(x) as x: then Delta and S keep the
    weight, and so does the counit contraction, since eps(t_ij) = delta_ij is
    nonzero only on diagonal letters, of weight 0."""
    t = [[at_two(f) for f in row] for row in eliminated_matrix().entries]
    s = {x: at_two(f) for x, f in antipode_images().items()}
    if (any(t[i][k][0] + t[k][j][0] != t[i][j][0]
            for i in range(3) for j in range(3) for k in range(3))
            or any(top != ALPHABET.torus[x] for x, (top, _) in s.items())):
        raise ValueError("a Hopf map does not keep the torus weight")
    return t, {x: f for x, (_, f) in s.items()}


# The Hopf maps, given on the generators and extended by ``extend``: Delta as
# an algebra map and S as a graded anti-homomorphism, S(xy) =
# (-1)^{|x||y|} S(y) S(x), each with its generator images at p = 2; eps(T) = 1
# holds at every p, so the one counit takes Scalar elements and values at
# p = 2 alike.
coproduct = extend(
    lambda x: _coproduct_letter(x, [[f for _, f in row] for row in _hopf_at_two()[0]]),
    TensorElement(ALPHABET, 2, {((), ()): 1}))
counit = extend(_counit_letter, 1)
antipode = extend(lambda x: _hopf_at_two()[1][x], SuperPoly.constant(ALPHABET, 1),
                  ALPHABET.grades)


def coproduct_reduced(tensor: TensorElement, system: RewriteSystem) -> TensorElement:
    """The tensor with every leg in normal form under ``system``, the
    presentation's rules at p = 2 for a tensor of values at p = 2."""
    for leg in range(tensor.arity):
        tensor = tensor.map_leg(leg, system.nf_word)
    return tensor


def coproduct_respects_relations() -> bool:
    """Delta maps every relation into the ideal, decided at p = 2."""
    pres = presentation()
    return not any(coproduct_reduced(coproduct(at_two(rel)[1]), pres.at2)
                   for rel in pres.all_relations())


def counit_annihilates_relations() -> bool:
    return all(counit(rel).is_zero for rel in presentation().all_relations())


def counit_axiom_holds() -> bool:
    """(eps ox id)Delta(x) = x = (id ox eps)Delta(x) for every generator x,
    decided at p = 2."""
    at2 = presentation().at2
    for x in ALPHABET.letters:
        d = coproduct_reduced(coproduct.word((x,)), at2)
        gen = SuperPoly.letter(ALPHABET, x, 1)
        if any(at2.normal_form(d.apply_counit_leg(leg, counit) - gen)
               for leg in (0, 1)):
            return False
    return True


def coassociativity_defect(name: str) -> TensorElement:
    """(Delta ox id)Delta(x) - (id ox Delta)Delta(x), legs reduced, at p = 2:
    zero exactly when the defect is, since Delta keeps the weight."""
    at2 = presentation().at2
    d = coproduct_reduced(coproduct.word((name,)), at2)
    left = d.expand_leg(0, coproduct.word, 3)
    right = d.expand_leg(1, coproduct.word, 3)
    return coproduct_reduced(left - right, at2)


def antipode_axiom_defects():
    """Normal forms of sum_k S(t_ik) t_kj - delta_ij and the mirror identity,
    reduced at p = 2 and lifted at the weight of t_ij."""
    at2 = presentation().at2
    t = _hopf_at_two()[0]
    defects = []
    for i in range(3):
        for j in range(3):
            want = SuperPoly.constant(ALPHABET, int(i == j))
            left = sum_polys([antipode(t[i][k][1]) * t[k][j][1] for k in range(3)])
            right = sum_polys([t[i][k][1] * antipode(t[k][j][1]) for k in range(3)])
            defects.append(((i, j), *(lift(at2.normal_form(f - want), t[i][j][0])
                                      for f in (left, right))))
    return defects


def s_squared_images():
    """S^2 of the generators, reduced at p = 2 and lifted: S keeps the weight."""
    at2 = presentation().at2
    return {x: lift(at2.normal_form(antipode(antipode.word((x,)))),
                    ALPHABET.torus[x])
            for x in ALPHABET.letters}
