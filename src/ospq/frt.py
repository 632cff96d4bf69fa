"""The deformed function algebra of the orthosymplectic supergroup: quadratic
exchange relations from the 9x9 R-matrix, deformed superorthogonality with the
derived metric, elimination of the dependent generators, a completed rewrite
presentation, and the full Hopf structure (coproduct, counit, antipode).

Two alphabets appear: the nine matrix entries a, al, b, ga, e, be, c, de, d
of the defining matrix, and the six surviving generators after the dependent
entries e, ga, be are eliminated.  All certification happens in the 6-letter
algebra modulo the compiled rewrite system, at p = 2 (module ``rewrite``):
the rule audits, the normal forms and the one set of Hopf maps
(``hopf_maps``, an instance of ``freealg.HopfMaps``), whose generator
images are taken at p = 2.  The lifted Scalar rules are built only for the
exported rule set.

Each stage the checks share is built once per run and cached: the R-matrix,
the exchange residuals, the metric and its solution space, the elimination
map with its word images, the eliminated residuals, the presentation and the
Hopf maps.  Callers only read what these return.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .scalars import Scalar, rat, P, HALF
from .freealg import (HopfMaps, SuperPoly, TensorElement, SCALAR_ALPHABET, extend,
                      sum_polys)
from .rewrite import (OrientationError, RewriteSystem, affine_rows, at_two, complete, lift,
                      nullspace, orient, solve_affine)
from .supermatrix import (SuperMatrix, exp_nilpotent, kron, layout_alphabet, letter_matrix,
                          partial_transpose_first, supertranspose3)
from . import classical

T_ENTRIES = (("a", "al", "b"), ("ga", "e", "be"), ("c", "de", "d"))
POSITIONS = {x: (i, j) for i, row in enumerate(T_ENTRIES) for j, x in enumerate(row)}

# 9-letter alphabet for the defining matrix before elimination
ALPHABET9 = layout_alphabet(T_ENTRIES)

# 6-letter alphabet after e, ga, be are eliminated; the order weights make
# every defining relation orientable with a unit leading coefficient (plain
# degree-lex cannot orient them all)
ALPHABET = layout_alphabet(T_ENTRIES, weights={"a": 2, "al": 3, "b": 3, "c": 1, "de": 2, "d": 2},
                           drop=("ga", "e", "be"))

# the coefficients p/2, p^2/2 and p^2/4, multiplied out once
HALF_P = HALF * P
HALF_P2 = HALF_P * P
QUARTER_P2 = HALF_P * HALF_P


def defining_matrix() -> SuperMatrix:
    """The 3x3 matrix of the nine generator letters."""
    return letter_matrix(ALPHABET9, T_ENTRIES)


@lru_cache(maxsize=None)
def quantum_r_matrix() -> SuperMatrix:
    """R = exp(2p r2) of the 9x9 image of r2; upper unitriangular."""
    return exp_nilpotent(classical.r2().expand(), rat(2) * P)


def exchange_residuals(alphabet, layout, dual=False):
    """The 81 entries of R M1 M2 - M2 M1 R for the letter matrix M of a
    layout, with M1 = M ox 1 and M2 = 1 ox M; ``dual`` takes the legs in the
    opposite order, R M2 M1 - M1 M2 R, as the dual Borel side does."""
    m = letter_matrix(alphabet, layout)
    r = quantum_r_matrix().promote(alphabet)
    one = SuperMatrix.identity(alphabet, 3)
    first, second = kron(m, one), kron(one, m)
    if dual:
        first, second = second, first
    diff = (r @ first @ second) - (second @ first @ r)
    return [e for row in diff.entries for e in row]


@lru_cache(maxsize=None)
def rtt_residuals():
    """The 81 entries of R T1 T2 - T2 T1 R over the 9-letter algebra, built
    once and shared: callers only read them."""
    return tuple(exchange_residuals(ALPHABET9, T_ENTRIES))


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
    admits no solution at all).  Solutions are 3x3 Scalar matrices.  For the
    default R, ``quantum_r_matrix``, the basis is built once and shared:
    callers only read it.
    """
    if r is None:
        return _quantum_metric_solutions()
    return metric_solutions(r, partial_transpose_first(r, graded=True))


@lru_cache(maxsize=None)
def _quantum_metric_solutions():
    return derive_metric_solutions(quantum_r_matrix())


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
    """Substitutions expressing e, ga, be through the six surviving letters.

    ``letters`` gives each of the nine letters its image, and ``substitute``
    extends it as one algebra map (``extend``), so each word's image is built
    once for as long as the map lives; ``elimination_map`` is the one every
    stage shares."""

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
        self.letters = {x: self.images[x] if x in self.images else SuperPoly.letter(ALPHABET, x)
                        for x in ALPHABET9.letters}
        self.substitute = extend(self.letters.__getitem__, SuperPoly.one(ALPHABET))

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


@lru_cache(maxsize=None)
def elimination_map() -> EliminationMap:
    """The elimination map of a run, built once: every substitution shares
    its word images, which callers only read."""
    return EliminationMap()


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
    return tuple(map(elimination_map().substitute, orthogonality_residuals()))


@lru_cache(maxsize=None)
def eliminated_residuals():
    """All RTT and orthogonality residuals pushed down to the 6-letter algebra."""
    rtt = list(map(elimination_map().substitute, rtt_residuals()))
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

# eps(t_ij) = delta_ij, read off the matrix positions; it holds at every p, so
# the one counit takes Scalar elements and values at p = 2 alike
counit = extend({x: int(i == j) for x, (i, j) in POSITIONS.items()}.__getitem__, 1)


@lru_cache(maxsize=None)
def antipode_images():
    """S(t_ij) for the nine entries: the entries of S(T) = C T^st C^-1 with
    the dependent letters eliminated."""
    s = antipode_matrix().map_entries(elimination_map().substitute).entries
    return {x: s[i][j] for x, (i, j) in POSITIONS.items()}


def eliminated_matrix() -> SuperMatrix:
    """The defining matrix with e, ga, be substituted (entries in 6 letters)."""
    letters = elimination_map().letters
    return SuperMatrix(ALPHABET, [[letters[x] for x in row] for row in T_ENTRIES])


def generator_images():
    """The unit and the nine entries t_ij of the eliminated matrix with
    Delta(t_ij) = sum_k t_ik ox t_kj and S(t_ij) (``antipode_images``), over
    Q[p]: {"id" | "delta" | "antipode": {entry: image}}."""
    t, one = eliminated_matrix().entries, SuperPoly.one(ALPHABET)
    delta = {x: sum((TensorElement.of(t[i][k], t[k][j]) for k in range(3)),
                    TensorElement.zero(ALPHABET, 2)) for x, (i, j) in POSITIONS.items()}
    return {"id": {"1": one, **{x: t[i][j] for x, (i, j) in POSITIONS.items()}},
            "delta": {"1": TensorElement.of(one, one), **delta},
            "antipode": {"1": one, **antipode_images()}}


@lru_cache(maxsize=None)
def hopf_maps() -> HopfMaps:
    """The Hopf maps with their generator images at p = 2, where the checks
    decide zero tests on normal forms, leg by leg for a tensor (``rewrite``);
    ValueError unless each image keeps the torus weight.  The counit
    contraction keeps it too, since eps is nonzero only on a and d, of weight 0."""
    return HopfMaps(generator_images(), at_two, ALPHABET.grades, counit, "torus",
                    lambda f: presentation().at2.normal_form(f))


def coproduct_respects_relations() -> bool:
    """Delta maps every relation into the ideal, decided at p = 2."""
    hopf = hopf_maps()
    return not any(hopf.reduce(hopf.delta(at_two(rel)[1]))
                   for rel in presentation().all_relations())


def counit_annihilates_relations() -> bool:
    return all(counit(rel).is_zero for rel in presentation().all_relations())


@lru_cache(maxsize=None)
def antipode_axiom_defects():
    """The antipode defects of Delta(t_ij) = sum_k t_ik ox t_kj for the nine
    entries, reduced at p = 2 and lifted at the weight of t_ij; built once
    and shared by the check and the export: callers only read them."""
    hopf = hopf_maps()
    return tuple(((i, j), *(lift(f, ALPHABET9.torus[x])
                            for f in hopf.antipode_defects(x)))
                 for x, (i, j) in POSITIONS.items())


def s_squared_images():
    """S^2 of the generators, reduced at p = 2 and lifted: S keeps the weight."""
    hopf = hopf_maps()
    return {x: lift(hopf.reduce(hopf.antipode(hopf.images["antipode"][x])), ALPHABET.torus[x])
            for x in ALPHABET.letters}
