"""The orthosymplectic Lie superalgebra osp(1;2), its 3x3 matrix
representation, the antisymmetric r-matrix families, Schouten brackets, and
ad-invariance certificates.

Basis {H, Xp, Xm, Vp, Vm} with grades 0,0,0,1,1.  Brackets are graded: a
commutator unless both arguments are odd, then an anticommutator.  The
Schouten bracket [[r,r]] = [r12,r13] + [r12,r23] + [r13,r23] is evaluated in
the 27-dimensional image of the representation: r is a 9x9 sum of graded
Kronecker products, its legs are kron(r, 1), kron(1, r) and kron(r, 1) with
legs 2 and 3 flipped, and kron is multiplicative, so graded commutators
become matrix commutators.
A family's parameters stay outside the coefficient ring, so every matrix
here is p-free and rational (``family_groups``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from operator import add

from .scalars import Scalar, rat, _accumulate
from .freealg import SCALAR_ALPHABET
from .rewrite import affine_rows, solve_affine
from .supermatrix import SuperMatrix, graded_swap, kron

BASIS = ("H", "Xp", "Xm", "Vp", "Vm")
GRADE = {"H": 0, "Xp": 0, "Xm": 0, "Vp": 1, "Vm": 1}

_half = Fraction(1, 2)

# structure constants: bracket(x, y) = sum_z c * z, stored for x <= y in
# basis order; the rest follows from graded antisymmetry
_TABLE = {
    ("H", "Xp"): {"Xp": Fraction(1)},
    ("H", "Xm"): {"Xm": Fraction(-1)},
    ("H", "Vp"): {"Vp": _half},
    ("H", "Vm"): {"Vm": -_half},
    ("Xp", "Xm"): {"H": Fraction(2)},
    ("Xp", "Vp"): {},
    ("Xp", "Vm"): {"Vp": Fraction(1)},
    ("Xm", "Vp"): {"Vm": Fraction(1)},
    ("Xm", "Vm"): {},
    ("Vp", "Vm"): {"H": -_half},
    ("Vp", "Vp"): {"Xp": _half},
    ("Vm", "Vm"): {"Xm": -_half},
    ("H", "H"): {},
    ("Xp", "Xp"): {},
    ("Xm", "Xm"): {},
}


def bracket(x: str, y: str) -> dict:
    """Graded bracket of two basis elements as {basis: Fraction}."""
    if (x, y) in _TABLE:
        return dict(_TABLE[(x, y)])
    base = _TABLE[(y, x)]
    sign = -1 if (GRADE[x] * GRADE[y]) % 2 == 0 else 1
    return {z: sign * c for z, c in base.items()}


def bracket_linear(u: dict, v: dict) -> dict:
    """Graded bracket extended bilinearly to {basis: Fraction} combinations."""
    return _accumulate((z, cx * cy * c) for x, cx in u.items() for y, cy in v.items()
                       for z, c in bracket(x, y).items())


def jacobi_defect(x: str, y: str, z: str) -> dict:
    """Graded Jacobi combination; zero iff the identity holds on (x,y,z)."""
    gx, gy, gz = GRADE[x], GRADE[y], GRADE[z]
    terms = [
        ((-1) ** (gx * gz), x, bracket(y, z)),
        ((-1) ** (gy * gx), y, bracket(z, x)),
        ((-1) ** (gz * gy), z, bracket(x, y)),
    ]
    return _accumulate((w, sign * c) for sign, a, inner in terms
                       for w, c in bracket_linear({a: Fraction(1)}, inner).items())


def jacobi_holds_everywhere() -> bool:
    """Exhaustive graded Jacobi identity over all 125 basis triples."""
    return all(not jacobi_defect(x, y, z)
               for x in BASIS for y in BASIS for z in BASIS)


# ----------------------------------------------------------------------
# Matrix representation.
# ----------------------------------------------------------------------

def _mat(rows) -> SuperMatrix:
    return SuperMatrix.from_scalars(
        [[rat(c) for c in row] for row in rows])


REP = {
    "H": _mat([[_half, 0, 0], [0, 0, 0], [0, 0, -_half]]),
    "Xp": _mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    "Vp": _mat([[0, _half, 0], [0, 0, _half], [0, 0, 0]]),
    # frozen values, solved for from H, Xp and Vp by derive_lowering_matrices()
    "Xm": _mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
    "Vm": _mat([[0, 0, 0], [-_half, 0, 0], [0, _half, 0]]),
}


def graded_matrix_bracket(a: SuperMatrix, b: SuperMatrix, ga: int, gb: int) -> SuperMatrix:
    ab = a @ b
    ba = b @ a
    return ab + ba if (ga and gb) else ab - ba


def relation_defect(matrices, x: str, y: str) -> SuperMatrix:
    """[x, y] - sum_z c z on the matrices: the defect of one defining relation."""
    want = SuperMatrix.zero(SCALAR_ALPHABET, 3)
    for z, c in bracket(x, y).items():
        want = want + matrices[z].scale(rat(c))
    return graded_matrix_bracket(matrices[x], matrices[y], GRADE[x], GRADE[y]) - want


# the 15 defining relations, one per unordered pair of basis elements
RELATIONS = [(x, y) for i, x in enumerate(BASIS) for y in BASIS[i:]]


def rep_defects(matrices=REP):
    """All 15 defining relations evaluated on the representation matrices.

    Yields ``((x, y), defect matrix)`` lazily, so a caller can stop at the
    first nonzero defect.
    """
    return (((x, y), relation_defect(matrices, x, y)) for x, y in RELATIONS)


def rep_is_faithful_presentation() -> bool:
    return all(d.is_zero() for _, d in rep_defects())


def _lowering(values) -> dict:
    """Xm and Vm filled row by row from 18 Scalars."""
    return {name: SuperMatrix.from_scalars(
                [values[c:c + 3] for c in range(9 * k, 9 * k + 9, 3)])
            for k, name in enumerate(("Xm", "Vm"))}


_lowering_memo = [(), None]  # the REP matrices of the last build, and its result


def lowering_equations() -> dict:
    """The relations with at most one of Xm, Vm as an argument, as linear
    equations in the 18 entries of Xm then Vm (columns 0-17, row by row).

    Returns ``{relation pair: [row, ...]}``, one row ``{column: Scalar}`` per
    nonzero defect entry, column 18 holding the constant term.  These
    relations are affine in the entries, so ``affine_rows`` gives the rows
    exactly.  Built once while ``REP`` holds equal matrices, and shared:
    callers only read it.
    """
    known = tuple(REP.values())
    if _lowering_memo[0] != known:
        _lowering_memo[:] = known, {
            pair: affine_rows(lambda values, pair=pair: [
                relation_defect({**REP, **_lowering(values)}, *pair)], 18)
            for pair in RELATIONS if sum(name in ("Xm", "Vm") for name in pair) < 2}
    return _lowering_memo[1]


def derive_lowering_matrices():
    """Solve for Xm and Vm from H, Xp and Vp and return them.

    All 18 entries are unknowns, so no grade or H-weight is assumed.
    Raises ValueError unless ``lowering_equations`` have a single solution
    over Q(p) and all 15 relations, the quadratic ones included, hold on it.
    """
    rows = [row for rows in lowering_equations().values() for row in rows]
    try:
        found = _lowering(solve_affine(rows, 18))
    except ValueError as err:
        raise ValueError(f"{len(rows)} equations do not fix Xm and Vm: {err}") from None
    bad = [pair for pair, d in rep_defects({**REP, **found}) if not d.is_zero()]
    if bad:
        raise ValueError(f"the solved Xm and Vm break {bad}")
    return found["Xm"], found["Vm"]


# ----------------------------------------------------------------------
# r-matrices as wedge combinations, expanded through the representation.
# ----------------------------------------------------------------------

class RMatrixExpr:
    """Formal Scalar combination of wedges x ^ y of basis elements.

    x ^ y = x ox y - (-1)^{|x||y|} y ox x, so odd self-wedges double:
    v ^ v = 2 (v ox v).
    """

    def __init__(self, terms):
        # terms: list of (Scalar coeff, x name, y name)
        self.terms = [(c, x, y) for c, x, y in terms if not c.is_zero]

    def parity(self) -> int:
        parities = {(GRADE[x] + GRADE[y]) % 2 for _, x, y in self.terms}
        if len(parities) > 1:
            raise ValueError("graded-mixed r-matrix expression")
        return parities.pop() if parities else 0

    def expand(self) -> SuperMatrix:
        """The 9x9 image: sum of c (kron(x, y) - (-1)^{|x||y|} kron(y, x))."""
        out = SuperMatrix.zero(SCALAR_ALPHABET, 9)
        for c, x, y in self.terms:
            sign = rat(-((-1) ** (GRADE[x] * GRADE[y])))
            out = (out + kron(REP[x], REP[y]).scale(c)
                   + kron(REP[y], REP[x]).scale(c * sign))
        return out


def r1() -> RMatrixExpr:
    return RMatrixExpr([(Scalar.one(), "H", "Xp")])


def r2() -> RMatrixExpr:
    return RMatrixExpr([(Scalar.one(), "H", "Xp"), (rat(-1), "Vp", "Vp")])


def r3(t: Scalar) -> RMatrixExpr:
    """t (H^Xp - Vp^Vp + H^Xm - Vm^Vm) for a p-free constant t."""
    return RMatrixExpr([(t, "H", "Xp"), (-t, "Vp", "Vp"),
                        (t, "H", "Xm"), (-t, "Vm", "Vm")])


def family_one():
    """x^2 H^Xp + xy Xp^Xm + y^2 H^Xm as pieces (exponents of x and y,
    p-free RMatrixExpr)."""
    return [(m, RMatrixExpr([(Scalar.one(), a, b)])) for m, a, b in
            (((2, 0), "H", "Xp"), ((1, 1), "Xp", "Xm"), ((0, 2), "H", "Xm"))]


def family_two():
    """x (H^Xp - Vp^Vp) + y (Xp^Xm + 2 Vp^Vm) + z (H^Xm - Vm^Vm), mixing both
    root directions and the odd wedges, as pieces like ``family_one``'s."""
    return [((1, 0, 0), r2()),
            ((0, 1, 0), RMatrixExpr([(Scalar.one(), "Xp", "Xm"), (rat(2), "Vp", "Vm")])),
            ((0, 0, 1), RMatrixExpr([(Scalar.one(), "H", "Xm"), (rat(-1), "Vm", "Vm")]))]


def ad_invariant_element() -> SuperMatrix:
    """The symmetric invariant 2H ox H + Xp ox Xm + Xm ox Xp + 2(Vp ox Vm - Vm ox Vp)."""
    pieces = [
        (rat(2), "H", "H"), (Scalar.one(), "Xp", "Xm"), (Scalar.one(), "Xm", "Xp"),
        (rat(2), "Vp", "Vm"), (rat(-2), "Vm", "Vp"),
    ]
    out = SuperMatrix.zero(SCALAR_ALPHABET, 9)
    for c, x, y in pieces:
        out = out + kron(REP[x], REP[y]).scale(c)
    return out


_ONE = SuperMatrix.identity(SCALAR_ALPHABET, 3)


def _legs(expr: RMatrixExpr):
    """The 27x27 legs (r12, r13, r23) of the 9x9 image of ``expr``."""
    r = expr.expand()
    flip23 = kron(_ONE, graded_swap())
    r12 = kron(r, _ONE)
    return r12, flip23 @ r12 @ flip23, kron(_ONE, r)


def _schouten_of_legs(parity: int, legs) -> SuperMatrix:
    r12, r13, r23 = legs
    sign = rat((-1) ** parity)

    def gcomm(a, b):
        return (a @ b) - (b @ a).scale(sign)

    return gcomm(r12, r13) + gcomm(r12, r23) + gcomm(r13, r23)


def schouten(expr: RMatrixExpr) -> SuperMatrix:
    """[[r,r]] evaluated in the representation as an exact 27x27 matrix."""
    return _schouten_of_legs(expr.parity(), _legs(expr))


@lru_cache(maxsize=None)
def r3_schouten() -> SuperMatrix:
    """[[r3(1), r3(1)]], built once and shared: callers only read it."""
    return schouten(r3(Scalar.one()))


@lru_cache(maxsize=None)
def coproduct_embedding(name: str, arity: int) -> SuperMatrix:
    """sum_k 1 ox .. ox x ox .. ox 1 (x at slot k) as a 3**arity matrix."""
    total = SuperMatrix.zero(SCALAR_ALPHABET, 3 ** arity)
    for pos in range(arity):
        legs = [_ONE] * arity
        legs[pos] = REP[name]
        total = total + reduce(kron, legs)
    return total


def ad_invariance_check(omega: SuperMatrix) -> bool:
    """Does the graded adjoint action of every basis element kill omega?

    ``omega`` is a 9x9 or 27x27 matrix; its size gives the number of legs.
    Since omega is even here, the action is the plain matrix commutator with
    the embedded coproduct.  It is decided on Vp and Vm alone: at 2 and 3
    legs the embedded coproducts satisfy DVp DVp = DXp/4, DVm DVm = -DXm/4
    and DVp DVm + DVm DVp = -DH/2, so a matrix that commutes with DVp and
    DVm commutes with all five.
    """
    arity = {9: 2, 27: 3}[omega.n]
    for name in ("Vp", "Vm"):
        dx = coproduct_embedding(name, arity)
        comm = (dx @ omega) - (omega @ dx)
        if not comm.is_zero():
            return False
    return True


def family_groups(family) -> dict:
    """The rational 27x27 coefficient of each parameter monomial in [[r,r]].

    ``family`` lists pieces (m_i, r_i): a tuple of parameter exponents and a
    p-free RMatrixExpr, for r = sum_i m_i r_i.  [[r,r]] is quadratic in r,
    so [[r,r]] = sum_{i<=j} m_i m_j B(r_i, r_j), where B(r_i, r_i) = S(r_i)
    and B(r_i, r_j) = S(r_i + r_j) - S(r_i) - S(r_j) for i < j, S being
    ``schouten``.  Legs are linear in r, so S of a sum reads the summed legs
    and each piece's Kronecker products and flips are built once.
    """
    pieces = []
    for mono, expr in family:
        parity, legs = expr.parity(), _legs(expr)
        pieces.append((mono, parity, legs, _schouten_of_legs(parity, legs)))

    def terms():
        for mono, _, _, alone in pieces:
            yield tuple(map(add, mono, mono)), alone
        for (m1, par1, legs1, s1), (m2, par2, legs2, s2) in combinations(pieces, 2):
            if par1 != par2:
                raise ValueError("pieces of mixed parity")
            both = _schouten_of_legs(par1, tuple(map(add, legs1, legs2)))
            yield tuple(map(add, m1, m2)), both - s1 - s2
    return _accumulate(terms())


def family_coboundary_check(family) -> bool:
    """Is [[r,r]] ad-invariant for every value of the family's parameters?

    The action is linear, so that holds, as a polynomial identity over Q,
    exactly when every group of ``family_groups`` is ad-invariant.
    """
    return all(map(ad_invariance_check, family_groups(family).values()))
