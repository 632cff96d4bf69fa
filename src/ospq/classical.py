"""The orthosymplectic Lie superalgebra osp(1;2), its 3x3 matrix
representation, the antisymmetric r-matrix families, Schouten brackets, and
ad-invariance certificates.

Basis {H, Xp, Xm, Vp, Vm} with grades 0,0,0,1,1.  Brackets are graded: a
commutator unless both arguments are odd, then an anticommutator.  The
Schouten bracket [[r,r]] = [r12,r13] + [r12,r23] + [r13,r23] is decided in
g ox g ox g: r is a ``TensorElement`` over ``ALPHABET``, whose product
carries the Koszul sign, and ``PBW`` puts each leg in PBW order in U(g).
REP ox REP ox REP is injective on g ox g ox g, so a tensor there is zero, or
ad-invariant, exactly when its image (``rep_image``) is.  A family's
parameters stay outside the coefficient ring, so every tensor here is p-free
and rational (``family_groups``).

The two shared builds, the lowering equations (``lowering_equations``) and
[[r3(1), r3(1)]] (``r3_schouten``), are made once per run; callers only
read them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import add, matmul

from .scalars import Scalar, rat, _accumulate
from .freealg import SCALAR_ALPHABET, GradedAlphabet, SuperPoly, TensorElement
from .rewrite import RewriteSystem, affine_rows, solve_affine
from .supermatrix import SuperMatrix, kron

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


ALPHABET = GradedAlphabet(BASIS, GRADE)


def _pbw_rule(x: str, y: str) -> SuperPoly:
    """x y = (-1)^{|x||y|} y x + [x, y] for x after y in BASIS, and
    u u = [u, u]/2 for odd u."""
    terms = {(z,): rat(c / 2 if x == y else c) for z, c in bracket(x, y).items()}
    if x != y:
        terms[(y, x)] = rat((-1) ** (GRADE[x] * GRADE[y]))
    return SuperPoly(ALPHABET, terms)


# U(g) in PBW order: 12 rules, every left side of length 2, so a clean
# overlap_check(3) makes normal forms unique in all degrees (diamond lemma)
PBW = RewriteSystem(ALPHABET, {(x, y): _pbw_rule(x, y) for i, y in enumerate(BASIS)
                               for x in BASIS[i:] if x != y or GRADE[x]})


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


def relation_defect(matrices, x: str, y: str) -> SuperMatrix:
    """[x, y] - sum_z c z on the matrices: the defect of one defining relation."""
    a, b = matrices[x], matrices[y]
    defect = a @ b + b @ a if GRADE[x] and GRADE[y] else a @ b - b @ a
    for z, c in bracket(x, y).items():
        defect = defect - matrices[z].scale(rat(c))
    return defect


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
    exactly.  A relation is solved only over the unknown entries it reads:
    those of Xm or Vm when one is an argument or in its bracket, so (Xm, Vp)
    reads Vm through [Xm, Vp] = Vm; the others stay 0, which its defect does
    not see.  Built once per run, while ``REP`` holds equal matrices, and
    shared: callers only read it.
    """
    zero = [Scalar.zero()] * 18

    def rows(x, y):
        read = [9 * k + i for k, name in enumerate(("Xm", "Vm"))
                if name in (x, y) or name in bracket(x, y) for i in range(9)]

        def defect(values):
            full = zero[:]
            for col, value in zip(read, values):
                full[col] = value
            return [relation_defect({**REP, **_lowering(full)}, x, y)]
        columns = read + [18]
        return [{columns[k]: c for k, c in row.items()}
                for row in affine_rows(defect, len(read))]

    known = tuple(REP.values())
    if _lowering_memo[0] != known:
        _lowering_memo[:] = known, {
            pair: rows(*pair)
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
# r-matrices as wedge combinations in g ox g.
# ----------------------------------------------------------------------

def rep_image(t: TensorElement) -> SuperMatrix:
    """The image of ``t`` under REP ox ... ox REP: the ``kron`` of the
    matrix products of its leg words, the empty word going to 1."""
    one = SuperMatrix.identity(SCALAR_ALPHABET, 3)
    out = SuperMatrix.zero(SCALAR_ALPHABET, 3 ** t.arity)
    for key, c in t.terms():
        out = out + reduce(kron, [reduce(matmul, map(REP.__getitem__, w), one)
                                  for w in key]).scale(c)
    return out


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

    def tensor(self) -> TensorElement:
        """The wedges in g ox g."""
        return TensorElement(ALPHABET, 2, _accumulate(
            kc for c, x, y in self.terms
            for kc in ((((x,), (y,)), c), (((y,), (x,)), c if GRADE[x] * GRADE[y] else -c))),
            _internal=True)

    def expand(self) -> SuperMatrix:
        """The 9x9 image of ``tensor``."""
        return rep_image(self.tensor())


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


def ad_invariant_element() -> TensorElement:
    """The symmetric invariant 2H ox H + Xp ox Xm + Xm ox Xp + 2(Vp ox Vm - Vm ox Vp)."""
    return TensorElement(ALPHABET, 2, {((x,), (y,)): rat(c) for c, x, y in (
        (2, "H", "H"), (1, "Xp", "Xm"), (1, "Xm", "Xp"), (2, "Vp", "Vm"), (-2, "Vm", "Vp"))})


def _three_legs(t: TensorElement):
    """t12, t13 and t23 of a two-leg tensor: the empty word, an even unit, at
    the third slot, so no sign."""
    return [TensorElement(ALPHABET, 3, {key[:k] + ((),) + key[k:]: c for key, c in t.terms()},
                          _internal=True) for k in (2, 1, 0)]


def _schouten(r: TensorElement, s: TensorElement, parity: int) -> TensorElement:
    """[r12, s13] + [r12, s23] + [r13, s23], graded commutators of legs of
    the given parity: bilinear in (r, s), and [[r,r]] at s = r."""
    rs, ss, sign = _three_legs(r), _three_legs(s), (-1) ** parity
    return reduce(add, (rs[i] * ss[j] - ss[j] * rs[i] * sign
                        for i, j in combinations(range(3), 2)))


def schouten(expr: RMatrixExpr) -> TensorElement:
    """[[r,r]] as an exact tensor in g ox g ox g, in PBW normal form."""
    r = expr.tensor()
    return PBW.normal_form(_schouten(r, r, expr.parity()))


@lru_cache(maxsize=None)
def r3_schouten() -> TensorElement:
    """[[r3(1), r3(1)]], built once and shared: callers only read it."""
    return schouten(r3(Scalar.one()))


def omega_commutator() -> TensorElement:
    """[Omega12, Omega23] in PBW normal form, Omega = ``ad_invariant_element``:
    the modified CYBE in its standard form (Chari & Pressley, *A Guide to
    Quantum Groups*, ch. 2) reads [[r3(1), r3(1)]] = -[Omega12, Omega23]."""
    o12, _, o23 = _three_legs(ad_invariant_element())
    return PBW.normal_form(o12 * o23 - o23 * o12)


def coproduct(name: str, arity: int) -> TensorElement:
    """Delta_0(x) = sum_k 1 ox .. ox x ox .. ox 1 (x at slot k)."""
    return TensorElement(ALPHABET, arity, {
        tuple((name,) if k == slot else () for k in range(arity)): Scalar.one()
        for slot in range(arity)}, _internal=True)


def ad_invariance_check(omega: TensorElement) -> bool:
    """Does the graded adjoint action of every basis element kill the even
    ``omega``?  It is the commutator with the coproduct, in PBW normal form.
    DVp DVp = DXp/4, DVm DVm = -DXm/4 and DVp DVm + DVm DVp = -DH/2, so
    commuting with DVp and DVm means commuting with all five.  On an odd
    term the action is the anticommutator, so ValueError unless every term
    of ``omega`` is even."""
    if any(omega.alphabet.grade(sum(key, ())) for key, _ in omega.terms()):
        raise ValueError("ad-invariance is decided for even tensors only")
    return not any(PBW.normal_form(d * omega - omega * d)
                   for d in (coproduct(name, omega.arity) for name in ("Vp", "Vm")))


def family_groups(family) -> dict:
    """The rational tensor coefficient of each parameter monomial in [[r,r]].

    ``family`` lists pieces (m_i, r_i): a tuple of parameter exponents and a
    p-free RMatrixExpr, for r = sum_i m_i r_i.  The bracket is bilinear, so
    [[r,r]] = sum_{i,j} m_i m_j B(r_i, r_j), with B the bilinear form whose
    diagonal is the Schouten bracket; each group is normal-formed once.
    """
    pieces = [(mono, expr.parity(), expr.tensor()) for mono, expr in family]
    groups = {}
    for (m1, par1, r1), (m2, par2, r2) in product(pieces, repeat=2):
        if par1 != par2:
            raise ValueError("pieces of mixed parity")
        groups.setdefault(tuple(map(add, m1, m2)), []).append(_schouten(r1, r2, par1))
    return {mono: PBW.normal_form(reduce(add, parts)) for mono, parts in groups.items()}


def family_coboundary_check(family) -> bool:
    """Is [[r,r]] ad-invariant for every value of the family's parameters?

    The action is linear, so that holds, as a polynomial identity over Q,
    exactly when every group of ``family_groups`` is ad-invariant.
    """
    return all(map(ad_invariance_check, family_groups(family).values()))
