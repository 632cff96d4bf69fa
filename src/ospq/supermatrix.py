"""Matrices over graded free algebras, the graded Kronecker product, nilpotent
exponentials, partial transposes, and Yang-Baxter checks.

A 3x3 index has grade g = (0, 1, 0) on 1, 2, 3, a composite index of a 3**k
dimensional matrix the sum of its digits' grades, and a slot (row, col) the
sum of both.  The graded Kronecker product, the one place that applies the
Koszul sign of a tensor leg,

    kron(A, B)_{(i,k),(j,l)} = (-1)^{(g(i)+g(j)) g(k)} A_ij B_kl,

is associative and turns the graded tensor product of operators into plain
matrix multiplication: kron(A, B) kron(C, D) = (-1)^{|B||C|} kron(AC, BD)
for homogeneous B and C.

The basis vectors 1, 2, 3 also have torus weights w = (1, 0, -1), and the
matrix entry (i, j) weighs w_i - w_j.  With p of weight 2, every entry
c*p^m of R = exp(2p r) has w_i + w_k - w_j - w_l = 2m, and every metric
entry w_i + w_j = 2m, so the relations of both dual sides are homogeneous
(the Jordanian pattern: the torus weight of r is made up by p).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import Scalar, _accumulate
from .freealg import GradedAlphabet, SuperPoly, SCALAR_ALPHABET

INDEX_GRADE = (0, 1, 0)  # grade of 3x3 index 1,2,3
INDEX_WEIGHT = (1, 0, -1)  # torus weight of 3x3 index 1,2,3


def index_grade(n: int, i: int) -> int:
    """Grade of the 0-based composite index ``i`` in dimension n = 3**k."""
    g = 0
    while n > 1:
        n //= 3
        g += INDEX_GRADE[i // n]
        i %= n
    return g % 2


def entry_grade(n: int, row: int, col: int) -> int:
    """Grade of the (row, col) slot (1-based) of a 3**k dimensional matrix."""
    return (index_grade(n, row - 1) + index_grade(n, col - 1)) % 2


def layout_alphabet(layout, weights=None, drop=()):
    """The graded alphabet of the letters of a 3x3 layout, row by row: the
    letter at (i, j) has the slot grade and the torus weight w_i - w_j.
    None marks a slot without a letter; the letters in ``drop`` are left
    out, and ``weights`` are the order weights."""
    slots = {x: (i, j) for i, row in enumerate(layout) for j, x in enumerate(row)
             if x and x not in drop}
    torus = {x: INDEX_WEIGHT[i] - INDEX_WEIGHT[j] for x, (i, j) in slots.items()}
    return GradedAlphabet(tuple(slots), {x: entry_grade(3, i + 1, j + 1)
                                         for x, (i, j) in slots.items()},
                          weights, torus=torus)


def letter_matrix(alphabet, layout) -> "SuperMatrix":
    """The 3x3 matrix of a layout's letters over ``alphabet``: a slot
    without a letter holds 1 on the diagonal and 0 off it.  ValueError
    unless each letter has its slot grade."""
    one, zero = SuperPoly.one(alphabet), SuperPoly.zero(alphabet)
    m = SuperMatrix(alphabet, [[SuperPoly.letter(alphabet, x) if x else one if i == j else zero
                                for j, x in enumerate(row)] for i, row in enumerate(layout)])
    m.check_grading()
    return m


class SuperMatrix:
    """Square matrix with SuperPoly entries and the induced entry grading."""

    __slots__ = ("n", "alphabet", "entries")

    def __init__(self, alphabet, entries):
        self.alphabet = alphabet
        self.n = len(entries)
        self.entries = [list(row) for row in entries]
        for row in self.entries:
            if len(row) != self.n:
                raise ValueError("matrix is not square")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet, n):
        z = SuperPoly.zero(alphabet)
        return cls(alphabet, [[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, alphabet, n):
        z = SuperPoly.zero(alphabet)
        one = SuperPoly.one(alphabet)
        return cls(alphabet, [[one if i == j else z for j in range(n)]
                              for i in range(n)])

    @classmethod
    def from_scalars(cls, scalars, alphabet=SCALAR_ALPHABET):
        """Matrix of Scalar entries promoted to constant polynomials."""
        return cls(alphabet, [[SuperPoly.constant(alphabet, c) for c in row]
                              for row in scalars])

    def promote(self, alphabet) -> "SuperMatrix":
        """Re-express a scalar-entried matrix over another alphabet."""
        out = []
        for row in self.entries:
            new = []
            for e in row:
                terms = {}
                for w, c in e._terms.items():
                    if w:
                        raise ValueError("cannot promote non-constant entries")
                    terms[()] = c
                new.append(SuperPoly(alphabet, terms, _internal=True))
            out.append(new)
        return SuperMatrix(alphabet, out)

    # -- structure ------------------------------------------------------

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r - 1][c - 1]

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def check_grading(self) -> None:
        """Every stored entry must be grade-homogeneous of the slot grade."""
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                e = self.entries[i - 1][j - 1]
                if e.is_zero:
                    continue
                g = e.grade()
                want = entry_grade(self.n, i, j)
                if g != want:
                    raise ValueError(
                        f"entry ({i},{j}) has grade {g}, slot needs {want}")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SuperMatrix(self.alphabet,
                           [[a if not b._terms else b if not a._terms else a + b
                             for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SuperMatrix(self.alphabet,
                           [[a if not b._terms else -b if not a._terms else a - b
                             for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, coeff):
        return SuperMatrix(self.alphabet,
                           [[e.scale(coeff) if e._terms else e for e in row]
                            for row in self.entries])

    def __matmul__(self, other):
        """Matrix product over nonzero entries only: the products for one
        output entry go into one dict, and a nonzero sum makes one SuperPoly."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        if self.alphabet is not other.alphabet:
            raise ValueError("mixed alphabets")
        zero = SuperPoly.zero(self.alphabet)
        nonzero = [[(j, b._terms.items()) for j, b in enumerate(row) if b._terms]
                   for row in other.entries]
        out = []
        for row in self.entries:
            sums = {}
            for a, brow in zip(row, nonzero):
                if a._terms:
                    for j, bterms in brow:
                        _accumulate(((w1 + w2, c1 * c2) for w1, c1 in a._terms.items()
                                     for w2, c2 in bterms), sums.setdefault(j, {}))
            out.append([SuperPoly(self.alphabet, sums[j], _internal=True)
                        if sums.get(j) else zero for j in range(self.n)])
        return SuperMatrix(self.alphabet, out)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def map_entries(self, fn) -> "SuperMatrix":
        return SuperMatrix(self.alphabet,
                           [[fn(e) for e in row] for row in self.entries])

    def substitute_parameter(self, **values) -> "SuperMatrix":
        return self.map_entries(lambda e: e.substitute_parameter(**values))

    def __repr__(self):
        from .serialize import format_matrix
        return format_matrix(self)


def kron(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    """The graded Kronecker product A ox B of two matrices over one alphabet.

    Signs follow the slot grades, not the entry grades, so odd scalar
    operators (grade-0 constants in odd slots) embed correctly too.
    """
    m = b.n
    ga = [index_grade(a.n, i) for i in range(a.n)]
    gb = [index_grade(m, k) for k in range(m)]
    zero = SuperPoly.zero(a.alphabet)
    out = [[zero] * (a.n * m) for _ in range(a.n * m)]
    for i, arow in enumerate(a.entries):
        for j, x in enumerate(arow):
            if x.is_zero:
                continue
            odd = ga[i] != ga[j]
            for k, brow in enumerate(b.entries):
                orow = out[i * m + k]
                for l, y in enumerate(brow):
                    if not y.is_zero:
                        orow[j * m + l] = -(x * y) if odd and gb[k] else x * y
    return SuperMatrix(a.alphabet, out)


def _nilpotent_series(m: SuperMatrix, coeff, error: str) -> SuperMatrix:
    """sum_k coeff(k) m^k, a finite sum over the nonzero powers of m;
    ValueError(error) unless m is nilpotent."""
    out = power = SuperMatrix.identity(m.alphabet, m.n)
    for k in range(1, m.n + 1):
        power = power @ m
        if power.is_zero():
            return out
        out = out + power.scale(coeff(k))
    raise ValueError(error)


def exp_nilpotent(m: SuperMatrix, t=None) -> SuperMatrix:
    """exp(t*m) as a finite sum; raises on non-nilpotent input."""
    return _nilpotent_series(m if t is None else m.scale(t),
                             lambda k: Scalar.rational(Fraction(1, factorial(k))),
                             "matrix is not nilpotent")


def invert_unipotent(m: SuperMatrix) -> SuperMatrix:
    """Inverse of 1 + N with N nilpotent, via the finite geometric series."""
    return _nilpotent_series(m - SuperMatrix.identity(m.alphabet, m.n),
                             lambda k: (-1) ** k, "matrix is not unipotent")


def partial_transpose_first(m: SuperMatrix, graded: bool = False) -> SuperMatrix:
    """Transpose the first tensor leg of a 9x9 matrix.

    Entry at ((i,m),(j,n)) moves to ((j,m),(i,n)); with ``graded`` a sign
    -1 is applied to odd first-leg entries whose column index is odd (the
    variant validated by the metric equation).
    """
    if m.n != 9:
        raise ValueError("needs a 9x9 matrix")
    out = SuperMatrix.zero(m.alphabet, 9)
    for i in range(3):
        for mm in range(3):
            for j in range(3):
                for n_ in range(3):
                    e = m.entries[3 * i + mm][3 * j + n_]
                    if e.is_zero:
                        continue
                    if graded and INDEX_GRADE[j] == 1 and (INDEX_GRADE[i] + INDEX_GRADE[j]) % 2 == 1:
                        e = -e
                    out.entries[3 * j + mm][3 * i + n_] = \
                        out.entries[3 * j + mm][3 * i + n_] + e
    return out


def supertranspose3(t: SuperMatrix) -> SuperMatrix:
    """Supertranspose of a 3x3 supermatrix: (T^t)_{ij} = (-1)^{g(i)(g(i)+g(j))} T_{ji}.

    The sign lands on the odd-row slots (2,1) and (2,3); validated as the
    convention under which the deformed orthogonality ideal is consistent.
    """
    out = SuperMatrix.zero(t.alphabet, 3)
    for i in range(3):
        for j in range(3):
            e = t.entries[j][i]
            gi, gj = INDEX_GRADE[i], INDEX_GRADE[j]
            if (gi * (gi + gj)) % 2:
                e = -e
            out.entries[i][j] = e
    return out


def desuperize(r: SuperMatrix) -> SuperMatrix:
    """Sign twist removing the grading from the two-leg index convention.

    Entries in rows whose two leg indices are both odd flip sign; the result
    of applying this to a graded Yang-Baxter solution satisfies the ordinary
    Yang-Baxter equation.
    """
    if r.n != 9:
        raise ValueError("needs a 9x9 matrix")
    out = [row[:] for row in r.entries]
    for i in range(3):
        for mm in range(3):
            if INDEX_GRADE[i] and INDEX_GRADE[mm]:
                out[3 * i + mm] = [-e for e in out[3 * i + mm]]
    return SuperMatrix(r.alphabet, out)


def leg_embeddings_27(r: SuperMatrix):
    """R12, R13, R23 of a 9x9 matrix as plain 27x27 matrices."""
    if r.n != 9:
        raise ValueError("needs a 9x9 matrix")
    alphabet = r.alphabet
    zero = SuperPoly.zero(alphabet)
    r12 = [[zero] * 27 for _ in range(27)]
    r13 = [[zero] * 27 for _ in range(27)]
    r23 = [[zero] * 27 for _ in range(27)]
    for a in range(9):
        i, m = divmod(a, 3)
        for b in range(9):
            j, n_ = divmod(b, 3)
            e = r.entries[a][b]
            if e.is_zero:
                continue
            for k in range(3):
                r12[3 * a + k][3 * b + k] = e
                r13[9 * i + 3 * k + m][9 * j + 3 * k + n_] = e
                r23[9 * k + a][9 * k + b] = e
    return (SuperMatrix(alphabet, r12), SuperMatrix(alphabet, r13),
            SuperMatrix(alphabet, r23))


def ybe_check(r: SuperMatrix) -> bool:
    """Exact 27x27 check of R12 R13 R23 = R23 R13 R12."""
    r12, r13, r23 = leg_embeddings_27(r)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return (lhs - rhs).is_zero()
