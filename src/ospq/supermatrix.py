"""Matrices over graded free algebras, the graded tensor-to-matrix embedding,
nilpotent exponentials, partial transposes, and Yang-Baxter checks.

The 3x3 entry grading is g(j,k) = [j == 2] + [k == 2] (1-based indices); the
9x9 and 27x27 gradings are induced through the embedding

    e_{i1 j1} ox ... ox e_{in jn}
        -> (-1)^{sum_{k<l} (g(i_k)+g(j_k)) g(i_l)} E_{(i1..in),(j1..jn)},

which turns the graded tensor product of operators into plain matrix
multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import Scalar, _accumulate
from .freealg import SuperPoly, SCALAR_ALPHABET

INDEX_GRADE = (0, 1, 0)  # grade of 3x3 index 1,2,3


def index_grade(i: int) -> int:
    """Grade of a 1-based composite index in dimension 3**n."""
    return INDEX_GRADE[i - 1]


def entry_grade(n: int, row: int, col: int) -> int:
    """Grade of the (row, col) slot (1-based) of a 3**k dimensional matrix."""
    g = 0
    r, c = row - 1, col - 1
    while n > 1:
        n //= 3
        g += INDEX_GRADE[r // n] + INDEX_GRADE[c // n]
        r %= n
        c %= n
    g += INDEX_GRADE[r] + INDEX_GRADE[c]
    return g % 2


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
        return SuperMatrix(self.alphabet,
                           [[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return SuperMatrix(self.alphabet,
                           [[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, coeff):
        return SuperMatrix(self.alphabet,
                           [[e.scale(coeff) for e in row] for row in self.entries])

    def __matmul__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        zero = SuperPoly.zero(self.alphabet)
        out = [[zero] * n for _ in range(n)]
        for i in range(n):
            row = self.entries[i]
            for k in range(n):
                a = row[k]
                if a.is_zero:
                    continue
                brow = other.entries[k]
                orow = out[i]
                for j in range(n):
                    b = brow[j]
                    if not b.is_zero:
                        orow[j] = orow[j] + a * b
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


# ----------------------------------------------------------------------
# Graded embedding of abstract tensors of 3x3 elementary matrices.
# ----------------------------------------------------------------------

class MatrixTensor:
    """Scalar combination of e_{i1 j1} ox ... ox e_{in jn} (1-based indices)."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        self.arity = arity
        self.terms = {}
        if terms:
            for k, c in terms.items():
                if not c.is_zero:
                    self.terms[k] = c

    @classmethod
    def from_matrix_legs(cls, *mats):
        """Tensor of SuperMatrix(3) factors with Scalar entries."""
        arity = len(mats)
        out = cls(arity)
        def rec(i, key, coeff):
            if i == arity:
                yield key, coeff
                return
            m = mats[i]
            for r in range(1, 4):
                for c in range(1, 4):
                    e = m[r, c]
                    if e.is_zero:
                        continue
                    ce = e.coefficient(())
                    yield from rec(i + 1, key + ((r, c),), coeff * ce)
        _accumulate(rec(0, (), Scalar.one()), out.terms)
        return out

    def __add__(self, other):
        if self.arity != other.arity:
            raise ValueError("mixing arities")
        out = MatrixTensor(self.arity, self.terms)
        _accumulate(other.terms.items(), out.terms)
        return out

    def __sub__(self, other):
        return self + other.scale(Scalar.rational(-1))

    def scale(self, coeff):
        return MatrixTensor(self.arity,
                            {k: c * coeff for k, c in self.terms.items()})

    def leg_identity_inserted(self, position: int) -> "MatrixTensor":
        """Insert an identity leg at ``position`` (0-based), raising arity by 1."""
        out = MatrixTensor(self.arity + 1)
        _accumulate(((k[:position] + ((d, d),) + k[position:], c)
                     for k, c in self.terms.items() for d in range(1, 4)), out.terms)
        return out


def graded_embed(tensor: MatrixTensor, alphabet=SCALAR_ALPHABET) -> SuperMatrix:
    """Embed an abstract tensor into a 3**arity matrix with Koszul signs."""
    n = 3 ** tensor.arity
    acc = [[Scalar.zero()] * n for _ in range(n)]
    for key, coeff in tensor.terms.items():
        sign = 0
        for k in range(tensor.arity):
            gk = INDEX_GRADE[key[k][0] - 1] + INDEX_GRADE[key[k][1] - 1]
            if gk % 2:
                sign += sum(INDEX_GRADE[key[l][0] - 1] for l in range(k + 1, tensor.arity))
        row = 0
        col = 0
        for (i, j) in key:
            row = 3 * row + (i - 1)
            col = 3 * col + (j - 1)
        acc[row][col] = acc[row][col] + (-coeff if sign % 2 else coeff)
    zero = SuperPoly.zero(alphabet)
    entries = [[SuperPoly.constant(alphabet, c) if not c.is_zero else zero
                for c in row] for row in acc]
    return SuperMatrix(alphabet, entries)


def embed_left(t: SuperMatrix) -> SuperMatrix:
    """T ox 1 as a 9x9 matrix, with the graded signs on odd entries."""
    if t.n != 3:
        raise ValueError("embed_left needs a 3x3 matrix")
    t.check_grading()
    out = SuperMatrix.zero(t.alphabet, 9)
    for i in range(3):
        for j in range(3):
            e = t.entries[i][j]
            if e.is_zero:
                continue
            gij = INDEX_GRADE[i] + INDEX_GRADE[j]
            for k in range(3):
                sign = -1 if (gij * INDEX_GRADE[k]) % 2 else 1
                out.entries[3 * i + k][3 * j + k] = e if sign == 1 else -e
    return out


def embed_right(t: SuperMatrix) -> SuperMatrix:
    """1 ox T as a 9x9 block-diagonal matrix (sign-free)."""
    if t.n != 3:
        raise ValueError("embed_right needs a 3x3 matrix")
    t.check_grading()
    out = SuperMatrix.zero(t.alphabet, 9)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                out.entries[3 * k + i][3 * k + j] = t.entries[i][j]
    return out


def exp_nilpotent(m: SuperMatrix, t=None) -> SuperMatrix:
    """exp(t*m) as a finite sum; raises on non-nilpotent input."""
    if t is not None:
        m = m.scale(t)
    out = SuperMatrix.identity(m.alphabet, m.n)
    power = SuperMatrix.identity(m.alphabet, m.n)
    for k in range(1, m.n + 1):
        power = power @ m
        if power.is_zero():
            return out
        out = out + power.scale(Scalar.rational(Fraction(1, factorial(k))))
    raise ValueError("matrix is not nilpotent")


def invert_unipotent(m: SuperMatrix) -> SuperMatrix:
    """Inverse of 1 + N with N nilpotent, via the finite geometric series."""
    n_part = m - SuperMatrix.identity(m.alphabet, m.n)
    out = SuperMatrix.identity(m.alphabet, m.n)
    power = SuperMatrix.identity(m.alphabet, m.n)
    for k in range(1, m.n + 1):
        power = power @ n_part
        if power.is_zero():
            return out
        out = out + power if k % 2 == 0 else out - power
    raise ValueError("matrix is not unipotent")


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
