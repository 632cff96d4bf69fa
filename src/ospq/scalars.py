"""Exact coefficient arithmetic for the verification engine.

A :class:`Scalar` is an element of Q(sqrt2)[p]: a polynomial with rational
coefficients in the deformation parameter ``p`` and the square root ``s`` of
2.  That ring is Q[p, s]/(s^2 - 2), so a term maps a key (p-degree, s), with
s 0 or 1, to one rational, kept as an int when it is integral; a product of
two s terms drops s and doubles the coefficient.  The classical r-matrix families keep their parameters outside
this ring (``classical.family_coboundary_check``).

All arithmetic is exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

_ZEXP = (0, 0)
_SEXP = (0, 1)


def _accumulate(pairs, out=None):
    """Sum ``(key, coeff)`` pairs into ``out`` (a new dict by default).

    A key whose sum becomes zero is deleted; the zero test is truthiness, so
    any coefficient type with ``__bool__`` works (Fraction, Scalar, int).  A
    key that cancels and comes back is re-added at the end of the dict.
    Scalar and every sparse container built on it sum their terms through
    this loop.  Returns ``out``.
    """
    if out is None:
        out = {}
    for k, c in pairs:
        cur = out.get(k)
        s = cur + c if cur is not None else c
        if s:
            out[k] = s
        elif cur is not None:
            del out[k]
    return out


def _whole(q):
    """An integral Fraction as an int, whose arithmetic is cheaper; any other
    coefficient unchanged."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def _products(terms1, terms2):
    """The terms of the product of two Scalars, with s*s reduced to 2.  A
    product of one term by one term, nearly every product, is formed
    directly; an integral coefficient of it is an int."""
    if len(terms1) == 1 == len(terms2):
        ((d1, s1), c1), = terms1.items()
        ((d2, s2), c2), = terms2.items()
        if s1 and s2:
            return {(d1 + d2, 0): _whole(2 * c1 * c2)}
        return {(d1 + d2, s1 + s2): _whole(c1 * c2)}
    return _accumulate(((d1 + d2, 0), 2 * c1 * c2) if s1 and s2
                       else ((d1 + d2, s1 + s2), c1 * c2)
                       for (d1, s1), c1 in terms1.items()
                       for (d2, s2), c2 in terms2.items())


def _q2_inv(u):
    a, b = map(Fraction, u)
    d = a * a - 2 * b * b
    if d == 0:
        raise ZeroDivisionError("zero element of Q(sqrt2)")
    return (a / d, -b / d)


def _fraction_sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _q2_sqrt(u):
    """Square root in Q(sqrt2), or None.  Covers a + b*sqrt2 generally."""
    a, b = map(Fraction, u)
    if b == 0:
        r = _fraction_sqrt(a)
        if r is not None:
            return (r, Fraction(0))
        r = _fraction_sqrt(a / 2)
        if r is not None:
            return (Fraction(0), r)
        return None
    # (x + y sqrt2)^2 = x^2 + 2 y^2 + 2xy sqrt2
    disc = a * a - 2 * b * b
    rdisc = _fraction_sqrt(disc)
    if rdisc is None:
        return None
    for x2 in ((a + rdisc) / 2, (a - rdisc) / 2):
        rx = _fraction_sqrt(x2)
        if rx is not None and rx != 0:
            y = b / (2 * rx)
            return (rx, y)
    return None


class Scalar:
    """Immutable exact polynomial in p over Q(sqrt2)."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        """``terms`` maps (p-degree, s) keys, s in {0, 1}, to nonzero
        rationals, an integral one best as an int; it is stored as given."""
        self._terms = {} if terms is None else terms
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value) -> "Scalar":
        value = _whole(Fraction(value))
        return cls({_ZEXP: value}) if value else _ZERO

    @classmethod
    def sqrt2(cls) -> "Scalar":
        return _SQRT2

    @classmethod
    def in_p(cls, coeffs) -> "Scalar":
        """The polynomial in p with coefficients ``{degree: Fraction}``."""
        return cls({(d, 0): _whole(Fraction(c)) for d, c in coeffs.items() if c})

    @classmethod
    def _monomial(cls, degree, pair) -> "Scalar":
        """(a + b*s) * p^degree for a pair (a, b)."""
        return cls({(degree, k): _whole(c) for k, c in enumerate(pair) if c})

    @classmethod
    def zero(cls) -> "Scalar":
        return _ZERO

    @classmethod
    def one(cls) -> "Scalar":
        return _ONE

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(d == 0 for d, _ in self._terms)

    @property
    def is_rational(self) -> bool:
        return all(e == _ZEXP for e in self._terms)

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError(f"not a rational constant: {self}")
        return Fraction(self._terms[_ZEXP])

    # -- coefficient views ----------------------------------------------

    def coefficient(self, degree):
        """The coefficient (a, b), a + b*sqrt2, of p^degree."""
        return tuple(self._terms.get((degree, s), Fraction(0)) for s in (0, 1))

    def p_coefficients(self):
        """``{degree: rational}`` of a rational polynomial in p alone;
        raises ValueError on sqrt2."""
        out = {}
        for (d, s), c in self._terms.items():
            if s:
                raise ValueError("not a rational polynomial in p")
            out[d] = c
        return out

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(_accumulate(other._terms.items(), dict(self._terms)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(_products(self._terms, other._terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero constant of Q(sqrt2) only."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero")
        if not other.is_constant:
            raise ValueError("division by non-constant scalars is not provided")
        return self * other.unit_inverse()

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not provided")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- ring maps ----------------------------------------------------

    def substitute(self, **values) -> "Scalar":
        """Ring homomorphism p -> a rational value; the identity without one.

        ``p`` is the only variable, so any other name raises ValueError.
        """
        if values.keys() - {"p"}:
            raise ValueError(f"only p can be substituted, not {sorted(values)}")
        if "p" not in values:
            return self
        q = Fraction(values["p"])
        return Scalar(_accumulate(((0, s), c * q ** d) for (d, s), c in self._terms.items()))

    def unit_inverse(self) -> "Scalar":
        """Inverse of an invertible constant (nonzero element of Q(sqrt2))."""
        if not self.is_constant or self.is_zero:
            raise ValueError(f"not a unit: {self}")
        return Scalar._monomial(0, _q2_inv(self.coefficient(0)))

    def _lead(self, below=None):
        """Largest p-degree and its Q(sqrt2) coefficient (a, b).

        With ``below``, raises ArithmeticError unless the degree is smaller,
        so a remainder loop whose leads pass this check terminates; a lead
        that fails to cancel is an arithmetic defect, not a slow input.
        """
        degree = max(self._terms)[0]
        if below is not None and degree >= below:
            raise ArithmeticError(f"remainder lead {degree} is not below {below}")
        return degree, self.coefficient(degree)

    def divide_exact(self, divisor: "Scalar") -> "Scalar":
        """Exact polynomial division; raises ValueError if not divisible."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero")
        dlead, dlc = divisor._lead()
        dlc_inv = Scalar._monomial(0, _q2_inv(dlc))
        quo, rem, rlead = _ZERO, self, None
        while rem:
            rlead, rlc = rem._lead(rlead)
            qdeg = rlead - dlead
            if qdeg < 0:
                raise ValueError("not exactly divisible")
            q = Scalar._monomial(qdeg, rlc) * dlc_inv
            quo, rem = quo + q, rem - q * divisor
        return quo

    def sqrt(self) -> "Scalar":
        """Square root of a perfect-square polynomial; raises ValueError."""
        if self.is_zero:
            return _ZERO
        lead, lc = self._lead()
        if lead % 2:
            raise ValueError(f"no polynomial square root: {self}")
        glc = _q2_sqrt(lc)
        if glc is None:
            raise ValueError(f"no square root in Q(sqrt2) for leading coefficient of {self}")
        g = Scalar._monomial(lead // 2, glc)
        two_g_lead = g + g
        rem = self - g * g
        while rem:
            lead, lc = rem._lead(lead)
            g = g + Scalar._monomial(lead, lc).divide_exact(two_g_lead)
            rem = self - g * g
        return g

    # -- presentation ---------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return format_scalar(self)

    def sorted_terms(self):
        """Terms ``(p-degree, (a, b))`` sorted by descending degree."""
        degrees = sorted({d for d, _ in self._terms}, reverse=True)
        return [(d, self.coefficient(d)) for d in degrees]


def format_scalar(value: Scalar) -> str:
    """Canonical text form, e.g. ``1/2*p^2``, ``s*p``, ``2-3*p``."""
    if value.is_zero:
        return "0"
    parts = []
    for degree, coeff in value.sorted_terms():
        mono = "" if degree == 0 else "p" if degree == 1 else f"p^{degree}"
        a, b = coeff
        if b == 0:
            head = None if a == 1 and mono else ("-" if a == -1 and mono else str(a))
        elif a == 0:
            head = "s" if b == 1 else ("-s" if b == -1 else f"{b}*s")
        else:
            head = f"({a}+{b}*s)" if b > 0 else f"({a}-{-b}*s)"
        if head is None:
            parts.append(mono)
        elif head == "-":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{head}*{mono}" if mono else head)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


_ZERO = Scalar({})
ONE = _ONE = Scalar({_ZEXP: 1})
SQRT2 = _SQRT2 = Scalar({_SEXP: 1})
P = Scalar({(1, 0): 1})
# the torus weight of p: a term u*p^d of a graded element weighs wt(u) + 2d
P_WEIGHT = 2
HALF = Scalar.rational(Fraction(1, 2))


def rat(value) -> Scalar:
    """Shorthand for Scalar.rational."""
    return Scalar.rational(value)
