"""Exact coefficient arithmetic for the verification engine.

A :class:`Scalar` is an element of Q(sqrt2)[p, x, y, z, t]: a polynomial with
rational coefficients in the deformation parameter ``p``, the symbolic family
parameters ``x, y, z, t``, and the square root ``s`` of 2.  That ring is
Q[p, x, y, z, t, s]/(s^2 - 2), so a term maps an exponent tuple over
(p, x, y, z, t, s), with the s exponent 0 or 1, to one Fraction; a product
whose s exponent reaches 2 drops it to 0 and doubles the coefficient.

All arithmetic is exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import add

VARS = ("p", "x", "y", "z", "t")
_NVARS = len(VARS)
_ZMONO = (0,) * _NVARS
_ZEXP = _ZMONO + (0,)
_SEXP = _ZMONO + (1,)


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


def _products(terms1, terms2):
    """Term products of two Scalars, with s*s reduced to 2."""
    for e1, c1 in terms1.items():
        for e2, c2 in terms2.items():
            e = tuple(map(add, e1, e2))
            if e[_NVARS] == 2:
                yield e[:_NVARS] + (0,), 2 * c1 * c2
            else:
                yield e, c1 * c2


def _q2_inv(u):
    d = u[0] * u[0] - 2 * u[1] * u[1]
    if d == 0:
        raise ZeroDivisionError("zero element of Q(sqrt2)")
    return (u[0] / d, -u[1] / d)


def _fraction_sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _q2_sqrt(u):
    """Square root in Q(sqrt2), or None.  Covers a + b*sqrt2 generally."""
    a, b = u
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
    """Immutable exact polynomial in (p, x, y, z, t) over Q(sqrt2)."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        """``terms`` maps (p, x, y, z, t, s) exponents, s in {0, 1}, to
        nonzero Fractions; it is stored as given."""
        self._terms = {} if terms is None else terms
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value) -> "Scalar":
        value = Fraction(value)
        if value == 0:
            return _ZERO
        return cls({_ZEXP: value})

    @classmethod
    def sqrt2(cls) -> "Scalar":
        return _SQRT2

    @classmethod
    def var(cls, name: str) -> "Scalar":
        i = VARS.index(name)
        exp = tuple(1 if j == i else 0 for j in range(_NVARS)) + (0,)
        return cls({exp: Fraction(1)})

    @classmethod
    def in_p(cls, coeffs) -> "Scalar":
        """The polynomial in p with coefficients ``{degree: Fraction}``."""
        return cls({(d,) + _ZEXP[1:]: Fraction(c) for d, c in coeffs.items() if c})

    @classmethod
    def _monomial(cls, mono, pair) -> "Scalar":
        """(a + b*s) * mono for a (p..t) exponent tuple and a pair (a, b)."""
        return cls({mono + (k,): c for k, c in enumerate(pair) if c})

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
        return all(e in (_ZEXP, _SEXP) for e in self._terms)

    @property
    def is_rational(self) -> bool:
        return all(e == _ZEXP for e in self._terms)

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError(f"not a rational constant: {self}")
        return self._terms[_ZEXP]

    # -- coefficient views ----------------------------------------------

    def grouped(self):
        """``{(p..t) exponents: (a, b)}``: the coefficient a + b*sqrt2 of
        each monomial."""
        out = {}
        for e, c in self._terms.items():
            pair = out.setdefault(e[:_NVARS], [Fraction(0), Fraction(0)])
            pair[e[_NVARS]] = c
        return {mono: tuple(pair) for mono, pair in out.items()}

    def p_coefficients(self):
        """``{degree: Fraction}`` of a rational polynomial in p alone;
        raises ValueError on sqrt2, x, y, z or t."""
        out = {}
        for e, c in self._terms.items():
            if any(e[1:]):
                raise ValueError("not a rational polynomial in p")
            out[e[0]] = c
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
        return Scalar(_accumulate(_products(self._terms, other._terms)))

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
        """Ring homomorphism substituting rational values for variables."""
        subs = {VARS.index(name): Fraction(val) for name, val in values.items()}

        def terms():
            for e, c in self._terms.items():
                new_e = list(e)
                for i, q in subs.items():
                    c *= q ** e[i]
                    new_e[i] = 0
                yield tuple(new_e), c
        return Scalar(_accumulate(terms()))

    def unit_inverse(self) -> "Scalar":
        """Inverse of an invertible constant (nonzero element of Q(sqrt2))."""
        if not self.is_constant or self.is_zero:
            raise ValueError(f"not a unit: {self}")
        return Scalar._monomial(_ZMONO, _q2_inv(self.grouped()[_ZMONO]))

    def _lead(self, below=None):
        """Largest (p..t) monomial and its Q(sqrt2) coefficient (a, b).

        With ``below``, raises ArithmeticError unless the monomial is lex
        smaller.  Lex order on exponent tuples is a well-order, so a remainder
        loop whose leads pass this check terminates; a lead that fails to
        cancel is an arithmetic defect, not a slow input.
        """
        mono = max(self._terms)[:_NVARS]
        if below is not None and mono >= below:
            raise ArithmeticError(f"remainder lead {mono} is not below {below}")
        return mono, self.grouped()[mono]

    def divide_exact(self, divisor: "Scalar") -> "Scalar":
        """Exact polynomial division; raises ValueError if not divisible."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero")
        dlead, dlc = divisor._lead()
        dlc_inv = Scalar._monomial(_ZMONO, _q2_inv(dlc))
        quo, rem, rlead = _ZERO, self, None
        while rem:
            rlead, rlc = rem._lead(rlead)
            qexp = tuple(a - b for a, b in zip(rlead, dlead))
            if any(k < 0 for k in qexp):
                raise ValueError("not exactly divisible")
            q = Scalar._monomial(qexp, rlc) * dlc_inv
            quo, rem = quo + q, rem - q * divisor
        return quo

    def sqrt(self) -> "Scalar":
        """Square root of a perfect-square polynomial; raises ValueError."""
        if self.is_zero:
            return _ZERO
        lead, lc = self._lead()
        if any(k % 2 for k in lead):
            raise ValueError(f"no polynomial square root: {self}")
        glc = _q2_sqrt(lc)
        if glc is None:
            raise ValueError(f"no square root in Q(sqrt2) for leading coefficient of {self}")
        g = Scalar._monomial(tuple(k // 2 for k in lead), glc)
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
        """Grouped terms ``((p..t) exponents, (a, b))`` sorted descending by
        (total degree, exponent tuple)."""
        return sorted(self.grouped().items(), key=lambda ec: (sum(ec[0]), ec[0]),
                      reverse=True)


def format_scalar(value: Scalar) -> str:
    """Canonical text form, e.g. ``1/2*p^2``, ``s*p``, ``2-3*p``."""
    if value.is_zero:
        return "0"
    parts = []
    for exp, coeff in value.sorted_terms():
        mono = "*".join(
            (VARS[i] if k == 1 else f"{VARS[i]}^{k}")
            for i, k in enumerate(exp) if k
        )
        a, b = coeff
        if b == 0:
            head = None if a == 1 and mono else ("-" if a == -1 and mono else str(a))
            neg = a < 0 and head == str(a)
        elif a == 0:
            base = "s" if b == 1 else ("-s" if b == -1 else f"{b}*s")
            head, neg = base, b < 0 and base.startswith("-")
        else:
            head = f"({a}+{b}*s)" if b > 0 else f"({a}-{-b}*s)"
            neg = False
        if head is None:
            term = mono
        elif head == "-":
            term = f"-{mono}"
        elif mono:
            term = f"{head}*{mono}"
        else:
            term = head
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


_ZERO = Scalar({})
_ONE = Scalar({_ZEXP: Fraction(1)})
_SQRT2 = Scalar({_SEXP: Fraction(1)})

ZERO = _ZERO
ONE = _ONE
SQRT2 = _SQRT2
P = Scalar.var("p")
HALF = Scalar.rational(Fraction(1, 2))


def rat(value) -> Scalar:
    """Shorthand for Scalar.rational."""
    return Scalar.rational(value)
