"""Exact coefficient arithmetic for the verification engine.

A :class:`Scalar` is an element of Q(sqrt2)[p, x, y, z, t]: a polynomial with
rational coefficients in the deformation parameter ``p``, the symbolic family
parameters ``x, y, z, t``, and the adjoined square root ``s`` of 2 (so s*s
reduces to 2 definitionally).  Internally a term maps an exponent tuple over
(p, x, y, z, t) to a coefficient a + b*sqrt2 stored as a pair of Fractions.

All arithmetic is exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

VARS = ("p", "x", "y", "z", "t")
_NVARS = len(VARS)
_ZEXP = (0,) * _NVARS

_Q2_ZERO = (Fraction(0), Fraction(0))
_Q2_ONE = (Fraction(1), Fraction(0))


def _accumulate(pairs, out=None):
    """Sum ``(key, coeff)`` pairs into ``out`` (a new dict by default).

    A key whose sum becomes zero is deleted; the zero test is truthiness, so
    any coefficient type with ``__bool__`` works (Scalar, RatP, int).  A key
    that cancels and comes back is re-added at the end of the dict.  The
    sparse containers built on Scalar sum their terms through this loop.
    Returns ``out``.
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


def _q2_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _q2_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _q2_mul(u, v):
    return (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _q2_neg(u):
    return (-u[0], -u[1])


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
    if a == 0 and b == 0:
        return _Q2_ZERO
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

    def __init__(self, terms=None, _internal=False):
        if terms is None:
            terms = {}
        if not _internal:
            terms = {
                tuple(e): (Fraction(c[0]), Fraction(c[1]))
                for e, c in terms.items()
                if c[0] != 0 or c[1] != 0
            }
        self._terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value) -> "Scalar":
        value = Fraction(value)
        if value == 0:
            return _ZERO
        return cls({_ZEXP: (value, Fraction(0))}, _internal=True)

    @classmethod
    def sqrt2(cls) -> "Scalar":
        return _SQRT2

    @classmethod
    def var(cls, name: str) -> "Scalar":
        i = VARS.index(name)
        exp = tuple(1 if j == i else 0 for j in range(_NVARS))
        return cls({exp: _Q2_ONE}, _internal=True)

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
        return all(e == _ZEXP for e in self._terms)

    @property
    def is_rational(self) -> bool:
        return all(e == _ZEXP and c[1] == 0 for e, c in self._terms.items())

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError(f"not a rational constant: {self}")
        return self._terms[_ZEXP][0]

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
        out = dict(self._terms)
        for e, c in other._terms.items():
            cur = out.get(e)
            s = _q2_add(cur, c) if cur is not None else c
            if s[0] or s[1]:
                out[e] = s
            elif cur is not None:
                del out[e]
        return Scalar(out, _internal=True)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({e: _q2_neg(c) for e, c in self._terms.items()}, _internal=True)

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
        if not self._terms or not other._terms:
            return _ZERO
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = _q2_mul(c1, c2)
                cur = out.get(e)
                s = _q2_add(cur, c) if cur is not None else c
                if s[0] or s[1]:
                    out[e] = s
                elif cur is not None:
                    del out[e]
        return Scalar(out, _internal=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational (or rational Scalar constant) only."""
        if isinstance(other, Scalar):
            if not other.is_constant:
                raise ValueError("division by non-constant scalars is not provided")
            inv = _q2_inv(other._terms.get(_ZEXP, _Q2_ZERO))
            return self * Scalar({_ZEXP: inv}, _internal=True)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * Scalar.rational(Fraction(1) / q)
        return NotImplemented

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
        subs = {}
        for name, val in values.items():
            subs[VARS.index(name)] = Fraction(val)
        out = {}
        for e, c in self._terms.items():
            factor = Fraction(1)
            new_e = list(e)
            for i, q in subs.items():
                factor *= q ** e[i]
                new_e[i] = 0
            key = tuple(new_e)
            c2 = (c[0] * factor, c[1] * factor)
            cur = out.get(key)
            s = _q2_add(cur, c2) if cur is not None else c2
            if s[0] or s[1]:
                out[key] = s
            elif cur is not None:
                del out[key]
        return Scalar(out, _internal=True)

    def unit_inverse(self) -> "Scalar":
        """Inverse of an invertible constant (nonzero element of Q(sqrt2))."""
        if not self.is_constant or self.is_zero:
            raise ValueError(f"not a unit: {self}")
        return Scalar({_ZEXP: _q2_inv(self._terms[_ZEXP])}, _internal=True)

    def divide_exact(self, divisor: "Scalar") -> "Scalar":
        """Exact polynomial division; raises ValueError if not divisible."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero")
        rem = dict(self._terms)
        dlead = max(divisor._terms)
        dlc = divisor._terms[dlead]
        dlc_inv = _q2_inv(dlc)
        quo = {}
        while rem:
            rlead = max(rem)
            qexp = tuple(a - b for a, b in zip(rlead, dlead))
            if any(k < 0 for k in qexp):
                raise ValueError("not exactly divisible")
            qc = _q2_mul(rem[rlead], dlc_inv)
            quo[qexp] = qc
            for e, c in divisor._terms.items():
                key = tuple(a + b for a, b in zip(qexp, e))
                cur = rem.get(key, _Q2_ZERO)
                s = _q2_sub(cur, _q2_mul(qc, c))
                if s[0] or s[1]:
                    rem[key] = s
                elif key in rem:
                    del rem[key]
        return Scalar(quo, _internal=True)

    def sqrt(self) -> "Scalar":
        """Square root of a perfect-square polynomial; raises ValueError."""
        if self.is_zero:
            return _ZERO
        lead = max(self._terms)
        if any(k % 2 for k in lead):
            raise ValueError(f"no polynomial square root: {self}")
        glc = _q2_sqrt(self._terms[lead])
        if glc is None:
            raise ValueError(f"no square root in Q(sqrt2) for leading coefficient of {self}")
        g = Scalar({tuple(k // 2 for k in lead): glc}, _internal=True)
        two_g_lead = Scalar({tuple(k // 2 for k in lead): _q2_mul((Fraction(2), Fraction(0)), glc)},
                            _internal=True)
        rem = self - g * g
        guard = 0
        while rem:
            guard += 1
            if guard > 4096:
                raise ValueError(f"no polynomial square root: {self}")
            rlead = max(rem._terms)
            t = Scalar({rlead: rem._terms[rlead]}, _internal=True).divide_exact(two_g_lead)
            g = g + t
            rem = self - g * g
        return g

    # -- presentation ---------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return format_scalar(self)

    def sorted_terms(self):
        """Terms sorted descending by (total degree, exponent tuple)."""
        return sorted(self._terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)


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


_ZERO = Scalar({}, _internal=True)
_ONE = Scalar({_ZEXP: _Q2_ONE}, _internal=True)
_SQRT2 = Scalar({_ZEXP: (Fraction(0), Fraction(1))}, _internal=True)

ZERO = _ZERO
ONE = _ONE
SQRT2 = _SQRT2
P = Scalar.var("p")
HALF = Scalar.rational(Fraction(1, 2))


def rat(value) -> Scalar:
    """Shorthand for Scalar.rational."""
    return Scalar.rational(value)
