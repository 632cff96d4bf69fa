"""Canonical text serialization: polynomials, matrices, tensors, series.

The polynomial grammar round-trips: terms sorted descending in the monomial
order, coefficients as rational/p/s expressions, letters joined with ``*``,
e.g. ``a*b - p*a*a + p``.  Matrices serialize as the dimension followed by
row-major entries, one per line.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, format_scalar, P
from .freealg import SuperPoly, TensorElement, GradedAlphabet
from .supermatrix import SuperMatrix

MAX_EXPONENT = 64  # after ``^``, built by repeated products; --export writes <= 9


def _format_coeff(c: Scalar):
    """Coefficient prefix for a word, or None when it is an implicit 1."""
    text = format_scalar(c)
    if text == "1":
        return None, False
    if text == "-1":
        return None, True
    neg = False
    if len(c.sorted_terms()) == 1:
        if text.startswith("-"):
            neg = True
            text = text[1:]
        return text, neg
    return f"({text})", False


def format_poly(poly: SuperPoly) -> str:
    if poly.is_zero:
        return "0"
    parts = []
    for word, coeff in poly.terms():
        prefix, neg = _format_coeff(coeff)
        body = "*".join(word)
        if prefix is None:
            text = body if body else "1"
        elif body:
            text = f"{prefix}*{body}"
        else:
            text = prefix
        parts.append((neg, text))
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for neg, text in parts[1:]:
        out += f" - {text}" if neg else f" + {text}"
    return out


def format_tensor(tensor: TensorElement) -> str:
    if tensor.is_zero:
        return "0"
    alphabet = tensor.alphabet
    bits = []
    for key, coeff in sorted(tensor.terms(),
                             key=lambda kc: tuple(alphabet.word_key(w) for w in kc[0]),
                             reverse=True):
        legs = " ox ".join("*".join(w) if w else "1" for w in key)
        bits.append(f"({format_scalar(coeff)}) [{legs}]")
    return " + ".join(bits)


def format_matrix(matrix: SuperMatrix) -> str:
    lines = [str(matrix.n)]
    for row in matrix.entries:
        for entry in row:
            lines.append(format_poly(entry))
    return "\n".join(lines) + "\n"


def format_series(series) -> str:
    """Borel series as coefficient lines keyed by the (eps, m, n) monomials
    v^eps h^m X^n, with v = 2V and h = 2H."""
    lines = []
    for key, coeff in series.terms():
        lines.append(f"{key[0]} {key[1]} {key[2]} : {format_scalar(coeff)}")
    return "\n".join(lines) + "\n" if lines else "0\n"


# ----------------------------------------------------------------------
# Parsing (inverse of format_poly / format_matrix).
# ----------------------------------------------------------------------

class _Tokens:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*^()":
                self.toks.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(text[i:j])
                i = j
            else:
                raise ValueError(f"unexpected character {ch!r}")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.pos += 1
        return tok


def parse_poly(alphabet: GradedAlphabet, text: str) -> SuperPoly:
    toks = _Tokens(text)
    poly = _parse_sum(alphabet, toks)
    if toks.peek() is not None:
        raise ValueError(f"trailing input at {toks.peek()!r}")
    return poly


def _parse_sum(alphabet, toks):
    out = None
    sign = 1
    pending = True
    while True:
        tok = toks.peek()
        if tok is None or tok == ")":
            if pending:
                raise ValueError("dangling operator or empty expression")
            return out
        if tok in "+-":
            toks.take()
            sign = 1 if tok == "+" else -1
            pending = True
            continue
        term = _parse_product(alphabet, toks)
        if sign == -1:
            term = -term
        out = term if out is None else out + term
        sign = 1
        pending = False
        nxt = toks.peek()
        if nxt is None or nxt == ")":
            return out
        if nxt not in "+-":
            raise ValueError(f"expected + or - at {nxt!r}")


def _parse_product(alphabet, toks):
    acc = _parse_factor(alphabet, toks)
    while toks.peek() == "*":
        toks.take()
        acc = acc * _parse_factor(alphabet, toks)
    return acc


def _parse_factor(alphabet, toks):
    tok = toks.take()
    if tok == "(":
        inner = _parse_sum(alphabet, toks)
        if toks.take() != ")":
            raise ValueError("unbalanced parenthesis")
        base = inner
    elif tok[0].isdigit():
        try:
            value = Fraction(tok)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {tok!r}") from None
        base = SuperPoly.constant(alphabet, Scalar.rational(value))
    elif tok == "s":
        base = SuperPoly.constant(alphabet, Scalar.sqrt2())
    elif tok == "p":
        base = SuperPoly.constant(alphabet, P)
    elif tok in alphabet:
        base = SuperPoly.letter(alphabet, tok)
    else:
        raise ValueError(f"unknown symbol {tok!r}")
    if toks.peek() == "^":
        toks.take()
        exp = int(toks.take())
        if exp > MAX_EXPONENT:
            raise ValueError(f"exponent {exp} exceeds {MAX_EXPONENT}")
        out = SuperPoly.one(alphabet)
        for _ in range(exp):
            out = out * base
        return out
    return base


def parse_matrix(alphabet: GradedAlphabet, text: str) -> SuperMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n = int(lines[0]) if lines else 0
    if n < 1:
        raise ValueError("matrix dimension must be a positive integer")
    if len(lines) != 1 + n * n:
        raise ValueError(f"expected {n * n} entries, found {len(lines) - 1}")
    entries = []
    it = iter(lines[1:])
    for _ in range(n):
        entries.append([parse_poly(alphabet, next(it)) for _ in range(n)])
    return SuperMatrix(alphabet, entries)
