"""Free graded algebras: Z2-graded alphabets, noncommutative polynomials, and
graded tensor powers with the Koszul sign rule.

Words are tuples of letter names.  A :class:`SuperPoly` is a finite Scalar
combination of words; multiplication is plain concatenation (no reordering
happens here; normal forms live in :mod:`ospq.rewrite`).  A
:class:`TensorElement` is a combination of word tuples (arity 2 or 3) whose
product carries the sign (x ox y)(u ox v) = (-1)^{|y||u|} xu ox yv.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, ONE as S_ONE, _accumulate


class GradedAlphabet:
    """Ordered alphabet of Z2-graded letters with per-letter order weights.

    The monomial order used throughout is weighted-degree-lex: total weight,
    then word length, then left-to-right comparison of letter indices.  With
    all weights 1 this is the usual degree-lex order.
    """

    __slots__ = ("letters", "grades", "weights", "index")

    def __init__(self, letters, grades, weights=None):
        self.letters = tuple(letters)
        self.grades = dict(grades)
        self.weights = {x: 1 for x in self.letters}
        if weights:
            self.weights.update(weights)
        self.index = {x: i for i, x in enumerate(self.letters)}
        for x in self.letters:
            if self.grades.get(x) not in (0, 1):
                raise ValueError(f"letter {x!r} needs a Z2 grade")

    def word_key(self, word):
        return (
            sum(self.weights[x] for x in word),
            len(word),
            tuple(self.index[x] for x in word),
        )

    def grade(self, word) -> int:
        return sum(self.grades[x] for x in word) % 2

    def words_up_to(self, degree):
        """All words of length <= degree, shortest first."""
        out = [()]
        layer = [()]
        for _ in range(degree):
            layer = [w + (x,) for w in layer for x in self.letters]
            out.extend(layer)
        return out

    def __contains__(self, name):
        return name in self.index

    def __repr__(self):
        return f"GradedAlphabet({'.'.join(self.letters)})"


SCALAR_ALPHABET = GradedAlphabet((), {})


def _coerce_scalar(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.rational(value)
    return None


class SuperPoly:
    """Noncommutative polynomial: finite map word -> Scalar."""

    __slots__ = ("alphabet", "_terms", "_hash")

    def __init__(self, alphabet, terms=None, _internal=False):
        self.alphabet = alphabet
        if terms is None:
            terms = {}
        if not _internal:
            terms = {tuple(w): c for w, c in terms.items() if not c.is_zero}
            for w in terms:
                for x in w:
                    if x not in alphabet:
                        raise ValueError(f"letter {x!r} not in alphabet")
        self._terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet, {}, _internal=True)

    @classmethod
    def one(cls, alphabet):
        return cls(alphabet, {(): S_ONE}, _internal=True)

    @classmethod
    def letter(cls, alphabet, name, coeff=S_ONE):
        return cls(alphabet, {(name,): coeff})

    @classmethod
    def word(cls, alphabet, word, coeff=S_ONE):
        return cls(alphabet, {tuple(word): coeff})

    @classmethod
    def constant(cls, alphabet, coeff):
        coeff = _coerce_scalar(coeff)
        return cls(alphabet, {(): coeff})

    # -- inspection ----------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def terms(self):
        """(word, coefficient) pairs, descending in the monomial order."""
        key = self.alphabet.word_key
        return sorted(self._terms.items(), key=lambda wc: key(wc[0]), reverse=True)

    def coefficient(self, word) -> Scalar:
        return self._terms.get(tuple(word), Scalar.zero())

    def words(self):
        return self._terms.keys()

    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=-1)

    def min_degree(self) -> int:
        return min((len(w) for w in self._terms), default=-1)

    def leading_word(self):
        if not self._terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self._terms, key=self.alphabet.word_key)

    def grade(self) -> int:
        """Z2 grade; raises on graded-mixed values."""
        grades = {self.alphabet.grade(w) for w in self._terms}
        if len(grades) > 1:
            raise ValueError("grade of a graded-mixed polynomial")
        return grades.pop() if grades else 0

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.alphabet is not other.alphabet:
            raise ValueError("mixed alphabets")

    def __add__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        self._check(other)
        return SuperPoly(self.alphabet,
                         _accumulate(other._terms.items(), dict(self._terms)),
                         _internal=True)

    def __neg__(self):
        return SuperPoly(self.alphabet, {w: -c for w, c in self._terms.items()},
                         _internal=True)

    def __sub__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        scal = _coerce_scalar(other)
        if scal is not None:
            return self.scale(scal)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        self._check(other)
        out = _accumulate((w1 + w2, c1 * c2)
                          for w1, c1 in self._terms.items()
                          for w2, c2 in other._terms.items())
        return SuperPoly(self.alphabet, out, _internal=True)

    def __rmul__(self, other):
        scal = _coerce_scalar(other)
        if scal is not None:
            return self.scale(scal)
        return NotImplemented

    def scale(self, coeff) -> "SuperPoly":
        coeff = _coerce_scalar(coeff)
        if coeff.is_zero:
            return SuperPoly.zero(self.alphabet)
        return SuperPoly(self.alphabet,
                         {w: c * coeff for w, c in self._terms.items()},
                         _internal=True)

    def __eq__(self, other):
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.alphabet is other.alphabet and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- maps ------------------------------------------------------------

    def substitute_letters(self, images: dict) -> "SuperPoly":
        """Replace letters by polynomials (an algebra map on the free algebra).

        Letters missing from ``images`` map to themselves in the target
        alphabet (which is taken from any image, else stays the same).
        """
        target = None
        for img in images.values():
            target = img.alphabet
            break
        if target is None:
            target = self.alphabet
        out = SuperPoly.zero(target)
        cache = {}
        for w, c in self._terms.items():
            acc = SuperPoly.constant(target, c)
            for x in w:
                img = images.get(x)
                if img is None:
                    img = cache.get(x)
                    if img is None:
                        img = SuperPoly.letter(target, x)
                        cache[x] = img
                acc = acc * img
            out = out + acc
        return out

    def map_scalars(self, fn) -> "SuperPoly":
        out = {}
        for w, c in self._terms.items():
            c2 = fn(c)
            if not c2.is_zero:
                out[w] = c2
        return SuperPoly(self.alphabet, out, _internal=True)

    def substitute_parameter(self, **values) -> "SuperPoly":
        return self.map_scalars(lambda c: c.substitute(**values))

    def __repr__(self):
        from .serialize import format_poly
        return format_poly(self)


def sum_polys(polys, alphabet=None):
    """Sum a (possibly empty) iterable of SuperPoly without quadratic cost."""
    polys = list(polys)
    if not polys:
        if alphabet is None:
            raise ValueError("empty sum needs an alphabet")
        return SuperPoly.zero(alphabet)
    alphabet = polys[0].alphabet
    if any(f.alphabet is not alphabet for f in polys):
        raise ValueError("mixed alphabets")
    out = _accumulate((w, c) for f in polys for w, c in f._terms.items())
    return SuperPoly(alphabet, out, _internal=True)


class TensorElement:
    """Element of the graded tensor square/cube of a free graded algebra.

    Terms map tuples of words (one word per leg) to Scalars.  The product
    applies the Koszul rule leg by leg: moving the second factor's leg i past
    the first factor's legs j > i costs the product of their grades.
    """

    __slots__ = ("alphabet", "arity", "_terms")

    def __init__(self, alphabet, arity, terms=None, _internal=False):
        if arity not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        self.alphabet = alphabet
        self.arity = arity
        if terms is None:
            terms = {}
        if not _internal:
            terms = {tuple(tuple(w) for w in k): c
                     for k, c in terms.items() if not c.is_zero}
            for k in terms:
                if len(k) != arity:
                    raise ValueError("wrong arity in term")
        self._terms = terms

    @classmethod
    def zero(cls, alphabet, arity):
        return cls(alphabet, arity, {}, _internal=True)

    @classmethod
    def one(cls, alphabet, arity):
        return cls(alphabet, arity, {((),) * arity: S_ONE}, _internal=True)

    @classmethod
    def of(cls, *legs):
        """Tensor product of SuperPoly legs (no signs; this is x ox y, not a product)."""
        alphabet = legs[0].alphabet
        arity = len(legs)
        def rec(i, key, coeff):
            if i == arity:
                yield key, coeff
                return
            for w, c in legs[i]._terms.items():
                yield from rec(i + 1, key + (w,), coeff * c)
        return cls(alphabet, arity, _accumulate(rec(0, (), S_ONE)), _internal=True)

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def terms(self):
        return self._terms.items()

    def _check(self, other):
        if self.alphabet is not other.alphabet or self.arity != other.arity:
            raise ValueError("mixing tensor arities or alphabets")

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        return TensorElement(self.alphabet, self.arity,
                             _accumulate(other._terms.items(), dict(self._terms)),
                             _internal=True)

    def __neg__(self):
        return TensorElement(self.alphabet, self.arity,
                             {k: -c for k, c in self._terms.items()}, _internal=True)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff):
        coeff = _coerce_scalar(coeff)
        if coeff.is_zero:
            return TensorElement.zero(self.alphabet, self.arity)
        return TensorElement(self.alphabet, self.arity,
                             {k: c * coeff for k, c in self._terms.items()},
                             _internal=True)

    def __rmul__(self, other):
        scal = _coerce_scalar(other)
        if scal is not None:
            return self.scale(scal)
        return NotImplemented

    def __mul__(self, other):
        scal = _coerce_scalar(other)
        if scal is not None:
            return self.scale(scal)
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        grade = self.alphabet.grade

        def products():
            for k1, c1 in self._terms.items():
                g1 = tuple(grade(w) for w in k1)
                for k2, c2 in other._terms.items():
                    sign = 0
                    for i in range(self.arity):
                        gi = grade(k2[i])
                        if gi:
                            sign += sum(g1[j] for j in range(i + 1, self.arity))
                    c = c1 * c2
                    yield tuple(a + b for a, b in zip(k1, k2)), (-c if sign % 2 else c)
        return TensorElement(self.alphabet, self.arity, _accumulate(products()),
                             _internal=True)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.alphabet is other.alphabet and self.arity == other.arity
                and self._terms == other._terms)

    def map_leg(self, leg: int, fn) -> "TensorElement":
        """Apply a linear word -> SuperPoly map to one leg."""
        out = _accumulate((k[:leg] + (w2,) + k[leg + 1:], c * c2)
                          for k, c in self._terms.items()
                          for w2, c2 in fn(k[leg])._terms.items())
        return TensorElement(self.alphabet, self.arity, out, _internal=True)

    def expand_leg(self, leg: int, fn, new_arity: int) -> "TensorElement":
        """Replace one leg word by an arity-(new_arity - arity + 1) tensor image.

        Used for (Delta ox id) style maps: ``fn`` sends a word to a
        TensorElement whose legs are spliced in place of the original leg.
        """
        def spliced():
            for k, c in self._terms.items():
                for k2, c2 in fn(k[leg])._terms.items():
                    key = k[:leg] + k2 + k[leg + 1:]
                    if len(key) != new_arity:
                        raise ValueError("arity mismatch in expand_leg")
                    yield key, c * c2
        return TensorElement(self.alphabet, new_arity, _accumulate(spliced()),
                             _internal=True)

    def __repr__(self):
        from .serialize import format_tensor
        return format_tensor(self)
