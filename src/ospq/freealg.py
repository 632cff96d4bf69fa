"""Free graded algebras: Z2-graded alphabets, noncommutative polynomials, maps
extended from letters, and graded tensor powers with the Koszul sign rule.

Every element kind is a :class:`Combination` of keys, which holds the sum,
difference, negation, scaling, equality and ``*`` of all three:
:class:`SuperPoly`, :class:`TensorElement` and, in :mod:`ospq.borel`,
``BorelSeries``.  A kind writes only its key product, its constructor and
its operand check.
Words are tuples of letter names.  A :class:`SuperPoly` is a finite Scalar
combination of words, or a number combination: its value at p = 2 (see
:mod:`ospq.rewrite`) or at p = 1 (see :mod:`ospq.borel`); containers keep
the type of their coefficients.  Its product is concatenation; normal forms
live in :mod:`ospq.rewrite` and, for the exact Borel algebra, in
:mod:`ospq.borel`.
:func:`extend` extends a map given on letters over words, as an algebra map
or as a graded anti-homomorphism with its Koszul sign, and linearly over
elements: the Hopf maps of both sides and every letter substitution are
such extensions.
:class:`TensorElement` is the one graded tensor power: words on every leg,
the Koszul-sign product, the leg maps and the counit contraction.
:class:`HopfMaps` builds Delta and S from generator images by :func:`extend`,
guards that they keep the weight, and writes the Hopf axioms on a generator
once: the function algebra (``frt.hopf_maps``) and the exact Borel algebra
(``borel.hopf_maps``) are its instances, each with its own normal form.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, ONE as S_ONE, _accumulate


class GradedAlphabet:
    """Ordered alphabet of Z2-graded letters with per-letter order weights.

    The monomial order used throughout is weighted-degree-lex: total weight,
    then word length, then left-to-right comparison of letter indices.  With
    all weights 1 this is the usual degree-lex order.

    ``torus`` gives each letter its integer torus weight, the grading in which
    p weighs 2 (:mod:`ospq.rewrite`); None declares no grading.
    """

    __slots__ = ("letters", "grades", "weights", "torus", "index")

    def __init__(self, letters, grades, weights=None, torus=None):
        self.letters = tuple(letters)
        self.grades = dict(grades)
        self.weights = {x: 1 for x in self.letters}
        if weights:
            self.weights.update(weights)
        self.torus = None if torus is None else {x: torus[x] for x in self.letters}
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

    def torus_weight(self, word) -> int:
        """The torus weight of a word; ValueError when none is declared."""
        if self.torus is None:
            raise ValueError(f"{self!r} declares no torus grading")
        return sum(self.torus[x] for x in word)

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


class Combination:
    """A finite combination of keys with nonzero coefficients: its linear
    structure and what ``*`` means.  A subclass builds results of its kind
    with ``_like(terms)``; its ``_check`` raises ValueError unless two
    operands can be combined, so a binary result keeps what both share; and
    its ``_product`` multiplies two checked operands.  ``*`` by a Scalar, an
    int or a Fraction scales, on either side."""

    __slots__ = ("_terms",)

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def terms(self):
        return self._terms.items()

    def _check(self, other):
        pass

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._like(_accumulate(other._terms.items(), dict(self._terms)))

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._like(_accumulate(((k, -c) for k, c in other._terms.items()),
                                      dict(self._terms)))

    def scale(self, coeff):
        if not coeff:
            return self._like({})
        return self._like({k: c * coeff for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._product(other)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._terms == other._terms


class SuperPoly(Combination):
    """Noncommutative polynomial: finite map word -> Scalar, whose product
    concatenates words.  Combining two alphabets, by ``==`` too, raises ValueError."""

    __slots__ = ("alphabet", "_hash")

    def __init__(self, alphabet, terms=None, _internal=False):
        self.alphabet = alphabet
        if terms is None:
            terms = {}
        if not _internal:
            terms = {tuple(w): c for w, c in terms.items() if c}
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
        return cls(alphabet, {(): coeff})

    def _like(self, terms):
        return SuperPoly(self.alphabet, terms, _internal=True)

    # -- inspection ----------------------------------------------------

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

    def _product(self, other):
        return self._like(_accumulate((w1 + w2, c1 * c2)
                                      for w1, c1 in self._terms.items()
                                      for w2, c2 in other._terms.items()))

    def __hash__(self):
        # with the alphabet, a hashed lookup never compares two alphabets
        if self._hash is None:
            self._hash = hash((self.alphabet, frozenset(self._terms.items())))
        return self._hash

    # -- maps ------------------------------------------------------------

    def substitute_letters(self, images: dict) -> "SuperPoly":
        """Replace letters by polynomials (an algebra map on the free algebra).

        Letters missing from ``images`` map to themselves in the target
        alphabet (which is taken from any image, else stays the same).
        """
        target = next((img.alphabet for img in images.values()), self.alphabet)
        return extend(lambda x: images[x] if x in images else SuperPoly.letter(target, x),
                      SuperPoly.one(target))(self)

    def map_scalars(self, fn) -> "SuperPoly":
        out = {}
        for w, c in self._terms.items():
            c2 = fn(c)
            if not c2.is_zero:
                out[w] = c2
        return self._like(out)

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


def extend(image, one, grade=None):
    """Extend ``image``, a map on letters, over words and linearly over elements.

    Words go to products in order or, when ``grade`` maps letters to Z2, by
    the graded anti-homomorphism S(ux) = (-1)^{|u||x|} S(x) S(u); ``one`` is
    the image of the empty word.  The returned map's ``word`` attribute maps
    one word, built once from its prefix with one product (a letter is its
    image) and memoized for as long as the map lives, so a map that is built
    once serves a whole run: callers only read the images it returns.  An
    element's image sums the scaled terms of its words' images in one pass.
    """
    memo = {(): one}

    def word(w):
        out = memo.get(w)
        if out is None:
            prefix, x = w[:-1], w[-1]
            if not prefix:
                out = image(x)
            elif grade is None:
                out = word(prefix) * image(x)
            else:
                out = image(x) * word(prefix)
                if grade[x] and sum(grade[y] for y in prefix) % 2:
                    out = -out
            memo[w] = out
        return out

    def extended(element):
        if not isinstance(one, Combination):
            return sum((word(w) * c for w, c in element._terms.items()), one * 0)
        return one._like(_accumulate((k, a * c) for w, c in element._terms.items()
                                     for k, a in word(w)._terms.items()))

    extended.word = word
    return extended


class TensorElement(Combination):
    """Element of a graded tensor power of a free graded algebra: a map from
    tuples of words, one per leg, to coefficients.

    The product concatenates the words leg by leg with the Koszul sign:
    (x ox y)(u ox v) = (-1)^{|y||u|} xu ox yv.  Combining two arities or two
    alphabets raises ValueError.
    """

    __slots__ = ("alphabet", "arity")

    def __init__(self, alphabet, arity, terms=None, _internal=False):
        self.alphabet, self.arity = alphabet, arity
        if terms is None:
            terms = {}
        if not _internal:
            if any(len(k) != arity for k in terms):
                raise ValueError("wrong arity in term")
            terms = {tuple(tuple(w) for w in k): c for k, c in terms.items() if c}
        self._terms = terms

    @classmethod
    def zero(cls, alphabet, arity):
        return cls(alphabet, arity, {}, _internal=True)

    @classmethod
    def of(cls, *legs):
        """Tensor product of SuperPoly legs (no signs; this is x ox y, not a product)."""
        terms = [((w,), c) for w, c in legs[0]._terms.items()]
        for leg in legs[1:]:
            terms = [(key + (w,), coeff * c) for key, coeff in terms
                     for w, c in leg._terms.items()]
        return cls(legs[0].alphabet, len(legs), _accumulate(terms), _internal=True)

    def _like(self, terms, arity=None):
        return TensorElement(self.alphabet, self.arity if arity is None else arity,
                             terms, _internal=True)

    def _check(self, other):
        if self.alphabet is not other.alphabet or self.arity != other.arity:
            raise ValueError("mixing tensor arities or alphabets")

    def _product(self, other):
        grade = self.alphabet.grade
        right = [(k2, c2, [i for i, w in enumerate(k2) if grade(w)])
                 for k2, c2 in other._terms.items()]

        def products():
            for k1, c1 in self._terms.items():
                g1 = [grade(w) for w in k1]
                after = [sum(g1[i + 1:]) for i in range(len(g1))]
                for k2, c2, odd2 in right:
                    c = c1 * c2
                    if sum(after[i] for i in odd2) % 2:
                        c = -c
                    yield tuple(w1 + w2 for w1, w2 in zip(k1, k2)), c
        return self._like(_accumulate(products()))

    def map_leg(self, leg: int, fn):
        """Apply a linear map to one leg; fn sends a word to a SuperPoly,
        whose terms are copied into the result as they stand."""
        def mapped():
            for k, c in self._terms.items():
                head, tail = k[:leg], k[leg + 1:]
                for w, c2 in fn(k[leg])._terms.items():
                    yield head + (w,) + tail, c * c2
        return self._like(_accumulate(mapped()))

    def expand_leg(self, leg: int, fn, new_arity: int):
        """Splice the tensor fn(word) in place of one leg, as (Delta ox id) does."""
        def spliced():
            for k, c in self._terms.items():
                head, tail = k[:leg], k[leg + 1:]
                for k2, c2 in fn(k[leg])._terms.items():
                    key = head + k2 + tail
                    if len(key) != new_arity:
                        raise ValueError("arity mismatch in expand_leg")
                    yield key, c * c2
        return self._like(_accumulate(spliced()), new_arity)

    def apply_counit_leg(self, leg: int, counit):
        """Contract one leg with ``counit``, a coefficient-valued linear map on
        SuperPolys; an arity-2 tensor collapses to a SuperPoly."""
        alphabet = self.alphabet
        out = _accumulate((k[:leg] + k[leg + 1:], c * e) for k, c in self._terms.items()
                          for e in [counit(SuperPoly(alphabet, {k[leg]: 1}, _internal=True))]
                          if e)
        if self.arity == 2:
            return SuperPoly(alphabet, {w: c for (w,), c in out.items()}, _internal=True)
        return self._like(out, self.arity - 1)

    def __repr__(self):
        from .serialize import format_tensor
        return format_tensor(self)


class HopfMaps:
    """The Hopf maps of a graded algebra, given on its generators, and the
    Hopf axioms on a generator g, each written once.

    ``images`` maps "id", "delta" and "antipode" to {generator: image}, the
    unit under "1"; ``evaluate`` sends an image to (weight, value) at the p
    where zero tests are decided.  ValueError unless each Delta and S image
    weighs as its generator: then so does the image of a homogeneous
    element, and its value decides its zero test.  Delta extends as an
    algebra map and S as a graded anti-homomorphism (letter ``grades``);
    ``counit`` is eps on SuperPolys; ``reduce`` brings a SuperPoly or a
    TensorElement to the normal form whose truthiness decides its zero test.
    """

    def __init__(self, images, evaluate, grades, counit, reduce):
        values = {name: {g: evaluate(f) for g, f in by_g.items()}
                  for name, by_g in images.items()}
        if any(values[name][g][0] != top for name in ("delta", "antipode")
               for g, (top, _) in values["id"].items()):
            raise ValueError("a Hopf map does not keep the torus weight")
        self.images = {name: {g: f for g, (_, f) in by_g.items()}
                       for name, by_g in values.items()}
        delta, anti = self.images["delta"], self.images["antipode"]
        self.delta = extend(delta.__getitem__, delta["1"])
        self.antipode = extend(anti.__getitem__, anti["1"], grades)
        self.counit, self.reduce = counit, reduce

    def coassociativity_defect(self, g):
        """(Delta ox id)Delta(g) - (id ox Delta)Delta(g), reduced."""
        d, delta = self.reduce(self.images["delta"][g]), self.delta.word
        return self.reduce(d.expand_leg(0, delta, 3) - d.expand_leg(1, delta, 3))

    def counit_defects(self, g):
        """(eps ox id)Delta(g) - g and (id ox eps)Delta(g) - g, reduced."""
        d, x = self.reduce(self.images["delta"][g]), self.images["id"][g]
        return tuple(self.reduce(d.apply_counit_leg(leg, self.counit) - x) for leg in (0, 1))

    def antipode_defects(self, g):
        """m(S ox id)Delta(g) - eps(g) 1 and m(id ox S)Delta(g) - eps(g) 1,
        reduced.  A unit leg is not multiplied: x ox 1 adds S(x) or x, and
        1 ox y adds y or S(y)."""
        ids, d, s = self.images["id"], self.images["delta"][g], self.antipode.word
        one = ids["1"]
        unit = one.scale(self.counit(ids[g]))

        def side(anti):
            def terms():
                for key, c in d.terms():
                    factors = [s(w) if i == anti else one._like({w: 1})
                               for i, w in enumerate(key) if w]
                    if len(factors) == 2:
                        product = factors[0] * factors[1]
                    else:
                        product = factors[0] if factors else one
                    yield from ((w, c * a) for w, a in product._terms.items())
            return one._like(_accumulate(terms()))
        return self.reduce(side(0) - unit), self.reduce(side(1) - unit)
