"""The undeformed Borel algebra <H, V, X> as a normal-ordered series algebra,
the upper-triangular dual generator matrix with its exchange relations, the
ansatz reduction, and the deformed coproducts.

Normal-ordered monomials are v^eps h^m X^n (eps in {0,1}) in the integral
basis v = 2V, h = 2H, X.  There the paper's rules X H = (H - 1) X,
V H = (H - 1/2) V, V V = X / 4 and X V = V X have integer constants:
    X h = (h - 2) X,   v h = (h - 1) v,   v v = X,   X v = v X.
They preserve the filtration weight w = eps + 2n, so truncating at a weight
bound is an algebra quotient.  Tensor powers are truncated in the *total*
weight across legs, which is the quotient-compatible notion (per-leg
truncation breaks coassociativity bookkeeping).

The series algebra is also graded with p of weight ``rewrite.P_WEIGHT`` = 2:
v weighs -1, h 0 and X -2, so v^eps h^m X^n weighs -_weight(key).  This is
the torus grading of ``RLL_ALPHABET`` carried across by the ansatz (A -> K,
B -> V M, E -> V N, C_L -> H P).  The normal-ordering rules and every
generator image (``generator_images``) are homogeneous in it, so in an
element of weight E each monomial carries the one power p^k with
2k = E + _weight(key), and the element is zero exactly when its value at
p = 4 is (``at_four``).

Why 4: at p = 4, e^sigma = (1 + 4X)^(1/2), e^-sigma and e^-2sigma have
integer coefficients (central binomial and Catalan numbers), so the images
of v, h, X and e^sigma under the coproduct and the antipode are integral
there.  The Hopf checks run on those values: every product in them is int
arithmetic, with no Scalar and no Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from .scalars import Scalar, rat, P, HALF, SQRT2, _accumulate
from .freealg import GradedAlphabet, GradedTensor, HopfMaps, SuperPoly, _scaled, extend
from .supermatrix import SuperMatrix, entry_weights, kron
from .rewrite import P_WEIGHT, span_equal

DEFAULT_TRUNCATION = 16  # filtration weight; X-degree up to 8

# the letters of the dual generator matrix L at their positions: its (2,2)
# entry is 1 and its lower triangle 0
L_ENTRIES = (("A", "B", "C_L"), (None, None, "E"), (None, None, "F"))

# the generators v = 2V, h = 2H and X of the Borel algebra, on which its Hopf
# maps are given and its defining relations (``BOREL_RELATIONS``) written
BOREL_ALPHABET = GradedAlphabet(("v", "h", "X"), {"v": 1, "h": 0, "X": 0})

RLL_ALPHABET = GradedAlphabet(
    ("A", "B", "C_L", "E", "F"),
    {"A": 0, "B": 1, "C_L": 0, "E": 1, "F": 0},
    torus=entry_weights(L_ENTRIES),
)


# ----------------------------------------------------------------------
# Normal-ordered Borel series.
# ----------------------------------------------------------------------

def _weight(key) -> int:
    return key[0] + 2 * key[2]


def _h_shift_poly(m1: int, s1: int, m2: int, s2: int):
    """Expand (h + s1)^m1 (h + s2)^m2 as {h-power: int}."""
    poly = {0: 1}
    for m, s in ((m1, s1), (m2, s2)):
        if m == 0:
            continue
        poly = _accumulate((j0 + j, c0 * comb(m, j) * s ** (m - j))
                           for j0, c0 in poly.items() for j in range(m + 1))
    return poly


@lru_cache(maxsize=None)
def _mono_mul(k1, k2):
    """Product of normal-ordered monomials as a tuple of (key, int) pairs,
    built once per key pair and shared.

    v^e1 h^m1 X^n1 v^e2 h^m2 X^n2 = v^e1 v^e2 (h + e2)^m1 (h - 2 n1)^m2 X^(n1+n2),
    and when both e are 1, v v = X moves left of both h factors, shifting
    each by -2.  Normal ordering preserves weight: every key has weight
    _weight(k1) + _weight(k2), so callers truncate before multiplying.
    """
    (e1, m1, n1), (e2, m2, n2) = k1, k2
    doubled = e1 & e2
    shift = -2 * doubled
    hpoly = _h_shift_poly(m1, e2 + shift, m2, shift - 2 * n1)
    eps, n = (e1 + e2) % 2, n1 + n2 + doubled
    return tuple(((eps, j, n), c) for j, c in hpoly.items())


class BorelSeries:
    """Combination of normal-ordered monomials v^eps h^m X^n, with v = 2V and
    h = 2H, up to its weight bound.  Coefficients are Scalars, or ints for
    values at p = 4; a container keeps their type (zero tests are
    truthiness).  The series and tensors of one computation share their
    bound: combining two bounds raises ValueError."""

    __slots__ = ("weight_bound", "_terms")

    def __init__(self, weight_bound: int, terms=None, _internal=False):
        self.weight_bound = weight_bound
        if terms is None:
            terms = {}
        if not _internal:
            terms = {k: c for k, c in terms.items()
                     if c and _weight(k) <= weight_bound}
        self._terms = terms

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, w):
        return cls(w, {}, _internal=True)

    @classmethod
    def one(cls, w):
        return cls(w, {(0, 0, 0): Scalar.one()}, _internal=True)

    @classmethod
    def v(cls, w):
        """The paper's V = v/2."""
        return cls(w, {(1, 0, 0): HALF}, _internal=True)

    @classmethod
    def h(cls, w):
        """The paper's H = h/2."""
        return cls(w, {(0, 1, 0): HALF}, _internal=True)

    @classmethod
    def x(cls, w):
        return cls(w, {(0, 0, 1): Scalar.one()}, _internal=True)

    @classmethod
    def in_x(cls, w, coeffs):
        """The series in X alone with coefficient ``coeffs[n]`` on X^n."""
        return cls(w, {(0, 0, n): c for n, c in coeffs.items()})

    # -- structure --------------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def terms(self):
        return sorted(self._terms.items())

    def coefficient(self, key):
        return self._terms.get(key, 0)

    def _check(self, other):
        if self.weight_bound != other.weight_bound:
            raise ValueError("mixing weight bounds")

    def __add__(self, other):
        self._check(other)
        return BorelSeries(self.weight_bound,
                           _accumulate(other._terms.items(), dict(self._terms)),
                           _internal=True)

    def __neg__(self):
        return BorelSeries(self.weight_bound,
                           {k: -c for k, c in self._terms.items()}, _internal=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        self._check(other)
        w = self.weight_bound
        out = _accumulate(kc for k1, c1 in self._terms.items()
                          for k2, c2 in other._terms.items()
                          if _weight(k1) + _weight(k2) <= w
                          for kc in _scaled(_mono_mul(k1, k2), c1 * c2))
        return BorelSeries(w, out, _internal=True)

    __rmul__ = __mul__

    def scale(self, coeff) -> "BorelSeries":
        if not coeff:
            return BorelSeries.zero(self.weight_bound)
        return BorelSeries(self.weight_bound,
                           {k: c * coeff for k, c in self._terms.items()},
                           _internal=True)

    def __eq__(self, other):
        if not isinstance(other, BorelSeries):
            return NotImplemented
        self._check(other)
        return self._terms == other._terms

    def counit(self):
        return self._terms.get((0, 0, 0), 0)

    # -- the commutative slice of series in X alone ------------------------

    def _x_coeffs(self):
        """{n: coefficient of X^n}; the recurrences below hold only on this
        slice (H has weight 0 and is not nilpotent)."""
        if any(e or m for e, m, _ in self._terms):
            raise ValueError("series in X alone expected, found a V or H term")
        return {n: c for (_, _, n), c in self._terms.items()}

    def inverse(self) -> "BorelSeries":
        coeffs = self._x_coeffs()
        c0 = coeffs.get(0, Scalar.zero())
        if c0.is_zero or not c0.is_constant:
            raise ValueError("inverse needs an invertible constant term")
        inv0 = c0.unit_inverse()
        out = {0: inv0}
        for n in range(1, self.weight_bound // 2 + 1):
            acc = Scalar.zero()
            for i in range(1, n + 1):
                ci = coeffs.get(i)
                oj = out.get(n - i)
                if ci is not None and oj is not None:
                    acc = acc + ci * oj
            c = -(inv0 * acc)
            if not c.is_zero:
                out[n] = c
        return BorelSeries.in_x(self.weight_bound, out)

    def sqrt(self) -> "BorelSeries":
        """Series square root; the constant term must be a perfect square."""
        coeffs = self._x_coeffs()
        c0 = coeffs.get(0, Scalar.zero())
        if c0.is_zero:
            raise ValueError("square root needs a nonzero constant term")
        g0 = c0.sqrt()
        two_g0 = rat(2) * g0
        out = {0: g0}
        for n in range(1, self.weight_bound // 2 + 1):
            acc = coeffs.get(n, Scalar.zero())
            for i in range(1, n):
                gi, gj = out.get(i), out.get(n - i)
                if gi is not None and gj is not None:
                    acc = acc - gi * gj
            c = acc.divide_exact(two_g0)
            if not c.is_zero:
                out[n] = c
        return BorelSeries.in_x(self.weight_bound, out)

    def x_derivative(self) -> "BorelSeries":
        """X d/dX of a series in X alone: n c_n on X^n, exact up to the full
        weight bound (d/dX would need the unknown next coefficient)."""
        return BorelSeries.in_x(self.weight_bound,
                                {n: rat(n) * c for n, c in self._x_coeffs().items()})

    def __repr__(self):
        if not self._terms:
            return "BorelSeries(0)"
        bits = []
        for (e, m, n), c in self.terms():
            mono = "".join((["v"] if e else []) + (["h^%d" % m] if m else [])
                           + (["X^%d" % n] if n else [])) or "1"
            bits.append(f"({c})*{mono}")
        return "BorelSeries[v = 2V, h = 2H](" + " + ".join(bits) + ")"


def one_plus_px(w: int) -> BorelSeries:
    return BorelSeries.in_x(w, {0: Scalar.one(), 1: P})


def exp_sigma(w: int) -> BorelSeries:
    """(1 + pX)^(1/2)."""
    return _generators(w).exp_sigma


def exp_minus_sigma(w: int) -> BorelSeries:
    return _generators(w).exp_minus_sigma


def exp_minus_two_sigma(w: int) -> BorelSeries:
    return _generators(w).exp_minus_two_sigma


# ----------------------------------------------------------------------
# Graded tensor powers with total-weight truncation.
# ----------------------------------------------------------------------

class BorelTensor(GradedTensor):
    """Tensor power of the Borel algebra, truncated in total weight.

    Leg keys are the monomials (eps, m, n) of v^eps h^m X^n: grade eps,
    weight eps + 2n, product ``_mono_mul``.
    """

    __slots__ = ("weight_bound",)

    def __init__(self, arity, weight_bound, terms=None, _internal=False):
        self.weight_bound = weight_bound
        super().__init__(arity, terms, _internal)

    @classmethod
    def zero(cls, arity, w):
        return cls(arity, w, {}, _internal=True)

    @classmethod
    def one(cls, arity, w):
        return cls(arity, w, {((0, 0, 0),) * arity: Scalar.one()}, _internal=True)

    @classmethod
    def of(cls, *legs):
        for leg in legs[1:]:
            legs[0]._check(leg)
        return cls.zero(len(legs), legs[0].weight_bound)._tensor_of(legs)

    _key_weight = staticmethod(_weight)
    _key_product = staticmethod(_mono_mul)

    @staticmethod
    def _key_grade(key):
        return key[0]

    def _like(self, terms, arity=None):
        return BorelTensor(self.arity if arity is None else arity, self.weight_bound,
                           terms, _internal=True)

    def _leg_element(self, terms):
        return BorelSeries(self.weight_bound, terms, _internal=True)

    def _check(self, other):
        if self.arity != other.arity or self.weight_bound != other.weight_bound:
            raise ValueError("mixing tensor arities or weight bounds")


# ----------------------------------------------------------------------
# Deformed coproducts, decided at p = 4.
# ----------------------------------------------------------------------

def at_four(element):
    """(E, value at p = 4) of a Scalar BorelSeries or BorelTensor of weight E
    in the grading of the module docstring, E None for zero, with int
    coefficients; ValueError when a term weighs otherwise or a coefficient is
    not a polynomial in p, ArithmeticError when a value is not an integer."""
    tensor = isinstance(element, BorelTensor)
    top, terms = None, {}
    for key, c in element._terms.items():
        base = -(sum(map(_weight, key)) if tensor else _weight(key))
        for d, q in c.p_coefficients().items():
            if top is None:
                top = base + d * P_WEIGHT
            elif base + d * P_WEIGHT != top:
                raise ValueError(f"not homogeneous in the Borel grading: {element!r}")
            value = q * 4 ** d
            if value.denominator != 1:
                raise ArithmeticError(f"term {key} of {element!r} is not integral at p = 4")
            terms[key] = value.numerator
    if tensor:
        return top, element._like(terms)
    return top, BorelSeries(element.weight_bound, terms, _internal=True)


def generator_images(w: int):
    """The unit, e^sigma, v = 2V, h = 2H and X with their coproducts and
    antipode images over Q[p]: {"id" | "delta" | "antipode": {generator:
    image}}.  Each image is homogeneous of its generator's weight.

    Delta(e^sigma) = e^sigma ox e^sigma, Delta(v) = e^sigma ox v + v ox 1,
    Delta(h) = 1 ox h + (p/2) v e^-sigma ox v e^-2sigma + h ox e^-2sigma and
    Delta(X) = X ox 1 + 1 ox X + p X ox X (group-like e^{2 sigma}): twice the
    paper's Delta(V) and Delta(H) = 1 ox H + p V e^-sigma ox V e^-2sigma +
    H ox e^-2sigma.  The antipode candidate is derived from the antipode
    axiom on the generators: S(e^sigma) = e^-sigma, S(v) = -e^-sigma v,
    S(h) = -h e^{2 sigma} + (p/2) X (twice S(H) = -H e^{2 sigma} + (p/4) X),
    and S(X) = (e^{-2 sigma} - 1)/p from X = (e^{2 sigma} - 1)/p.
    """
    es, esi, es2i = exp_sigma(w), exp_minus_sigma(w), exp_minus_two_sigma(w)
    one, x = BorelSeries.one(w), BorelSeries.x(w)
    v = BorelSeries(w, {(1, 0, 0): Scalar.one()}, _internal=True)
    h = BorelSeries(w, {(0, 1, 0): Scalar.one()}, _internal=True)
    half_p = HALF * P
    return {
        "id": {"1": one, "exp_sigma": es, "v": v, "h": h, "X": x},
        "delta": {
            "1": BorelTensor.one(2, w),
            "exp_sigma": BorelTensor.of(es, es),
            "v": BorelTensor.of(es, v) + BorelTensor.of(v, one),
            "h": (BorelTensor.of(one, h) + BorelTensor.of(v * esi, v * es2i).scale(half_p)
                  + BorelTensor.of(h, es2i)),
            "X": (BorelTensor.of(x, one) + BorelTensor.of(one, x)
                  + BorelTensor.of(x, x).scale(P)),
        },
        "antipode": {
            "1": one,
            "exp_sigma": esi,
            "v": -(esi * v),
            "h": -(h * one_plus_px(w)) + x.scale(half_p),
            "X": BorelSeries(w, {k: c.divide_exact(P) for k, c in es2i._terms.items() if k[2]}),
        },
    }


class _Generators:
    """The generator data at one weight bound w, each built on first use and
    then shared: no BorelSeries or BorelTensor method mutates it.  The
    series e^sigma, e^-sigma and e^-2sigma stay over Q[p] for the ansatz and
    the export; the Hopf images are built over Q[p] once and kept only at
    p = 4, where the checks decide."""

    def __init__(self, w: int):
        self.w = w

    @cached_property
    def exp_sigma(self) -> BorelSeries:
        return one_plus_px(self.w).sqrt()

    @cached_property
    def exp_minus_sigma(self) -> BorelSeries:
        return self.exp_sigma.inverse()

    @cached_property
    def exp_minus_two_sigma(self) -> BorelSeries:
        return one_plus_px(self.w).inverse()

    @cached_property
    def hopf(self) -> HopfMaps:
        """The Hopf maps on ``generator_images`` at p = 4, each image
        evaluated once: every coefficient is an int."""
        return HopfMaps(generator_images(self.w), at_four, BOREL_ALPHABET.grades,
                        BorelSeries.counit, "Borel", word_of=_word)

    @property
    def images(self):
        """{"id" | "delta" | "antipode": {generator: image at p = 4}}."""
        return self.hopf.images


@lru_cache(maxsize=None)
def _generators(w: int) -> _Generators:
    return _Generators(w)


def delta_v(w: int) -> BorelTensor:
    """Delta(V) = Delta(v)/2 at p = 4."""
    return _generators(w).images["delta"]["v"].scale(Fraction(1, 2))


def delta_h(w: int) -> BorelTensor:
    """Delta(H) = Delta(h)/2 at p = 4."""
    return _generators(w).images["delta"]["h"].scale(Fraction(1, 2))


def delta_x(w: int) -> BorelTensor:
    """Delta(X) at p = 4."""
    return _generators(w).images["delta"]["X"]


def delta_exp_sigma(w: int) -> BorelTensor:
    """Delta(e^sigma) at p = 4."""
    return _generators(w).images["delta"]["exp_sigma"]


# the generators of the Hopf checks by the paper's names, each decided on its
# integral image: a defect of v = 2V or h = 2H is twice that of V or H
_INTEGRAL = {"exp_sigma": "exp_sigma", "V": "v", "H": "h"}


def _word(key):
    """The normal-ordered monomial v^eps h^m X^n as a word in v, h, X."""
    eps, m, n = key
    return ("v",) * eps + ("h",) * m + ("X",) * n


def delta_monomial(key, w: int) -> BorelTensor:
    """Delta(v)^eps Delta(h)^m Delta(X)^n at p = 4, built once per (key, w)
    and shared: no BorelTensor method mutates it."""
    return _generators(w).hopf.delta.word(_word(key))


def coassociativity_defect(which: str, w: int) -> BorelTensor:
    """The coassociativity defect at p = 4 of g in {e^sigma, V, H}, decided
    on e^sigma, v and h."""
    return _generators(w).hopf.coassociativity_defect(_INTEGRAL[which])


def counit_defects(w: int):
    """The two counit defects at p = 4 of each g in {e^sigma, V, H}."""
    hopf = _generators(w).hopf
    return {name: hopf.counit_defects(gen) for name, gen in _INTEGRAL.items()}


# the defining Borel relations in the basis v, h, X, as {word: coefficient}:
# h X - X h - 2 X, h v - v h - v, v v - X and X v - v X
BOREL_RELATIONS = {
    "HX": {("h", "X"): 1, ("X", "h"): -1, ("X",): -2},
    "HV": {("h", "v"): 1, ("v", "h"): -1, ("v",): -1},
    "VV": {("v", "v"): 1, ("X",): -1},
    "XV": {("X", "v"): 1, ("v", "X"): -1},
}


def borel_relation(which: str) -> SuperPoly:
    """The defining Borel relation ``which`` over ``BOREL_ALPHABET``."""
    return SuperPoly(BOREL_ALPHABET, BOREL_RELATIONS[which])


def borel_relation_defect(which: str, w: int) -> BorelSeries:
    """Defining Borel relations evaluated in the algebra itself (sanity zero)."""
    ids = _generators(w).images["id"]
    return extend(ids.__getitem__, ids["1"])(borel_relation(which))


def coproduct_relation_defect(which: str, w: int) -> BorelTensor:
    """Delta at p = 4 applied to a defining Borel relation (homomorphism
    certificate); each word's coproduct is built once per w and shared."""
    return _generators(w).hopf.delta(borel_relation(which))


def square_defects(w: int):
    """Delta(v)^2 - Delta(X) (the relation VV: Delta(V)^2 - Delta(X)/4, times
    4), and Delta(e^sigma) (S(e^sigma) ox S(e^sigma)) - 1 ox 1 (group-likes
    invert), at p = 4."""
    images = _generators(w).images
    delta, s_es = images["delta"], images["antipode"]["exp_sigma"]
    return {"square": coproduct_relation_defect("VV", w),
            "grouplike": (delta["exp_sigma"] * BorelTensor.of(s_es, s_es)
                          - delta["1"])}


def antipode_axiom_defects(w: int):
    """The two antipode defects at p = 4 of each g in {e^sigma, V, H}, with S
    extended from the candidate images of ``generator_images``."""
    hopf = _generators(w).hopf
    return {name: hopf.antipode_defects(gen) for name, gen in _INTEGRAL.items()}


# ----------------------------------------------------------------------
# The ansatz and its conditions.
# ----------------------------------------------------------------------

@dataclass
class AnsatzFunctions:
    """The five series of the triangular ansatz; K(0) must be 1-like."""
    K: BorelSeries
    L: BorelSeries
    M: BorelSeries
    N: BorelSeries
    P: BorelSeries


def particular_solution(w: int) -> AnsatzFunctions:
    """K = e^sigma, L = e^-sigma, M = sqrt2 p, N = sqrt2 p e^-sigma, P = 2p e^sigma."""
    es = exp_sigma(w)
    esi = exp_minus_sigma(w)
    sp = SQRT2 * P
    return AnsatzFunctions(
        K=es,
        L=esi,
        M=BorelSeries.in_x(w, {0: sp}),
        N=esi * sp,
        P=es * (rat(2) * P),
    )


def trivial_solution(w: int) -> AnsatzFunctions:
    one = BorelSeries.one(w)
    zero = BorelSeries.zero(w)
    return AnsatzFunctions(K=one, L=one, M=zero, N=zero, P=zero)


def affine_solution(w: int) -> AnsatzFunctions:
    """The K = 1 + pX family (square roots stay inside the coefficient ring)."""
    k = one_plus_px(w)
    ksq = k * k
    num = BorelSeries.in_x(w, {0: rat(4) * P * P, 1: rat(2) * P * P * P})
    n = (num * ksq.inverse()).sqrt()
    p_series = BorelSeries.in_x(w, {0: rat(2) * P, 1: P * P})
    return AnsatzFunctions(K=k, L=k.inverse(), M=k * n, N=n, P=p_series)


def check_ansatz_conditions(f: AnsatzFunctions) -> bool:
    """Division-free conditions: KL = 1, M = KN, P X K' = p(K^2-1), (X/2) N^2 K^2 = p(K^2-1)."""
    w = f.K.weight_bound
    one = BorelSeries.one(w)
    x = BorelSeries.x(w)
    ksq = f.K * f.K
    rhs = (ksq - one) * P
    ok1 = f.K * f.L == one
    ok2 = f.M == f.K * f.N
    ok3 = f.P * f.K.x_derivative() == rhs
    ok4 = x * f.N * f.N * ksq * HALF == rhs
    return ok1 and ok2 and ok3 and ok4


# ----------------------------------------------------------------------
# Dual exchange relations and the residual span.
# ----------------------------------------------------------------------

def _lw(word, coeff=None) -> SuperPoly:
    return SuperPoly.word(RLL_ALPHABET, word, coeff if coeff is not None else Scalar.one())


def dual_relations():
    """The quadratic exchange relations of the dual triangular generators."""
    p = P
    half_p = HALF * p
    one = SuperPoly.one(RLL_ALPHABET)

    def comm(x, y):
        return _lw((x, y)) - _lw((y, x))

    return [
        comm("A", "C_L") - _lw(("A", "F"), p) + _lw(("A", "A"), p),
        comm("C_L", "F") - _lw(("F", "F"), p) + _lw(("A", "F"), p),
        comm("A", "F"),
        (comm("C_L", "A") - comm("C_L", "F")
         - _lw(("E", "E")) + _lw(("F", "F"), half_p)
         - _lw(("A", "A"), half_p) - _lw(("B", "B"))),
        comm("A", "B"),
        comm("B", "F"),
        comm("A", "E"),
        comm("E", "F"),
        comm("B", "C_L") - _lw(("B", "F"), p) + _lw(("B", "A"), p) + _lw(("E",), p),
        comm("C_L", "E") - _lw(("F", "E"), p) - _lw(("B",), p) + _lw(("A", "E"), p),
        _lw(("B", "B")) - _lw(("A", "A"), half_p) + one.scale(half_p),
        _lw(("B", "E")) + _lw(("E", "B")) - _lw(("A",), p) + _lw(("F",), p),
        _lw(("E", "E")) + _lw(("F", "F"), half_p) - one.scale(half_p),
    ]


def dual_generator_matrix() -> SuperMatrix:
    return SuperMatrix(RLL_ALPHABET, [
        [SuperPoly.letter(RLL_ALPHABET, x) if x
         else SuperPoly.one(RLL_ALPHABET) if i == j else SuperPoly.zero(RLL_ALPHABET)
         for j, x in enumerate(row)] for i, row in enumerate(L_ENTRIES)])


def rll_residuals():
    """Residuals of the dual exchange equation for the triangular matrix.

    The dual side realizes with the two tensor legs in the opposite order
    relative to the supergroup side: with L1 = L ox 1 and L2 = 1 ox L the
    residuals are R L2 L1 - L1 L2 R.  (The other order produces the mirror
    relation set with p negated.)
    """
    from .frt import quantum_r_matrix
    l_mat = dual_generator_matrix()
    r = quantum_r_matrix().promote(RLL_ALPHABET)
    l_mat.check_grading()
    one = SuperMatrix.identity(RLL_ALPHABET, 3)
    l1, l2 = kron(l_mat, one), kron(one, l_mat)
    diff = (r @ l2 @ l1) - (l1 @ l2 @ r)
    return [diff.entries[i][j] for i in range(9) for j in range(9)
            if not diff.entries[i][j].is_zero]


def rll_span_matches_relations() -> bool:
    """Mutual containment of the residual span and the relation span (degree 2)."""
    return span_equal(rll_residuals(), dual_relations(), 2)


def verify_rll_solution(f: AnsatzFunctions, w: int = DEFAULT_TRUNCATION) -> bool:
    """Substitute the ansatz into every dual relation; all must vanish."""
    values = {
        "A": f.K,
        "F": f.L,
        "B": BorelSeries.v(w) * f.M,
        "E": BorelSeries.v(w) * f.N,
        "C_L": BorelSeries.h(w) * f.P,
    }
    substitute = extend(values.__getitem__, BorelSeries.one(w))
    return all(substitute(rel).is_zero for rel in dual_relations())
