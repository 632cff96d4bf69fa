"""The undeformed Borel algebra <H, V, X> as a normal-ordered series algebra,
the exact Borel Hopf algebra with its deformed coproduct, the
upper-triangular dual generator matrix with its exchange relations, and the
ansatz reduction.

Normal-ordered series monomials are v^eps h^m X^n (eps in {0,1}) in the
integral basis v = 2V, h = 2H, X.  There the paper's rules X H = (H - 1) X,
V H = (H - 1/2) V, V V = X / 4 and X V = V X have integer constants:
    X h = (h - 2) X,   v h = (h - 1) v,   v v = X,   X v = v X.
They preserve the filtration weight w = eps + 2n, so truncating at a weight
bound is an algebra quotient.  The ansatz checks run on these series.

The Hopf structure is exact.  K = e^sigma = (1 + pX)^(1/2) makes it finite:
in the basis v^eps h^m K^n (n in Z) with v = 2V and h = 4H,
    K v = v K,   h v = v (h + 2),   K^n h = (h - 2n) K^n + 2n K^(n-2),
    v v = (K^2 - 1) / p,
and the coproduct, counit and antipode of K^+-1, v and h are finite
(``hopf_images``).  With p of weight 2, v weighs -1 and h, K 0, the rules
and every image are homogeneous, so an element is zero exactly when its
value at p = 1 is (``at_one``), where every structure constant is an
integer: v v = K^2 - 1.  The map K -> e^sigma, v -> v, h -> 2h into the
series algebra is an algebra map (``borel_relation_defect``), so each exact
identity holds at every truncation weight; it sends K to the particular
solution's K, so the Hopf checks certify that solution only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .scalars import Scalar, rat, P, P_WEIGHT, HALF, SQRT2, _accumulate
from .freealg import (Combination, GradedAlphabet, GradedTensor, HopfMaps, SuperPoly,
                       _scaled, extend)
from .supermatrix import layout_alphabet

DEFAULT_TRUNCATION = 16  # filtration weight; X-degree up to 8

# the letters of the dual generator matrix L at their positions: its (2,2)
# entry is 1 and its lower triangle 0
L_ENTRIES = (("A", "B", "C_L"), (None, None, "E"), (None, None, "F"))

# the generators K, K^-1, v = 2V and h = 4H of the exact Borel algebra, on
# which its Hopf maps are given and its defining relations
# (``BOREL_RELATIONS``) written
BOREL_ALPHABET = GradedAlphabet(("K", "K^-1", "v", "h"), {"K": 0, "K^-1": 0, "v": 1, "h": 0})

RLL_ALPHABET = layout_alphabet(L_ENTRIES)


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


class BorelSeries(Combination):
    """Combination of normal-ordered monomials v^eps h^m X^n, with v = 2V and
    h = 2H, up to its weight bound, with Scalar coefficients.  The series of
    one computation share their bound: combining two bounds raises
    ValueError."""

    __slots__ = ("weight_bound",)

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

    def terms(self):
        return sorted(self._terms.items())

    def coefficient(self, key):
        return self._terms.get(key, 0)

    def _check(self, other):
        if self.weight_bound != other.weight_bound:
            raise ValueError("mixing weight bounds")

    def _like(self, terms):
        return BorelSeries(self.weight_bound, terms, _internal=True)

    def _product(self, other):
        w = self.weight_bound
        return self._like(_accumulate(kc for k1, c1 in self._terms.items()
                                      for k2, c2 in other._terms.items()
                                      if _weight(k1) + _weight(k2) <= w
                                      for kc in _scaled(_mono_mul(k1, k2), c1 * c2)))

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


@lru_cache(maxsize=None)
def exp_sigma(w: int) -> BorelSeries:
    """(1 + pX)^(1/2) over Q[p], built once per w and shared: no BorelSeries
    method mutates it."""
    return one_plus_px(w).sqrt()


@lru_cache(maxsize=None)
def exp_minus_sigma(w: int) -> BorelSeries:
    return exp_sigma(w).inverse()


def generator_images(w: int):
    """The images of the exact algebra's generators in the series algebra at
    weight bound w: K = e^sigma, K^-1 = e^-sigma, v = 2V and h = 4H."""
    return {"K": exp_sigma(w), "K^-1": exp_minus_sigma(w),
            "v": BorelSeries(w, {(1, 0, 0): Scalar.one()}, _internal=True),
            "h": BorelSeries(w, {(0, 1, 0): rat(2)}, _internal=True)}


# ----------------------------------------------------------------------
# The exact Borel Hopf algebra, decided at p = 1.
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _k_past_h(n: int, m: int):
    """K^n h^m in normal order at p = 1 as {(j, k): int}, the sum of the
    terms h^j K^k: K^n h = (h - 2n) K^n + 2n K^(n-2) brings each h left."""
    if not m:
        return {(0, n): 1}
    rest, lowered = _k_past_h(n, m - 1), _k_past_h(n - 2, m - 1)
    return _accumulate([((j + 1, k), c) for (j, k), c in rest.items()]
                       + [(jk, -2 * n * c) for jk, c in rest.items()]
                       + [(jk, 2 * n * c) for jk, c in lowered.items()])


@lru_cache(maxsize=None)
def _exact_mul(k1, k2):
    """Product of exact monomials at p = 1 as a tuple of (key, int) pairs,
    built once per key pair and shared.

    v^e1 h^m1 K^n1 v^e2 h^m2 K^n2 = v^e1 v^e2 (h + 2 e2)^m1 K^n1 h^m2 K^n2,
    since K v = v K and h v = v (h + 2); when both e are 1, v v = K^2 - 1
    stands left of (h + 2)^m1, and ``_k_past_h`` orders each K^k h^j.
    """
    (e1, m1, n1), (e2, m2, n2) = k1, k2
    left = {(j, 0): c for j, c in _h_shift_poly(m1, 2 * e2, 0, 0).items()}
    if e1 & e2:
        left = _accumulate([(jk, c * d) for (j, _), c in left.items()
                            for jk, d in _k_past_h(2, j).items()]
                           + [(jk, -c) for jk, c in left.items()])
    out = _accumulate(((e1 ^ e2, j + i, k + n2), c * d) for (j, b), c in left.items()
                      for (i, k), d in _k_past_h(b + n1, m2).items())
    return tuple(out.items())


def _at_one_only(*operands):
    """ValueError unless each coefficient is an int or a Fraction, a value at
    p = 1, where ``_exact_mul`` holds the structure constants."""
    if not all(isinstance(c, (int, Fraction)) for f in operands for c in f._terms.values()):
        raise ValueError("the exact Borel product takes values at p = 1: apply at_one first")


class ExactBorel(Combination):
    """Element of the exact Borel algebra: a combination of the monomials
    v^eps h^m K^n (eps in {0, 1}, m >= 0, n in Z), with Scalars over Q[p]
    for a generator image, or ints for its value at p = 1, which is what
    ``_exact_mul`` multiplies."""

    __slots__ = ()

    def __init__(self, terms, _internal=False):
        self._terms = terms if _internal else {k: c for k, c in terms.items() if c}

    def _like(self, terms):
        return ExactBorel(terms, _internal=True)

    def _product(self, other):
        _at_one_only(self, other)
        return self._like(_accumulate(kc for k1, c1 in self._terms.items()
                                      for k2, c2 in other._terms.items()
                                      for kc in _scaled(_exact_mul(k1, k2), c1 * c2)))

    def counit(self):
        """eps(K) = 1 and eps(v) = eps(h) = 0."""
        return sum(c for (e, m, _), c in self._terms.items() if not e and not m)


class ExactBorelTensor(GradedTensor):
    """Tensor power of the exact Borel algebra: leg keys (eps, m, n) of
    v^eps h^m K^n, grade eps, product ``_exact_mul``."""

    __slots__ = ()

    _key_product = staticmethod(_exact_mul)

    def _product(self, other):
        _at_one_only(self, other)
        return super()._product(other)

    @staticmethod
    def _key_grade(key):
        return key[0]

    @classmethod
    def of(cls, *legs):
        return cls(len(legs))._tensor_of(legs)

    def _like(self, terms, arity=None):
        return ExactBorelTensor(self.arity if arity is None else arity, terms, _internal=True)

    def _leg_element(self, terms):
        return ExactBorel(terms)

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError("mixing tensor arities")


def at_one(element):
    """(E, value at p = 1) of an ExactBorel, an ExactBorelTensor or a relation
    over ``BOREL_ALPHABET`` with coefficients in Q[p], of weight E in the
    grading where v weighs -1, h and K 0 and p 2; E is None for zero and the
    value has int coefficients.  ValueError when a term weighs otherwise,
    ArithmeticError when a value is not an integer."""
    if isinstance(element, SuperPoly):
        weight = lambda word: -word.count("v")
    elif isinstance(element, ExactBorelTensor):
        weight = lambda key: -sum(k[0] for k in key)
    else:
        weight = lambda key: -key[0]
    top, terms = None, {}
    for key, c in element._terms.items():
        for d, q in c.p_coefficients().items():
            if top is None:
                top = weight(key) + d * P_WEIGHT
            elif weight(key) + d * P_WEIGHT != top:
                raise ValueError(f"not homogeneous in the Borel grading: {element!r}")
            if q.denominator != 1:
                raise ArithmeticError(f"term {key} of {element!r} is not integral at p = 1")
            terms[key] = q.numerator
    return top, element._like(terms)


def hopf_images():
    """The unit and the generators K, K^-1, v, h with their coproducts and
    antipode images over Q[p]: {"id" | "delta" | "antipode": {generator:
    image}}, each homogeneous of its generator's weight.

    Delta(K^+-1) = K^+-1 ox K^+-1, Delta(v) = K ox v + v ox 1 and
    Delta(h) = 1 ox h + p v K^-1 ox v K^-2 + h ox K^-2; S(K^+-1) = K^-+1,
    S(v) = -v K^-1 and S(h) = -h K^2 + K^2 - 1.  With v = 2V, h = 4H and
    K = e^sigma these are the paper's Delta(H) = 1 ox H + p V e^-sigma ox
    V e^-2sigma + H ox e^-2sigma and S(H) = -H e^{2 sigma} + (p/4) X.
    """
    one, unit, v, h = Scalar.one(), (0, 0, 0), (1, 0, 0), (0, 1, 0)
    k, k_inv = (0, 0, 1), (0, 0, -1)

    def tensor(*terms):
        return ExactBorelTensor(2, {(a, b): c for a, b, c in terms})
    ids = {g: ExactBorel({key: one}) for g, key in
           (("1", unit), ("K", k), ("K^-1", k_inv), ("v", v), ("h", h))}
    return {
        "id": ids,
        "delta": {"1": tensor((unit, unit, one)), "K": tensor((k, k, one)),
                  "K^-1": tensor((k_inv, k_inv, one)),
                  "v": tensor((k, v, one), (v, unit, one)),
                  "h": tensor((unit, h, one), ((1, 0, -1), (1, 0, -2), P),
                              (h, (0, 0, -2), one))},
        "antipode": {"1": ids["1"], "K": ids["K^-1"], "K^-1": ids["K"],
                     "v": ExactBorel({(1, 0, -1): -one}),
                     "h": ExactBorel({(0, 1, 2): -one, (0, 0, 2): one, unit: -one})},
    }


def _word(key):
    """The exact monomial v^eps h^m K^n as a word in K, K^-1, v, h."""
    eps, m, n = key
    return ("v",) * eps + ("h",) * m + (("K",) * n if n >= 0 else ("K^-1",) * -n)


@lru_cache(maxsize=None)
def hopf_maps() -> HopfMaps:
    """The Hopf maps on ``hopf_images`` at p = 1, each image evaluated once:
    every coefficient is an int, and since every element is homogeneous it
    is zero exactly when its value at p = 1 is."""
    return HopfMaps(hopf_images(), at_one, BOREL_ALPHABET.grades, ExactBorel.counit,
                    "Borel", word_of=_word)


# the defining relations of the exact algebra, {word: coefficient}: K K^-1 =
# K^-1 K = 1, K v = v K, p v v = K^2 - 1, h v = v (h + 2) and
# K h = (h - 2) K + 2 K^-1
BOREL_RELATIONS = {
    "KK^-1": {("K", "K^-1"): 1, (): -1},
    "K^-1K": {("K^-1", "K"): 1, (): -1},
    "KV": {("K", "v"): 1, ("v", "K"): -1},
    "VV": {("v", "v"): P, ("K", "K"): -1, (): 1},
    "HV": {("h", "v"): 1, ("v", "h"): -1, ("v",): -2},
    "KH": {("K", "h"): 1, ("h", "K"): -1, ("K",): 2, ("K^-1",): -2},
}


def borel_relation(which: str) -> SuperPoly:
    """The defining relation ``which`` over ``BOREL_ALPHABET``, over Q[p]."""
    return SuperPoly(BOREL_ALPHABET, {u: c if isinstance(c, Scalar) else rat(c)
                                      for u, c in BOREL_RELATIONS[which].items()})


def borel_relation_defect(which: str, w: int) -> BorelSeries:
    """A defining relation with K = e^sigma, v = 2V and h = 4H in the series
    algebra at weight bound w (sanity zero: the exact algebra maps into the
    series by ``generator_images``)."""
    images = generator_images(w)
    return extend(images.__getitem__, BorelSeries.one(w))(borel_relation(which))


# views that keep the paper's names: each is exact at p = 1, so w is ignored
PAPER_NAMES = {"exp_sigma": "K", "V": "v", "H": "h"}


def delta_v(w=None) -> ExactBorelTensor:
    return hopf_maps().images["delta"]["v"].scale(Fraction(1, 2))  # Delta(V)


def delta_x(w=None) -> ExactBorelTensor:
    return hopf_maps().delta.word(("v", "v"))  # Delta(X) = Delta(v v)


def delta_monomial(key, w=None) -> ExactBorelTensor:
    return hopf_maps().delta.word(_word(key))


def coassociativity_defect(which: str, w=None) -> ExactBorelTensor:
    return hopf_maps().coassociativity_defect(PAPER_NAMES.get(which, which))


def counit_defects(w=None):
    return {g: hopf_maps().counit_defects(g) for g in BOREL_ALPHABET.letters}


def coproduct_relation_defect(which: str, w=None) -> ExactBorelTensor:
    """Delta applied to a defining relation (homomorphism certificate)."""
    return hopf_maps().delta(at_one(borel_relation(which))[1])


# ----------------------------------------------------------------------
# The ansatz and its conditions.
# ----------------------------------------------------------------------

class AnsatzFunctions:
    """The five series of the triangular ansatz; K(0) must be 1-like."""

    __slots__ = ("K", "L", "M", "N", "P")

    def __init__(self, K: BorelSeries, L: BorelSeries, M: BorelSeries, N: BorelSeries,
                 P: BorelSeries):
        self.K, self.L, self.M, self.N, self.P = K, L, M, N, P


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


@lru_cache(maxsize=None)
def rll_residuals():
    """The 81 entries of the dual exchange equation for the triangular matrix,
    built once and shared: callers only read them.

    The dual side realizes with the two tensor legs in the opposite order
    relative to the supergroup side: with L1 = L ox 1 and L2 = 1 ox L the
    residuals are R L2 L1 - L1 L2 R.  (The other order produces the mirror
    relation set with p negated.)
    """
    from . import frt
    return tuple(frt.exchange_residuals(RLL_ALPHABET, L_ENTRIES, dual=True))


def rll_span_matches_relations() -> bool:
    """Mutual containment of the residual span and the relation span (degree 2)."""
    from .rewrite import span_equal
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
