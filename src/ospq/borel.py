"""The undeformed Borel algebra <H, V, X> as a normal-ordered series algebra,
the exact Borel Hopf algebra with its deformed coproduct, the
upper-triangular dual generator matrix with its exchange relations, and the
ansatz reduction.

Normal-ordered series monomials are v^eps h^m X^n (eps in {0,1}) in the
integral basis v = 2V, h = 2H, X.  There the paper's rules X H = (H - 1) X,
V H = (H - 1/2) V, V V = X / 4 and X V = V X have integer constants:
    X h = (h - 2) X,   v h = (h - 1) v,   v v = X,   X v = v X.
They preserve the filtration weight w = eps + 2n, so truncating at a weight
bound is an algebra quotient.  The ansatz checks run on these series, and
each series they need is a binomial series (1 + cX)^a (``binomial_series``),
whose coefficient of X^n is binom(a, n) c^n: e^+-sigma = (1 + pX)^(+-1/2),
so no series square root or inverse is computed.

The Hopf structure is exact.  K = e^sigma = (1 + pX)^(1/2) makes it finite:
in the basis v^eps h^m K^n (n in Z) with v = 2V and h = 4H,
    K v = v K,   h v = v (h + 2),   K^n h = (h - 2n) K^n + 2n K^(n-2),
    v v = (K^2 - 1) / p,
and the coproduct, counit and antipode of K^+-1, v and h are finite
(``hopf_images``).  With p of weight 2, v weighs -1 and h, K 0, the rules
and every image are homogeneous, so an element is zero exactly when its
value at p = 1 is (``at_one``), where every structure constant is an
integer: v v = K^2 - 1.  An element is a SuperPoly over ``BOREL_ALPHABET``
and a tensor a TensorElement, multiplied as words; the structure constants
at p = 1 (``_exact_mul``) enter only through the word normal form
(``normal_form``), the reduce of the Hopf maps, which takes values at p = 1
alone.  The map K -> e^sigma, v -> v, h -> 2h into the
series algebra is an algebra map (``borel_relation_defect``), so each exact
identity holds at every truncation weight; it sends K to the particular
solution's K, so the Hopf checks certify that solution only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .scalars import Scalar, rat, P, P_WEIGHT, HALF, SQRT2, _accumulate
from .freealg import (Combination, GradedAlphabet, HopfMaps, SuperPoly, TensorElement,
                      extend)
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
        # each monomial product scales c1 c2 by an int q, skipped at q = 1
        w = self.weight_bound
        return self._like(_accumulate((k, c if q == 1 else c * q)
                                      for k1, c1 in self._terms.items()
                                      for k2, c2 in other._terms.items()
                                      if _weight(k1) + _weight(k2) <= w
                                      for c in [c1 * c2] for k, q in _mono_mul(k1, k2)))

    # -- the commutative slice of series in X alone ------------------------

    def x_derivative(self) -> "BorelSeries":
        """X d/dX of a series in X alone: n c_n on X^n, exact up to the full
        weight bound (d/dX would need the unknown next coefficient)."""
        if any(e or m for e, m, _ in self._terms):
            raise ValueError("series in X alone expected, found a V or H term")
        return BorelSeries.in_x(self.weight_bound,
                                {n: rat(n) * c for (_, _, n), c in self._terms.items()})

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


def binomial_series(a, c: Scalar, w: int) -> BorelSeries:
    """(1 + cX)^a for a rational a up to weight bound w: binom(a, n) c^n on
    X^n, by binom(a, n + 1) = binom(a, n) (a - n) / (n + 1)."""
    a, term, coeffs = Fraction(a), Scalar.one(), {}
    for n in range(w // 2 + 1):
        coeffs[n] = term
        term = term * c * rat((a - n) / (n + 1))
    return BorelSeries.in_x(w, coeffs)


@lru_cache(maxsize=None)
def exp_sigma(w: int) -> BorelSeries:
    """(1 + pX)^(1/2) over Q[p], built once per w and shared: no BorelSeries
    method mutates it."""
    return binomial_series(Fraction(1, 2), P, w)


@lru_cache(maxsize=None)
def exp_minus_sigma(w: int) -> BorelSeries:
    """(1 + pX)^(-1/2), built once per w and shared like ``exp_sigma``."""
    return binomial_series(Fraction(-1, 2), P, w)


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


def _word(key):
    """The exact monomial v^eps h^m K^n as a word in K, K^-1, v, h."""
    eps, m, n = key
    return ("v",) * eps + ("h",) * m + (("K",) * n if n >= 0 else ("K^-1",) * -n)


def _key(word):
    """The key (eps, m, n) of the normal word v^eps h^m K^n."""
    return word.count("v"), word.count("h"), word.count("K") - word.count("K^-1")


@lru_cache(maxsize=None)
def _normal_word(word) -> SuperPoly:
    """The normal form at p = 1 of a word, built once from its prefix's and
    shared: nf(u x) sums c ``_exact_mul``(key(w), key(x)) over the terms c w
    of nf(u), an int combination of the words v^eps h^m K^n."""
    if len(word) < 2:
        terms = {word: 1}
    else:
        x = _key(word[-1:])
        terms = _accumulate((_word(k), c * d) for w, c in _normal_word(word[:-1])._terms.items()
                            for k, d in _exact_mul(_key(w), x))
    return SuperPoly(BOREL_ALPHABET, terms, _internal=True)


def normal_form(f):
    """The normal form of a SuperPoly over ``BOREL_ALPHABET``, or of a
    TensorElement leg by leg, at p = 1, where ``_exact_mul`` holds the
    structure constants: ValueError unless each coefficient is an int or a
    Fraction, a value there (``at_one``)."""
    if not all(isinstance(c, (int, Fraction)) for c in f._terms.values()):
        raise ValueError("the exact Borel normal form takes values at p = 1: apply at_one first")
    if isinstance(f, TensorElement):
        for leg in range(f.arity):
            f = f.map_leg(leg, _normal_word)
        return f
    return f._like(_accumulate((w, c * d) for u, c in f._terms.items()
                               for w, d in _normal_word(u)._terms.items()))


# eps(K^+-1) = 1 and eps(v) = eps(h) = 0
counit = extend({"K": 1, "K^-1": 1, "v": 0, "h": 0}.__getitem__, 1)


def at_one(element):
    """(E, value at p = 1) of a SuperPoly or TensorElement over
    ``BOREL_ALPHABET`` with coefficients in Q[p], of weight E in the grading
    where v weighs -1, h and K 0 and p 2; E is None for zero and the value
    has int coefficients.  ValueError when a term weighs otherwise,
    ArithmeticError when a value is not an integer."""
    tensor = isinstance(element, TensorElement)
    top, terms = None, {}
    for key, c in element._terms.items():
        weight = -sum(w.count("v") for w in key) if tensor else -key.count("v")
        for d, q in c.p_coefficients().items():
            if top is None:
                top = weight + d * P_WEIGHT
            elif weight + d * P_WEIGHT != top:
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
    one = Scalar.one()
    unit, k, k_inv, v, h = (), ("K",), ("K^-1",), ("v",), ("h",)

    def tensor(*terms):
        return TensorElement(BOREL_ALPHABET, 2, {(a, b): c for a, b, c in terms})
    ids = {g: SuperPoly.word(BOREL_ALPHABET, u) for g, u in
           (("1", unit), ("K", k), ("K^-1", k_inv), ("v", v), ("h", h))}
    return {
        "id": ids,
        "delta": {"1": tensor((unit, unit, one)), "K": tensor((k, k, one)),
                  "K^-1": tensor((k_inv, k_inv, one)),
                  "v": tensor((k, v, one), (v, unit, one)),
                  "h": tensor((unit, h, one), (v + k_inv, v + 2 * k_inv, P),
                              (h, 2 * k_inv, one))},
        "antipode": {"1": ids["1"], "K": ids["K^-1"], "K^-1": ids["K"],
                     "v": SuperPoly.word(BOREL_ALPHABET, v + k_inv, -one),
                     "h": SuperPoly(BOREL_ALPHABET, {h + 2 * k: -one, 2 * k: one,
                                                     unit: -one})},
    }


@lru_cache(maxsize=None)
def hopf_maps() -> HopfMaps:
    """The Hopf maps on ``hopf_images`` at p = 1, each image evaluated once,
    with ``normal_form`` as their reduce: every coefficient is an int, and
    since every element is homogeneous it is zero exactly when its value at
    p = 1 is."""
    return HopfMaps(hopf_images(), at_one, BOREL_ALPHABET.grades, counit, normal_form)


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


# views that keep the paper's names: each is exact at p = 1, so w is ignored.
# The coproducts of words are their images in the free tensor algebra, which
# ``normal_form`` reduces; the defects are reduced.
PAPER_NAMES = {"exp_sigma": "K", "V": "v", "H": "h"}


def delta_v(w=None) -> TensorElement:
    return hopf_maps().images["delta"]["v"].scale(Fraction(1, 2))  # Delta(V)


def delta_x(w=None) -> TensorElement:
    return hopf_maps().delta.word(("v", "v"))  # Delta(X) = Delta(v v)


def delta_monomial(key, w=None) -> TensorElement:
    return hopf_maps().delta.word(_word(key))


def coassociativity_defect(which: str, w=None) -> TensorElement:
    return hopf_maps().coassociativity_defect(PAPER_NAMES.get(which, which))


def counit_defects(w=None):
    return {g: hopf_maps().counit_defects(g) for g in BOREL_ALPHABET.letters}


def coproduct_relation_defect(which: str, w=None) -> TensorElement:
    """Delta applied to a defining relation (homomorphism certificate)."""
    hopf = hopf_maps()
    return hopf.reduce(hopf.delta(at_one(borel_relation(which))[1]))


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
    """The K = 1 + pX family.  Its N solves (X/2) N^2 K^2 = p(K^2 - 1), so
    N^2 = (4p^2 + 2p^3 X) / K^2 = 4p^2 (1 + (p/2) X) (1 + pX)^-2, and N is
    the binomial series 2p (1 + (p/2) X)^(1/2) (1 + pX)^-1; L = (1 + pX)^-1."""
    k, l = one_plus_px(w), binomial_series(-1, P, w)
    n = (binomial_series(Fraction(1, 2), HALF * P, w) * l).scale(rat(2) * P)
    p_series = BorelSeries.in_x(w, {0: rat(2) * P, 1: P * P})
    return AnsatzFunctions(K=k, L=l, M=k * n, N=n, P=p_series)


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
