"""Oriented rewriting modulo a two-sided relation ideal, diamond-lemma overlap
auditing with degree-bounded completion, and degree-sliced span comparison.

Rules are stored as ``lhs word -> rhs SuperPoly`` with every right-hand
monomial strictly below the left side in the alphabet's monomial order, so
rewriting terminates and normal forms certify ideal membership.  A word's
normal form is built from its prefix's, nf(u*x) = nf(nf(u)*x): a left side
that occurs in v*x with v normal ends at x, so each word is searched only at
its end, and words that share a normal prefix share its memo entry.  By
Bergman's diamond lemma the strategy cannot change a normal form on a
confluent system; on the systems of a completion round that are not yet
confluent, any reduct of an ambiguity serves as its difference.  Span tools
compare Scalar-linear spans of shifted relation families inside a degree
slice and decide membership over Q(p) exactly; the generators are
interreduced first and only the independent ones are shifted.

The grading is the torus weight that each alphabet declares
(``GradedAlphabet.torus``, derived from the basis weights in
``supermatrix``), with p of weight ``P_WEIGHT`` = 2: a term u*p^d weighs
wt(u) + 2d.  Every relation, residual and Hopf image is homogeneous in it.

Spans are decided at p = 1.  When every generator is homogeneous, so are
its shifts, and in a homogeneous element the weight of a word fixes its
power of p.  So the span matrix is M = D_r*C*D_c, with C the integer matrix
M at p = 1 and D_r, D_c diagonal powers of p (fractional powers at worst,
which change no rank).  M and C have the same rank, and a homogeneous
target lies in the span over Q(p) exactly when its row at p = 1 lies in the
row space of C over Q.  The span is stable under the torus action
u -> λ^wt(u) u, p -> λ^2 p, so a target lies in it exactly when each of its
weight components does.  One integer echelon at p = 1 therefore decides
such a span.  A generator that is not homogeneous, such as (p - 85)*ac
whose word carries two powers of p, raises ValueError, and so does an
alphabet that declares no grading.  ``nullspace`` solves systems of the
same form M = D_r*C*D_c through C, so this integer echelon is the module's
one exact linear-algebra kernel; ``affine_rows`` and ``solve_affine`` bring
every matrix identity with unknown entries to it.  An echelon at seeded
integer values of p is kept for spans whose coefficients are free of p,
where evaluation changes nothing.

Completion and every zero test of the presentation run at p = 2.  In an
element homogeneous of weight E, each word u carries the one power p^k with
2k = E - wt(u).  So the element is zero exactly when its value at p = 2 is,
and ``lift`` recovers it from that value.  Homogeneous
rules keep an element homogeneous of its weight, and evaluation at p = 2
commutes with rewriting, so a normal form at p = 2, lifted, is the normal
form over Q[p].  Over Q[p] each new relation of the completion is divided
by its content, a power of p, and its leading coefficient is then a unit
exactly when no word outweighs the leading word; ``orient`` tests that at
p = 2, and its division by the leading coefficient takes the power out.
Why 2 and not 1: the presentation's relations carry p/2, and at p = 2 every
coefficient of its completion, in rules and normal forms alike, is an
integer.  The argument needs homogeneity: ``at_two`` raises ValueError on
any other element, such as a + p*a, and a number combination is the value
of a homogeneous element whose weight its caller knows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .scalars import Scalar, ONE as S_ONE, P_WEIGHT, _accumulate, _whole
from .freealg import SuperPoly, TensorElement


class OrientationError(ValueError):
    """A relation cannot be oriented with a unit leading coefficient."""


def orient(polys):
    """Turn relations at p = 2 into rules {lhs: rhs}, one per leading word,
    losing none: a relation whose leading word an earlier rule holds is first
    reduced by that rule until its leading word is free or it vanishes.

    Each is scaled so its leading coefficient is 1 and rewritten as lhs ->
    lhs - poly.  A leading word of less torus weight than another word
    carries a power of p, no unit, and raises OrientationError.
    """
    rules = {}
    for f in polys:
        terms = dict(f._terms)
        while terms:
            lead = max(terms, key=f.alphabet.word_key)
            if lead not in rules:
                break
            c = terms.pop(lead)
            _accumulate(((w, c * v) for w, v in rules[lead]._terms.items()), terms)
        if not terms:
            continue
        weight = f.alphabet.torus_weight
        if weight(lead) < max(map(weight, terms)):
            raise OrientationError(f"leading word {lead} carries a power of p")
        inv = Fraction(1, terms.pop(lead))
        rules[lead] = SuperPoly(f.alphabet, {w: _whole(-c * inv) for w, c in terms.items()},
                                _internal=True)
    return rules


def at_two(poly):
    """(E, value at p = 2) of a Scalar SuperPoly or TensorElement of torus
    weight E, E None for zero; ValueError when a term weighs otherwise or a
    coefficient is not a polynomial in p."""
    tensor = isinstance(poly, TensorElement)
    weight = poly.alphabet.torus_weight
    top, terms = None, {}
    for u, c in poly._terms.items():
        base = sum(map(weight, u)) if tensor else weight(u)
        for d, q in c.p_coefficients().items():
            if top is None:
                top = base + d * P_WEIGHT
            elif base + d * P_WEIGHT != top:
                raise ValueError(f"not homogeneous in the torus grading: {poly!r}")
            terms[u] = _whole(q * 2 ** d)
    return top, poly._like(terms)


def lift(poly, top):
    """The Scalar SuperPoly of torus weight ``top`` whose value at p = 2 is
    ``poly``: a term v*u goes to (v / 2^k) p^k u with 2k = top - wt(u).  Each
    word of a homogeneous element carries one power of p, so this inverts
    ``at_two``, and such an element is zero exactly when its value at p = 2
    is; for an element that is not homogeneous neither holds.
    ArithmeticError when no such k >= 0 exists."""
    terms = {}
    for u, v in poly._terms.items():
        k, r = divmod(top - poly.alphabet.torus_weight(u), P_WEIGHT)
        if r or k < 0:
            raise ArithmeticError(f"term {u} of weight {top} has no power of p")
        terms[u] = Scalar.in_p({k: Fraction(v, 2 ** k)})
    return SuperPoly(poly.alphabet, terms, _internal=True)


class RewriteSystem:
    """Oriented, terminating rewrite system over a graded alphabet."""

    def __init__(self, alphabet, rules, one=S_ONE):
        # ``one`` is the coefficient of an irreducible word: 1 at p = 2
        self.alphabet = alphabet
        self.rules = dict(rules)
        self.one = one
        key = alphabet.word_key
        for lhs, rhs in self.rules.items():
            lk = key(lhs)
            for w in rhs.words():
                if key(w) >= lk:
                    raise OrientationError(
                        f"rule {lhs} is not order-decreasing (rhs word {w})")
        self._index()

    def _index(self):
        """Index the left-side lengths by last letter and reset the
        normal-form cache to the empty word; called again after ``rules``
        changes."""
        self._cache = {(): SuperPoly(self.alphabet, {(): self.one}, _internal=True)}
        lengths = {}
        for lhs in self.rules:
            if not lhs:
                raise ValueError("empty left side")
            lengths.setdefault(lhs[-1], set()).add(len(lhs))
        # longer left sides first, so the match starts furthest left
        self._lengths = {x: sorted(ns, reverse=True) for x, ns in lengths.items()}

    def __len__(self):
        return len(self.rules)

    def lifted(self):
        """The Scalar system of the rules at p = 2, each lifted at the torus
        weight of its left side (``lift``)."""
        weight = self.alphabet.torus_weight
        return RewriteSystem(self.alphabet, {lhs: lift(rhs, weight(lhs))
                                             for lhs, rhs in self.rules.items()})

    def rule_polys(self):
        """The rules as relation polynomials lhs - rhs."""
        return [SuperPoly(self.alphabet, {lhs: self.one}, _internal=True) - rhs
                for lhs, rhs in self.rules.items()]

    def _end_match(self, word):
        """The longest left side that ends a nonempty ``word``, or None."""
        rules, size = self.rules, len(word)
        for n in self._lengths.get(word[-1], ()):
            if n <= size and (lhs := word[size - n:]) in rules:
                return lhs
        return None

    def is_normal(self, word):
        """Does no left side occur in ``word``?"""
        return not any(self._end_match(word[:i]) for i in range(1, len(word) + 1))

    def nf_word(self, word) -> SuperPoly:
        """Normal form of a single word (iterative, memoized), built by right
        extension: nf(u*x) = nf(nf(u)*x) for the letter x.

        A left side that occurs in v*x with v normal ends at x.  So once the
        prefix u is known, u*x is searched once, at its end: when u is normal
        the longest left side ending u*x is rewritten, pre*lhs -> sum of
        c*nf(pre*r), and it is the match that starts furthest left; otherwise
        each term c*v of nf(u) gives c*nf(v*x).  Words that share a normal
        prefix share its memo entry.  A word waits on the stack, first for its
        prefix and then with these parts, until their normal forms are known.
        """
        cache = self._cache
        hit = cache.get(word)
        if hit is not None:
            return hit
        stack = [(word, None)]
        while stack:
            w, parts = stack[-1]
            if parts is None:
                if w in cache:
                    stack.pop()
                    continue
                u = w[:-1]
                head = cache.get(u)
                if head is None:
                    stack.append((u, None))
                    continue
                if u not in head._terms:
                    x = w[-1:]
                    parts = [(v + x, c) for v, c in head._terms.items()]
                elif (lhs := self._end_match(w)) is None:
                    cache[w] = SuperPoly(self.alphabet, {w: self.one}, _internal=True)
                    stack.pop()
                    continue
                else:
                    pre = w[:len(w) - len(lhs)]
                    parts = [(pre + r, c) for r, c in self.rules[lhs]._terms.items()]
                missing = [(d, None) for d, _ in parts if d not in cache]
                if missing:
                    stack[-1] = (w, parts)
                    stack.extend(missing)
                    continue
            acc = _accumulate((w3, c2 * c3) for d, c2 in parts
                              for w3, c3 in cache[d]._terms.items())
            cache[w] = SuperPoly(self.alphabet, acc, _internal=True)
            stack.pop()
        return cache[word]

    def normal_form(self, poly):
        """The normal form of a SuperPoly, or of a TensorElement leg by leg."""
        if isinstance(poly, TensorElement):
            for leg in range(poly.arity):
                poly = poly.map_leg(leg, self.nf_word)
            return poly
        out = _accumulate((w2, c * c2) for w, c in poly._terms.items()
                          for w2, c2 in self.nf_word(w)._terms.items())
        return SuperPoly(self.alphabet, out, _internal=True)

    def reduces_to_zero(self, poly: SuperPoly) -> bool:
        return self.normal_form(poly).is_zero

    # -- confluence audit ---------------------------------------------

    def _overlap_words(self, max_degree, fresh=None):
        """The ambiguities (word, l1, 0, l2, i) up to ``max_degree``: left
        sides l1 at 0 and l2 at i of ``word`` that overlap, or l2 inside l1.
        With ``fresh``, only those one of whose two rules is in it, in the
        same order."""
        lhss = list(self.rules)
        for l1 in lhss:
            for l2 in lhss:
                if fresh is not None and l1 not in fresh and l2 not in fresh:
                    continue
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k:] == l2[:k] and len(l1) + len(l2) - k <= max_degree:
                        yield l1 + l2[k:], l1, 0, l2, len(l1) - k
                if len(l2) < len(l1) <= max_degree:
                    for i in range(len(l1) - len(l2) + 1):
                        if l1[i:i + len(l2)] == l2:
                            yield l1, l1, 0, l2, i

    def _apply_rule_at(self, word, lhs, i):
        pre, post = word[:i], word[i + len(lhs):]
        out = _accumulate((pre + w2 + post, c2) for w2, c2 in self.rules[lhs]._terms.items())
        return SuperPoly(self.alphabet, out, _internal=True)

    def _difference(self, w, l1, i1, l2, i2):
        """The difference of the normal forms of an ambiguity's two reducts."""
        return (self.normal_form(self._apply_rule_at(w, l1, i1))
                - self.normal_form(self._apply_rule_at(w, l2, i2)))

    def overlap_check(self, max_degree: int):
        """All ambiguities up to ``max_degree``; returns the unresolved ones.

        For each overlap or inclusion word both one-step reducts are taken to
        normal form; a nonempty result lists (word, difference) pairs whose
        difference is a new ideal element not joinable by this system.
        """
        if max_degree < 3:
            raise ValueError("max_degree must be at least 3")
        return [(item[0], d) for item in self._overlap_words(max_degree)
                if (d := self._difference(*item))]


def interreduce(alphabet, rules):
    """The rules at p = 2 reduced by one another; drops redundant rules.

    ``word_key`` weighs a word first, so no word below a left side contains
    it: every right side takes its normal form in the whole system, through
    one memo.  Then the smallest rule whose left side contains another (in
    its word less its first or its last letter) is reduced by the others and
    re-oriented by ``orient``, until no left side contains another.  The
    rules come back in ``word_key`` order.
    """
    key = alphabet.word_key
    system = RewriteSystem(alphabet, rules, one=1)
    while True:
        rules = {lhs: system.normal_form(system.rules[lhs])
                 for lhs in sorted(system.rules, key=key)}
        lhs = min((lhs for lhs in rules if not (system.is_normal(lhs[1:])
                                                and system.is_normal(lhs[:-1]))),
                  key=key, default=None)
        if lhs is None:
            return rules
        rhs = rules.pop(lhs)
        system = RewriteSystem(alphabet, rules, one=1)
        system.rules.update(orient([system.nf_word(lhs) - system.normal_form(rhs)]))
        system._index()


COMPLETION_ROUNDS = 30


def complete(alphabet, relations, max_degree: int) -> RewriteSystem:
    """Degree-bounded Buchberger-style completion of a relation list.

    It runs at p = 2 (module docstring) and returns the interreduced system
    at p = 2; ``lifted`` gives its Scalar rules.  Relations that are not
    homogeneous in the alphabet's torus grading raise ValueError.  Every new
    relation is divided by its content, a power of p, so the compiled system
    presents the ideal saturated with respect to p.  Flatness of the quotient
    (normal-word counts matching the classical algebra) certifies that the
    saturation adds nothing in the audited degrees.

    Each round audits only the ambiguities of length <= ``max_degree`` one
    of whose two rules is new or has a new right side: Buchberger's criterion
    read through Bergman's diamond lemma.  Call an ambiguity on a word w
    resolvable when its two reducts differ by a sum of u*(l - r)*v with u*l*v
    below w.  A resolved one stays resolvable as rules are added or reduced,
    each old rule being such a sum in the new rules; an unresolved one has its
    difference adjoined, which the next system reduces below w.  So a round
    with none unresolved, in which every relation reduces to zero, leaves
    every ambiguity of length <= ``max_degree`` resolvable: the diamond
    lemma's condition in the audited degrees.
    """
    system = RewriteSystem(alphabet, {}, one=1)
    relations = bad = [at_two(f)[1] for f in relations]
    for _ in range(COMPLETION_ROUNDS):
        audited, rules = system.rules, orient(system.rule_polys() + bad)
        system = RewriteSystem(alphabet, interreduce(alphabet, rules), one=1)
        fresh = {lhs for lhs, rhs in system.rules.items() if audited.get(lhs) != rhs}
        # once the overlaps resolve, the relations that do not reduce come back
        bad = ([d for item in system._overlap_words(max_degree, fresh)
                if (d := system._difference(*item))]
               or [d for f in relations if (d := system.normal_form(f))])
        if not bad:
            return system
    raise RuntimeError(f"completion did not converge in {COMPLETION_ROUNDS} rounds")


# ----------------------------------------------------------------------
# Degree-sliced span comparison.
# ----------------------------------------------------------------------

def _shift_pairs(words, length, degree_bound):
    """The (u, v) with len(u) + length + len(v) <= degree_bound, u outer:
    every shift u*f*v of one generator of that length.  ``words`` are listed
    shortest first."""
    for u in words:
        room = degree_bound - length - len(u)
        if room < 0:
            return
        for v in words:
            if len(v) > room:
                break
            yield u, v


def shift_family(gens, degree_bound: int):
    """All u*f*v with f in gens and total degree <= degree_bound.

    The word product is concatenation with no sign, so each shift relabels
    the words of f."""
    gens = [f for f in gens if not f.is_zero]
    if not gens:
        return []
    alphabet = gens[0].alphabet
    words = alphabet.words_up_to(degree_bound)
    out = []
    for f in gens:
        d = f.degree()
        if d > degree_bound:
            raise ValueError("generator exceeds the degree bound")
        out.extend(SuperPoly(alphabet, {u + w + v: c for w, c in f._terms.items()},
                             _internal=True)
                   for u, v in _shift_pairs(words, d, degree_bound))
    return out


def _evaluation_points(seed: int, count: int):
    """Deterministic distinct integer evaluation points for p, never 0 or 1."""
    points = []
    state = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 64)
    while len(points) < count:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        cand = (state >> 23) % 89 + 2
        if cand not in points:
            points.append(cand)
    return points


@lru_cache(maxsize=None)
def _word_ranks(alphabet, degree_bound):
    """{word: rank} of the words up to ``degree_bound`` in the monomial order,
    sorted once per alphabet and bound and shared: callers only read it."""
    words = alphabet.words_up_to(degree_bound)
    words.sort(key=alphabet.word_key)
    return {w: i for i, w in enumerate(words)}


def _gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g or 1


def _int_row(pairs):
    """The integer row of nonzero ``(column, Fraction)`` pairs: denominators
    cleared, content stripped."""
    row = dict(pairs)
    denom = lcm(*(q.denominator for q in row.values()))
    row = {k: int(q * denom) for k, q in row.items()}
    g = _gcd_all(row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _int_rows(polys, ranks, pval):
    """Rows as {rank: int}: coefficients evaluated at integer p, denominators
    cleared row-wise, content stripped."""
    return [_int_row((ranks[w], q) for w, c in f._terms.items()
                     if (q := c.substitute(p=pval).as_rational()))
            for f in polys]


def _int_reduce(basis, row):
    """Fraction-free remainder of an integer row, primitive or not, modulo an
    echelon basis: primitive, empty when the row is in the span, and free of
    every column that has a pivot.  Those columns are reduced highest first,
    through a heap, in a copy of the row: with a the pivot's lead and b the
    row's entry, the row is scaled by a // gcd(a, b) only when a does not
    divide b, and the content is stripped once, at the end."""
    heap = [-k for k in row if k in basis]
    if heap:
        row = dict(row)
        heapify(heap)
    while heap:
        col = -heappop(heap)
        b = row.get(col)
        if b is None:
            continue
        piv = basis[col]
        a = piv[col]
        g = gcd(a, b) if b % a else a
        if g != a:
            for k in row:
                row[k] *= a // g
        b //= g
        for k, v in piv.items():
            cur = row.get(k, 0) - b * v
            if not cur:
                del row[k]
                continue
            if k not in row and k in basis:
                heappush(heap, -k)
            row[k] = cur
    g = _gcd_all(row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _int_insert(basis, row):
    """Fraction-free insertion into an integer echelon basis; False when the
    row is already in the span."""
    row = _int_reduce(basis, row)
    if row:
        basis[max(row)] = row
    return bool(row)


def _int_reduces_to_zero(basis, row):
    return not _int_reduce(basis, row)


# integer evaluation points of p per span without ``symbolic``
_POINTS = 3


def _echelon(rows):
    # inserting rows with small leading words first keeps later reductions
    # from cascading through unfinished rows (large constant-factor win)
    basis = {}
    for row in sorted(rows, key=lambda r: max(r) if r else -1):
        _int_insert(basis, row)
    return basis


def _graded_values(rows):
    """The rows {column: Scalar} at p = 1 as {column: Fraction}, and column
    exponents c with each entry q*p^m of row i at m = r_i + c_k, found by a
    walk of the graph joining rows to their columns from c = 0 in each
    connected part.  ValueError when no such monomial entries exist.
    """
    values, exps = [], []
    for i, row in enumerate(rows):
        value, exp = {}, {}
        for k, c in row.items():
            poly = c.p_coefficients()
            if len(poly) > 1:
                raise ValueError(f"entry {c} of row {i} is not a monomial in p")
            if poly:
                (exp[k], value[k]), = poly.items()
        values.append(value)
        exps.append(exp)
    cols, todo = {}, [i for i, exp in enumerate(exps) if exp]
    while todo:
        # a row that meets a solved column fixes its r_i; when none does, a
        # new connected part starts at c = 0
        i = next((i for i in todo if not cols.keys().isdisjoint(exps[i])), todo[0])
        todo.remove(i)
        first = next((k for k in exps[i] if k in cols), next(iter(exps[i])))
        r = exps[i][first] - cols.setdefault(first, 0)
        for k, m in exps[i].items():
            if cols.setdefault(k, m - r) != m - r:
                raise ValueError(f"row {i} is not homogeneous in p")
    return values, cols


def nullspace(rows, ncols: int):
    """Basis of the solutions x over Q(p) of sum_k row[k] x[k] = 0, one
    equation per row {column: Scalar}.

    Each entry must be one monomial q*p^(r_i + c_k) (``_graded_values``), so
    the system is M = D_r*C*D_c and x solves it exactly when D_c*x solves C,
    its value at p = 1.  Each free column of C's integer echelon is set to 1
    and the pivots back-substituted over Q; the solution, cleared to
    integers, is lifted to x_k = y_k*p^(-c_k) and shifted so that its lowest
    power is p^0.  Each vector is a list of ``ncols`` Scalars.
    """
    values, cols = _graded_values(rows)
    basis = _echelon([_int_row(v.items()) for v in values if v])
    out = []
    for fc in range(ncols):
        if fc in basis:
            continue
        x = {fc: Fraction(1)}
        for lead in sorted(basis):
            row = basis[lead]
            s = sum(v * x[k] for k, v in row.items() if k in x)
            if s:
                x[lead] = -s / row[lead]
        y = _int_row(x.items())
        top = max(cols.get(k, 0) for k in y)
        out.append([Scalar.in_p({top - cols.get(k, 0): y[k]} if k in y else {})
                    for k in range(ncols)])
    return out


def affine_rows(defect, n: int):
    """The rows {column: Scalar} of defect(x) = 0 in n unknowns, column n
    holding the constant term, zero rows dropped.

    ``defect`` maps a list of n Scalars to a list of matrices with constant
    entries and is affine in them, so its value at 0 is the constant term
    and its values at the n unit vectors, less that, are the columns.
    """
    zero = [Scalar.zero()] * n
    base, *units = [defect(x) for x in [zero] + [zero[:k] + [S_ONE] + zero[k + 1:]
                                                 for k in range(n)]]
    rows = []
    for m, b in enumerate(base):
        for i, brow in enumerate(b.entries):
            for j, e in enumerate(brow):
                c0 = e.coefficient(())
                row = {k: c for k, u in enumerate(units)
                       if (c := u[m].entries[i][j].coefficient(()) - c0)}
                if c0:
                    row[n] = c0
                if row:
                    rows.append(row)
    return rows


def solve_affine(rows, n: int):
    """The one solution over Q[p] of the affine rows of ``affine_rows``: the
    nullspace vector divided by its constant coordinate.  ValueError unless
    the nullspace is one-dimensional with a nonzero constant coordinate and
    the quotients are polynomials."""
    sols = nullspace(rows, n + 1)
    if len(sols) != 1 or sols[0][n].is_zero:
        raise ValueError(f"{len(sols)}-dimensional nullspace")
    return [c.divide_exact(sols[0][n]) for c in sols[0][:n]]


def _independent(gens, rows):
    """Indices of the gens whose rows do not reduce to zero in one echelon,
    inserted shortest first.

    Only these are shifted: a dropped one is a combination of kept ones of no
    larger length, so its shifts within the bound are too.  The word ranks put
    alphabet weight before length, so they cannot set this order alone.
    """
    order = sorted(range(len(gens)), key=lambda i: (gens[i].degree(), max(rows[i])))
    basis = {}
    return [i for i in order if _int_insert(basis, rows[i])]


def _weight_components(f):
    """``{weight: {word: Fraction}}``: f at p = 1, split by the torus weight
    wt(u) + 2d of each term u*p^d.  A word has one p-degree in each."""
    weight = f.alphabet.torus_weight
    out = {}
    for w, c in f._terms.items():
        base = weight(w)
        for d, q in c.p_coefficients().items():
            out.setdefault(base + d * P_WEIGHT, {})[w] = q
    return out


@lru_cache(maxsize=None)
def _graded_echelon(gens, degree_bound):
    """(word ranks, integer echelon basis at p = 1, shift count, kept
    generator count) of gens homogeneous in the torus grading.

    Each generator is one weight component, so one integer row at p = 1;
    ValueError on a generator of more than one.  The kept rows are shifted
    by relabelling their words.
    """
    alphabet = gens[0].alphabet
    ranks = _word_ranks(alphabet, degree_bound)
    rows = []
    for i, f in enumerate(gens):
        parts = _weight_components(f)
        if len(parts) != 1:
            raise ValueError(f"generator #{i} is not homogeneous in the torus grading")
        (part,) = parts.values()
        rows.append(_int_row(part.items()))
    kept = _independent(gens, [{ranks[w]: a for w, a in row.items()} for row in rows])
    words = alphabet.words_up_to(degree_bound)
    shifts = [{ranks[u + w + v]: a for w, a in rows[i].items()}
              for i in kept for u, v in _shift_pairs(words, gens[i].degree(), degree_bound)]
    return ranks, _echelon(shifts), len(shifts), len(kept)


@lru_cache(maxsize=None)
def _int_echelons(gens, degree_bound, seed):
    """(word ranks, [(p value, integer echelon basis)], shift count) at the
    seeded evaluation points.  Gens free of p have the same rows at every
    point, so one basis serves them all."""
    ranks = _word_ranks(gens[0].alphabet, degree_bound)
    shifts = shift_family(list(gens), degree_bound)
    p_free = all(c.p_coefficients().keys() <= {0} for f in gens for c in f._terms.values())
    bases = []
    for pval in _evaluation_points(seed, _POINTS):
        bases.append((pval, bases[0][1] if p_free and bases
                      else _echelon(_int_rows(shifts, ranks, pval))))
    return ranks, bases, len(shifts)


def span_contains(gens, targets, degree_bound: int, seed: int = 0,
                  symbolic: bool = True):
    """Is every target in the Scalar-linear span of degree-bounded shifts of gens?

    With ``symbolic`` membership is decided over Q(p) exactly.  Every
    generator must be homogeneous in the alphabet's torus grading; the span
    matrix is then M = D_r*C*D_c with C its value at p = 1 and D_r, D_c
    diagonal powers of p.  Each target is split into its weight
    components, and each component's row at p = 1 is reduced by the integer
    echelon of C; the target is inside exactly when every component is.
    Without ``symbolic`` the rows are compared at three seeded integer values
    of p, which is exact only when gens and targets are free of p.  Returns
    (ok, detail).  Ungraded generators, or a generator or target longer than
    ``degree_bound``, raise ``ValueError``.
    """
    targets = [t for t in targets if not t.is_zero]
    gens = tuple(g for g in gens if not g.is_zero)
    for family, name in ((gens, "generator"), (targets, "target")):
        if any(f.degree() > degree_bound for f in family):
            raise ValueError(f"{name} exceeds the degree bound")
    if not targets:
        return True, "no targets"
    if not gens:
        return False, "empty generating family"
    if symbolic:
        ranks, basis, nshifts, nkept = _graded_echelon(gens, degree_bound)

        def inside(t):
            return all(_int_reduces_to_zero(
                           basis, _int_row((ranks[w], q) for w, q in part.items()))
                       for part in _weight_components(t).values())
        for i, t in enumerate(targets):
            if not inside(t):
                return False, f"target #{i} escapes the span symbolically"
        return True, (f"{len(targets)} targets inside span of {nshifts} shifts "
                      f"of {nkept} of {len(gens)} generators")
    ranks, bases, nshifts = _int_echelons(gens, degree_bound, seed)
    for pval, basis in bases:
        for i, t in enumerate(targets):
            if not _int_reduces_to_zero(basis, _int_rows([t], ranks, pval)[0]):
                return False, f"target #{i} escapes the span at p={pval}"
    return True, f"{len(targets)} targets inside span of {nshifts} shifts"


def span_equal(set1, set2, degree_bound: int, seed: int = 0,
               symbolic: bool = True) -> bool:
    """Mutual degree-sliced span containment of two relation families."""
    ok1, _ = span_contains(set2, set1, degree_bound, seed=seed, symbolic=symbolic)
    if not ok1:
        return False
    ok2, _ = span_contains(set1, set2, degree_bound, seed=seed, symbolic=symbolic)
    return ok2
