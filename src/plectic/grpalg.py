"""Truncated completed group algebras Z_p[Q][[t_1..t_s]].

The group is Q x Z_p^s with Q finite abelian; a choice of topological
generators g_1..g_s of the free part identifies the algebra with a power
series ring via [g_i] = t_i + 1.  Everything is truncated at a total
degree D: an element is its class modulo I^(D+1), where every operation is
exact, and no leading term of degree past D is read from it.

Elements and graded pieces are `kernel.CoeffMap`s.  The product (which
counts its factor entries) and the involution map separable terms factor
by factor; `_expand` alone forms monomials, truncates and counts them.
"""

import itertools
import math
import operator

from .errors import (DegreeTooLow, RankDeficient, ShapeMismatch,
                     WorkLimitExceeded)
from .kernel import CoeffMap, certified_rank
from .padic import PadicScalar

# The most steps one operation may take: the monomials one expansion forms,
# or a product's factor entries, s*(D + 1) a term pair.  A monomial costs
# ~400 bytes (962,598 peaked at 382 MB RSS) and an entry ~44 (a term at
# s = 8, D = 18 took ~6.7 kB), so an operation under the limit takes at most
# ~400 MB.  scenarios/t3-split.kv needs 2,432 entries and 10,252 monomials
# at seed 0 (15,734 over seeds 0-10), for iota(xy) and iota(x) iota(y).
WORK_LIMIT = 1_000_000


class GroupShape:
    """Shape of G = Q x Z_p^s with a truncation budget."""

    def __init__(self, divisors, s, degree, p, prec):
        divisors = tuple(int(d) for d in divisors)
        if any(d < 2 for d in divisors):
            raise ValueError("elementary divisors must be >= 2")
        if s < 0 or degree < 1:
            raise ValueError("need free rank >= 0 and degree >= 1")
        self.divisors = divisors
        self.s = s
        self.degree = degree
        self.p = p
        self.prec = prec

    def q_elements(self):
        return list(itertools.product(*[range(d) for d in self.divisors]))

    def q_neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.divisors))

    def q_identity(self):
        return tuple(0 for _ in self.divisors)

    def monomials(self, n):
        """All multi-exponents in s variables of total degree exactly n, in
        lexicographic order: the gaps between s - 1 bars in n + s - 1 places."""
        if self.s == 0:
            return [()] if n == 0 else []
        places = n + self.s - 1
        return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (places,)))
                for bars in itertools.combinations(range(places), self.s - 1)]

    def __eq__(self, other):
        return (isinstance(other, GroupShape)
                and (self.divisors, self.s, self.degree, self.p)
                == (other.divisors, other.s, other.degree, other.p))

    def __repr__(self):
        return "GroupShape(Q=%r, s=%d, D=%d)" % (self.divisors, self.s, self.degree)


class GroupAlgebraElem(CoeffMap):
    """Element of the truncated algebra: a map (q, (f_1..f_s)) -> c of terms
    c [q] prod f_i(t_i), each factor the tuple of its (degree, nonzero exact
    integer) pairs by rising degree, at most D; built from monomials."""

    def __init__(self, shape, coeffs):
        for q, e in coeffs:
            if len(q) != len(shape.divisors) or len(e) != shape.s:
                raise ShapeMismatch("bad key %r" % ((q, e),))
            if sum(e) > shape.degree:
                raise ShapeMismatch("degree beyond truncation")
        super().__init__({(q, tuple([((k, 1),) for k in e])): c
                          for (q, e), c in coeffs.items()})
        self.shape = shape

    @classmethod
    def zero(cls, shape):
        return cls(shape, {})

    @classmethod
    def one(cls, shape):
        return cls.monomial(shape, None, None, 1)

    @classmethod
    def monomial(cls, shape, q=None, exponent=None, scalar=1):
        """scalar * [q] * t^exponent."""
        q = shape.q_identity() if q is None else tuple(q)
        e = tuple(0 for _ in range(shape.s)) if exponent is None else tuple(exponent)
        if isinstance(scalar, int):
            scalar = PadicScalar.from_int(scalar, shape.p, shape.prec)
        return cls(shape, {(q, e): scalar})

    @classmethod
    def group_elem(cls, shape, q=None, free_exponent=None):
        """[g] for g = (q, sum a_i g_i): [q] * prod (1+t_i)^{a_i}, truncated."""
        q = shape.q_identity() if q is None else tuple(q)
        a = (0,) * shape.s if free_exponent is None else tuple(free_exponent)
        if len(a) != shape.s:
            raise ShapeMismatch("free exponent %r needs %d entries" % (a, shape.s))
        factors = tuple(tuple(enumerate(_binomials(ai, shape.degree))) for ai in a)
        return cls.zero(shape)._like(
            {(q, factors): PadicScalar.one(shape.p, shape.prec)})

    def _shape(self):
        return self.shape

    def __mul__(self, other):
        """Term pair by term pair, factor by factor, truncated at D; a pair
        whose lowest degrees sum past D is not formed."""
        self._check(other)
        degree, divisors = self.shape.degree, self.shape.divisors
        entries = max(1, self.shape.s * (degree + 1))  # of one term's factors
        work = len(self.coeffs) * len(other.coeffs) * entries
        if work > WORK_LIMIT:
            raise WorkLimitExceeded(
                "a product of %d factor entries is past the work limit" % work)
        out = {}
        for (q1, f1), c1 in self.coeffs.items():
            for (q2, f2), c2 in other.coeffs.items():
                if sum([f[0][0] for f in f1 + f2]) > degree:
                    continue
                k = (tuple(map(operator.mod, map(operator.add, q1, q2), divisors)),
                     tuple(_times(a, b, degree) for a, b in zip(f1, f2)))
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        return self._like(out)

    def involution(self):
        """[g] -> [g^{-1}]: negation on Q, and the ring map t -> -t/(1+t) of
        Z[t]/t^{D+1} on each factor, exact on the truncated quotient.  Each
        distinct factor is mapped once per call."""
        images = {f: _dual(f, self.shape.degree)
                  for f in {f for _, factors in self.coeffs for f in factors}}
        return self._like({self._dual_key(k, images): c
                           for k, c in self.coeffs.items()})

    def _dual_key(self, key, images):
        """Q negated, and each factor replaced by its image under t -> -t/(1+t)."""
        return self.shape.q_neg(key[0]), tuple(map(images.__getitem__, key[1]))

    def expand(self):
        """The monomial map (q, exponent) -> scalar, truncated at D."""
        return _expand(self.coeffs, self.shape.degree)

    _values = expand

    def leading_term(self, n):
        """The class in I_Q^n / I_Q^{n+1}, expanded to degree n <= D only."""
        if n > self.shape.degree:
            raise DegreeTooLow("degree %d is past the truncation" % n)
        coeffs = _expand(self.coeffs, n)
        if any(sum(e) < n for _, e in coeffs):
            raise DegreeTooLow("element is not in I_Q^%d" % n)
        return GradedPiece(self.shape, n, coeffs)


def _binomials(a, n):
    """[C(a, k) for k = 0..n], stopping at C(a, a) when 0 <= a < n."""
    out = [1]
    for k in range(n if a < 0 else min(a, n)):
        out.append(out[-1] * (a - k) // (k + 1))
    return out


def _dual_row(k, n):
    """t^k -> (-t)^k (1+t)^{-k}: [(-1)^k C(-k, m) for m = 0..n]."""
    return [b if k % 2 == 0 else -b for b in _binomials(-k, n)]


def _factor(pairs, n):
    """The factor sum of (degree, integer) pairs, truncated at degree n."""
    out = [0] * (n + 1)
    for k, a in pairs:
        if k <= n:
            out[k] += a
    return tuple([(k, a) for k, a in enumerate(out) if a])


def _times(f, g, n):
    return _factor([(i + j, a * b) for i, a in f for j, b in g], n)


def _dual(f, n):
    """t^k -> t^k * _dual_row(k, n - k), truncated at degree n; the image of
    one power t^k has no zero entry and nothing to merge."""
    if len(f) == 1:
        (k, a), = f
        return tuple(zip(range(k, n + 1), [a * b for b in _dual_row(k, n - k)]))
    return _factor([(m, a * b) for k, a in f
                    for m, b in enumerate(_dual_row(k, n - k), k)], n)


def _expand(terms, n):
    """The monomials of degree <= n of `terms`: c [q] prod f_i adds
    c * prod f_i[e_i] at (q, e) by one `scale_int` (none for 1) and one `+`,
    as the term-by-term expansion does.  Past `WORK_LIMIT` none is formed;
    they are counted exactly only when a cheap bound exceeds it."""
    live = []  # (q, factors, c, least degree) of the terms of some degree <= n
    for (q, factors), c in terms.items():
        least = sum([f[0][0] for f in factors])
        if least <= n:
            live.append((q, factors, c, least))
    bound = 0  # a factor's degrees differ, so <= n + 1 - least of them are in reach
    for _, factors, _, least in live:
        bound += math.prod([min(len(f), n + 1 - least) for f in factors])
    if bound > WORK_LIMIT:
        work = 0  # the coefficient sum of the product of the supports
        for _, factors, _, _ in live:
            support = ((0, 1),)
            for f in factors:
                support = _times(support, [(k, 1) for k, _ in f], n)
            work += sum(m for _, m in support)
        if work > WORK_LIMIT:
            raise WorkLimitExceeded("%d monomials are past the work limit" % work)
    out = {}
    for q, factors, c, rest in live:  # rest: the least degree to come
        partial = [((), 1, 0)]
        for f in factors:
            rest -= f[0][0]
            partial = [(e + (k,), m * a, d + k) for e, m, d in partial
                       for k, a in f if d + k + rest <= n]
        for e, m, _ in partial:
            key, x = (q, e), c if m == 1 else c.scale_int(m)
            out[key] = out[key] + x if key in out else x
    return {k: c for k, c in out.items() if not c.is_zero()}


class GradedPiece(CoeffMap):
    """Class in I_Q^n / I_Q^{n+1}, i.e. Sym^n(Z_p^s) tensor Z_p[Q]."""

    def __init__(self, shape, degree, coeffs):
        super().__init__(coeffs)
        self.shape = shape
        self.degree = degree
        for (q, e) in self.coeffs:
            if sum(e) != degree:
                raise ShapeMismatch("non-homogeneous graded piece")

    def _shape(self):
        return self.shape, self.degree

    def dual(self):
        """(-1)^degree on the symmetric part, inversion on Q (a bijection)."""
        sign = -1 if self.degree % 2 else 1
        q_neg = self.shape.q_neg
        return self._like({(q_neg(q), e): c.scale_int(sign)
                           for (q, e), c in self.coeffs.items()})


def check_lemma_free_graded_injectivity(shape, n):
    """Certify I(H)^n/I(H)^{n+1} tensor Q_p[Q] -> I_Q(G)^n/I_Q(G)^{n+1} injective.

    H is the free part; the source basis is {t-monomial of degree n} x Q,
    whose images must pass the permutation certificate `certified_rank`.
    Returns the rank, the size of the basis; raises `RankDeficient`, naming
    the first basis element where the certificate fails.
    """
    basis = [(q, e) for e in shape.monomials(n) for q in shape.q_elements()]
    rank = certified_rank(
        (GroupAlgebraElem.monomial(shape, q, None, 1)
         * GroupAlgebraElem.monomial(shape, None, e, 1)).leading_term(n)
        for q, e in basis)
    if rank < len(basis):
        raise RankDeficient("the image of [%r] t^%r is not a unit multiple "
                            "of a new monomial" % basis[rank])
    return rank
