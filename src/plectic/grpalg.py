"""Truncated completed group algebras Z_p[Q][[t_1..t_s]].

The group is Q x Z_p^s with Q finite abelian; a choice of topological
generators g_1..g_s of the free part identifies the algebra with a power
series ring via [g_i] = t_i + 1.  Everything is truncated at a total
degree D, with a sticky flag recording whether any nonzero term was ever
dropped, so no identity can silently pass through a lossy product.

Elements and graded pieces are `kernel.CoeffMap`s: addition, scaling and
agreement live there.  This module adds the key shape, the involution and
the product.  Two places truncate: group elements and the involution are
substituted one variable per pass and form no term past D (past n for a
degree-n leading term), and the product pairs terms degree bucket by degree
bucket and never forms a pair past D.  Work past `WORK_LIMIT` is counted
and refused before it starts.
"""

import itertools
import operator

from .errors import (DegreeTooLow, RankDeficient, ShapeMismatch,
                     WorkLimitExceeded)
from .kernel import CoeffMap
from .padic import PadicScalar

# The most steps one operation may take: the series terms one substitution
# pass emits, or the pairs of a product.
# scenarios/t3-split.kv needs 51,186 at seed 0, for one substitution pass.
WORK_LIMIT = 16_000_000


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
        """All multi-exponents in s variables of total degree exactly n."""
        def gen(rest, total):
            if rest == 1:
                yield (total,)
                return
            for head in range(total + 1):
                for tail in gen(rest - 1, total - head):
                    yield (head,) + tail
        if self.s == 0:
            return [()] if n == 0 else []
        return list(gen(self.s, n))

    def __eq__(self, other):
        return (isinstance(other, GroupShape)
                and (self.divisors, self.s, self.degree, self.p)
                == (other.divisors, other.s, other.degree, other.p))

    def __repr__(self):
        return "GroupShape(Q=%r, s=%d, D=%d)" % (self.divisors, self.s, self.degree)


class GroupAlgebraElem(CoeffMap):
    """Element of the truncated algebra: map (Q-element, exponent) -> scalar."""

    def __init__(self, shape, coeffs, lost=False):
        for q, e in coeffs:
            if len(q) != len(shape.divisors) or len(e) != shape.s:
                raise ShapeMismatch("bad key %r" % ((q, e),))
            if sum(e) > shape.degree:
                raise ShapeMismatch("degree beyond truncation")
        super().__init__(coeffs, lost)
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
        one = {(q, (0,) * shape.s): PadicScalar.one(shape.p, shape.prec)}
        coeffs = _substitute(one, shape.s, shape.degree,
                             lambda i, k: _binomials(a[i], shape.degree))
        return cls(shape, coeffs, min(a, default=0) < 0 or sum(a) > shape.degree)

    def _shape(self):
        return self.shape

    def __mul__(self, other):
        """The product truncated at degree D, one degree bucket at a time.

        `other`'s terms are grouped by total degree, so a term of degree d
        meets only the buckets of degree <= D - d.  Skipping a nonempty
        bucket drops nonzero terms, which flags the product lossy.
        """
        self._check(other)
        degree, divisors = self.shape.degree, self.shape.divisors
        buckets = [[] for _ in range(degree + 1)]
        for (q, e), c in other.coeffs.items():
            buckets[sum(e)].append((q, e, c))
        upto = list(itertools.accumulate(map(len, buckets)))  # degree <= d
        pairs = sum(upto[degree - sum(e)] for _, e in self.coeffs)
        if pairs > WORK_LIMIT:
            raise WorkLimitExceeded(
                "a product of %d pairs is past the work limit" % pairs)
        out = {}
        lost = self.lost or other.lost
        for (q1, e1), c1 in self.coeffs.items():
            budget = degree - sum(e1)
            lost = lost or upto[budget] < upto[-1]
            for bucket in buckets[:budget + 1]:
                for q2, e2, c2 in bucket:
                    k = (tuple(map(operator.mod, map(operator.add, q1, q2),
                                   divisors)),
                         tuple(map(operator.add, e1, e2)))
                    c = c1 * c2
                    out[k] = out[k] + c if k in out else c
        return self._like(out, lost)

    def involution(self):
        """[g] -> [g^{-1}]: negation on Q, t^e -> (-t)^e * prod (1+t_i)^{-e_i}.

        Filtration-preserving, hence exact on the truncated quotient: the
        ring map t_i -> -t_i/(1+t_i), one counted `_substitute` pass per
        variable (`involution_leading_term` stops at a degree).
        """
        return self._like(self._dual_series(self.shape.degree), self.lost)

    def involution_leading_term(self, n):
        """`involution().leading_term(n)`, forming no term past degree n; the
        involution keeps `lost` and the lowest degree (its lowest piece is the
        dual of this one), so the same cases raise `DegreeTooLow`."""
        self.leading_term(n)
        return GradedPiece(self.shape, n, self._dual_series(n))

    def _dual_series(self, budget):
        q_neg = self.shape.q_neg
        return _substitute({(q_neg(q), e): c for (q, e), c in self.coeffs.items()
                            if sum(e) <= budget}, self.shape.s, budget,
                           lambda i, k: _dual_row(k, budget))

    def rel_aug_degree(self):
        """Largest n <= D with the element in I_Q^n (D+1 for zero)."""
        if not self.coeffs:
            return self.shape.degree + 1
        return min(sum(e) for (_, e) in self.coeffs)

    def graded_part(self, n):
        return {k: c for k, c in self.coeffs.items() if sum(k[1]) == n}

    def leading_term(self, n):
        if self.lost and n >= self.shape.degree:
            raise DegreeTooLow("element lost degree-%d information" % n)
        if self.rel_aug_degree() < n:
            raise DegreeTooLow("element is not in I_Q^%d" % n)
        return GradedPiece(self.shape, n, self.graded_part(n))

    def __repr__(self):
        return "GroupAlgebraElem(%d terms%s)" % (len(self.coeffs),
                                                 ", lossy" if self.lost else "")


def _binomials(a, n):
    """[C(a, k) for k = 0..n], stopping at C(a, a) when 0 <= a < n."""
    out = [1]
    for k in range(n if a < 0 else min(a, n)):
        out.append(out[-1] * (a - k) // (k + 1))
    return out


def _dual_row(k, n):
    """t^k -> (-t)^k (1+t)^{-k}: [(-1)^k C(-k, m) for m = 0..n]."""
    return [b if k % 2 == 0 else -b for b in _binomials(-k, n)]


def _substitute(coeffs, s, budget, row):
    """Map t_i^k to t_i^k * sum_m row(i, k)[m] t_i^m, one variable i per pass,
    forming no term past total degree `budget`.  Each term emits c * row[m]
    by `scale_int` and `+` (a row [1] passes it through, as no work), so a
    coefficient is the interval the per-term expansion gives; a sum that
    vanishes to precision stays, as its precision bounds the later passes.
    A pass's emitted terms are counted, and refused past `WORK_LIMIT`."""
    for i in range(s):
        rows = {k: row(i, k) for k in {e[i] for _, e in coeffs}}
        work = sum(min(len(rows[e[i]]), budget + 1 - sum(e))
                   for _, e in coeffs if rows[e[i]] != [1])
        if work > WORK_LIMIT:
            raise WorkLimitExceeded("a substitution pass of %d series terms "
                                    "is past the work limit" % work)
        out = {}
        for (q, e), c in coeffs.items():
            head, k, tail = e[:i], e[i], e[i + 1:]
            for m, n in enumerate(rows[k][:budget + 1 - sum(e)]):
                key, d = (q, head + (k + m,) + tail), c if n == 1 else c.scale_int(n)
                out[key] = out[key] + d if key in out else d
        coeffs = out
    return coeffs


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
                           for (q, e), c in self.coeffs.items()}, self.lost)

    def as_elem(self):
        """A lift of the class back into the algebra (its monomial rep)."""
        return GroupAlgebraElem(self.shape, dict(self.coeffs))

    def __repr__(self):
        return "GradedPiece(deg=%d, %d terms)" % (self.degree, len(self.coeffs))


def check_lemma_free_graded_injectivity(shape, n):
    """Certify I(H)^n/I(H)^{n+1} tensor Q_p[Q] -> I_Q(G)^n/I_Q(G)^{n+1} injective.

    H is the free part; the source basis is {t-monomial of degree n} x Q.
    A permutation certificate: each basis element's image is one monomial
    with a unit coefficient, and no two images share a monomial, so the
    images are independent at every precision.  Returns the rank, the size
    of the basis; raises `RankDeficient` where the certificate fails.
    """
    keys = set()
    for e in shape.monomials(n):
        base = GroupAlgebraElem.monomial(shape, None, e, 1)
        for q in shape.q_elements():
            img = GroupAlgebraElem.monomial(shape, q, None, 1) * base
            terms = img.leading_term(n).coeffs
            key = next(iter(terms), None)
            if len(terms) != 1 or terms[key].valuation != 0 or key in keys:
                raise RankDeficient("the image of [%r] t^%r is not a unit "
                                    "multiple of a new monomial" % (q, e))
            keys.add(key)
    return len(keys)
