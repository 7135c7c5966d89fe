"""Truncated completed group algebras Z_p[Q][[t_1..t_s]].

The group is Q x Z_p^s with Q finite abelian; a choice of topological
generators g_1..g_s of the free part identifies the algebra with a power
series ring via [g_i] = t_i + 1.  Everything is truncated at a total
degree D, with a sticky flag recording whether any nonzero term was ever
dropped, so no identity can silently pass through a lossy product.

Elements and graded pieces are `kernel.CoeffMap`s: addition, scaling,
agreement and the product loop live there; this module adds the key shape,
the truncation rule and the involution.
"""

import itertools
import operator

from .errors import DegreeTooLow, ShapeMismatch
from .kernel import CoeffMap
from .padic import PadicScalar
from .linalg import assert_full_column_rank


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
        out = cls.monomial(shape, q, None, 1)
        if free_exponent:
            for i, a in enumerate(free_exponent):
                gi = cls.monomial(shape, None, tuple(1 if j == i else 0
                                                     for j in range(shape.s)), 1)
                step = cls.one(shape) + gi
                if a < 0:
                    step = step.inverse_of_one_unit()
                    a = -a
                for _ in range(a):
                    out = out * step
        return out

    def _shape(self):
        return self.shape

    def __mul__(self, other):
        self._check(other)
        degree, divisors = self.shape.degree, self.shape.divisors

        def combine(k1, k2):
            e = tuple(map(operator.add, k1[1], k2[1]))
            if sum(e) > degree:
                return None
            return tuple(map(operator.mod, map(operator.add, k1[0], k2[0]),
                             divisors)), e

        return self._like(*self._product(other, combine))

    def inverse_of_one_unit(self):
        """Inverse of 1 + x with x of positive degree, via geometric series."""
        shape = self.shape
        one = GroupAlgebraElem.one(shape)
        x = self - one
        if x.rel_aug_degree() < 1:
            raise ShapeMismatch("inverse implemented for 1 + (positive degree)")
        out = one
        power = one
        for _ in range(shape.degree):
            power = power * x
            power.lost = False  # powers of I never wrap below the cut
            out = out + (-power if _ % 2 == 0 else power)
        return out

    def involution(self):
        """[g] -> [g^{-1}]: negation on Q, (1+t_i) -> (1+t_i)^{-1}.

        Filtration-preserving, hence exact on the truncated quotient.
        """
        shape = self.shape
        one = GroupAlgebraElem.one(shape)
        # t_i^dual = (1+t_i)^{-1} - 1, precomputed per variable
        duals = []
        for i in range(shape.s):
            ti = GroupAlgebraElem.monomial(
                shape, None, tuple(1 if j == i else 0 for j in range(shape.s)), 1)
            duals.append((one + ti).inverse_of_one_unit() - one)
        out = GroupAlgebraElem.zero(shape)
        for (q, e), c in self.coeffs.items():
            term = GroupAlgebraElem.monomial(shape, shape.q_neg(q), None, 1).scale(c)
            for i, a in enumerate(e):
                for _ in range(a):
                    term = term * duals[i]
            term.lost = False
            out = out + term
        out.lost = self.lost
        return out

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
    Columns are images in monomial coordinates; full column rank certifies
    injectivity at working precision.
    """
    monos = shape.monomials(n)
    qs = shape.q_elements()
    columns = []
    for e in monos:
        base = GroupAlgebraElem.monomial(shape, None, e, 1)
        for q in qs:
            img = GroupAlgebraElem.monomial(shape, q, None, 1) * base
            columns.append(img.leading_term(n))
    keys = sorted(set().union(*[set(col.coeffs) for col in columns]))
    zero = PadicScalar.zero(shape.p, shape.prec)
    matrix = [[col.coeffs.get(k, zero) for col in columns] for k in keys]
    return assert_full_column_rank(matrix)
