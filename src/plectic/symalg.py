"""Symmetric powers of free modules in monomial coordinates.

A free module is its rank: Sym^degree of Z_p^rank has the exponent tuples
of length rank summing to degree as its basis, and a degree-n element is a
map from those tuples to scalars.  Pure tensors enter through mu / collapse
as products of linear forms, so the commutativity diagrams hold by
construction and are also re-checked numerically in the test suite.
Tensors are `kernel.CoeffMap`s: addition, scaling and agreement live
there; the product, which never truncates, adds exponent tuples pairwise.
"""

import math
import operator

from .errors import DivisionByZero, NotProportional, ShapeMismatch
from .kernel import CoeffMap


class SymTensor(CoeffMap):
    """Element of Sym^degree of the free module of a rank, as a
    monomial-coefficient map."""

    def __init__(self, rank, degree, coeffs):
        super().__init__(coeffs)
        self.rank = rank
        self.degree = degree
        for e in self.coeffs:
            if len(e) != rank or sum(e) != degree:
                raise ShapeMismatch("bad exponent %r for degree %d" % (e, degree))

    @classmethod
    def zero(cls, rank, degree):
        return cls(rank, degree, {})

    def _shape(self):
        return self.rank, self.degree

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ShapeMismatch("products need a common module")
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(map(operator.add, k1, k2))
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        return self._like(out, degree=self.degree + other.degree)


def linear_form(rank, vector):
    """Degree-1 element with the given coordinate vector."""
    if len(vector) != rank:
        raise ShapeMismatch("vector length != module rank")
    coeffs = {}
    for i, c in enumerate(vector):
        e = tuple(1 if j == i else 0 for j in range(rank))
        coeffs[e] = c
    return SymTensor(rank, 1, coeffs)


def mu(ranks, terms):
    """Canonical map from a tensor product into Sym^n of the direct sum,
    the free module of rank sum(ranks).

    `terms` is a list of (scalar, [vector per module]); each pure tensor
    maps to the product of the disjoint linear forms of its factors.
    """
    total = sum(ranks)
    padded_terms = []
    for scalar, vectors in terms:
        padded, off = [], 0
        for rank, vec in zip(ranks, vectors):
            row = [scalar.scale_int(0)] * total
            row[off:off + rank] = vec
            padded.append(row)
            off += rank
        padded_terms.append((scalar, padded))
    return collapse(total, padded_terms)


def collapse(rank, terms):
    """Projection of M^{tensor n} onto Sym^n(M): forget tensor positions.

    `terms` is a nonempty list of (scalar, [n vectors])."""
    out = SymTensor.zero(rank, len(terms[0][1]))
    for scalar, vectors in terms:
        forms = [linear_form(rank, list(vec)) for vec in vectors]
        out = out + math.prod(forms[1:], start=forms[0]).scale(scalar)
    return out


def sqrt_ratio(x, y, floor=1):
    """The scalar a with x = a*y, certified once, coefficient-wise.

    The candidate is the ratio of the coefficients at the graded-lex
    leading monomial, the largest exponent tuple (all have one degree);
    its square is the proportionality constant between x*x and y*y.  No
    squaring test runs: for integral coefficients and a, x = a*y to k
    digits gives x*x = a^2*(y*y) to k digits.
    """
    x._check(y)
    if y.is_zero():
        raise DivisionByZero("cannot divide by the zero tensor")
    ey = max(y.coeffs)
    if x.is_zero():
        return y.coeffs[ey].scale_int(0)
    ex = max(x.coeffs)
    if ex != ey:
        raise NotProportional("leading monomials differ")
    a = x.coeffs[ex] / y.coeffs[ey]
    if x.agreement(y.scale(a)) < floor:
        raise NotProportional("coefficient-wise certification failed")
    return a
