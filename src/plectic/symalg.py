"""Symmetric powers of free modules in monomial coordinates.

A degree-n element is a map from exponent tuples (summing to n) to
scalars.  Pure tensors enter through mu / collapse as products of linear
forms, so the commutativity diagrams hold by construction and are also
re-checked numerically in the test suite.  Tensors are `kernel.CoeffMap`s:
addition, scaling and agreement live there; the product, which never
truncates, adds exponent tuples pairwise.
"""

import operator

from .errors import NotProportional, ShapeMismatch, ZeroDenominator
from .kernel import CoeffMap


class FreeModule:
    """A finitely generated free module with a named, ordered basis."""

    def __init__(self, names):
        if not names:
            raise ValueError("need at least one basis element")
        self.names = tuple(names)
        self.rank = len(self.names)

    def __eq__(self, other):
        return isinstance(other, FreeModule) and self.names == other.names

    def __repr__(self):
        return "FreeModule(%r)" % (self.names,)


def direct_sum(modules):
    names = []
    for i, m in enumerate(modules):
        names.extend("%d:%s" % (i, n) for n in m.names)
    return FreeModule(names)


class SymTensor(CoeffMap):
    """Element of Sym^degree of a free module, as a monomial-coefficient map."""

    def __init__(self, module, degree, coeffs):
        super().__init__(coeffs)
        self.module = module
        self.degree = degree
        for e in self.coeffs:
            if len(e) != module.rank or sum(e) != degree:
                raise ShapeMismatch("bad exponent %r for degree %d" % (e, degree))

    @classmethod
    def zero(cls, module, degree):
        return cls(module, degree, {})

    def _shape(self):
        return self.module, self.degree

    def __mul__(self, other):
        if self.module != other.module:
            raise ShapeMismatch("products need a common module")
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(map(operator.add, k1, k2))
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        return self._like(out, self.lost or other.lost,
                          degree=self.degree + other.degree)

    def leading(self):
        """(exponent, coefficient) under graded lexicographic order."""
        if self.is_zero():
            raise ZeroDenominator("zero tensor has no leading coefficient")
        e = max(self.coeffs)
        return e, self.coeffs[e]

    def __repr__(self):
        return "SymTensor(deg=%d, %d terms)" % (self.degree, len(self.coeffs))


def linear_form(module, vector):
    """Degree-1 element with the given coordinate vector."""
    if len(vector) != module.rank:
        raise ShapeMismatch("vector length != module rank")
    coeffs = {}
    for i, c in enumerate(vector):
        e = tuple(1 if j == i else 0 for j in range(module.rank))
        coeffs[e] = c
    return SymTensor(module, 1, coeffs)


def mu(modules, terms):
    """Canonical map from a tensor product into Sym^n of the direct sum.

    `terms` is a list of (scalar, [vector per module]); each pure tensor
    maps to the product of the disjoint linear forms of its factors.
    """
    total = direct_sum(modules)
    padded_terms = []
    for scalar, vectors in terms:
        padded, off = [], 0
        for m, vec in zip(modules, vectors):
            row = [scalar.scale_int(0)] * total.rank
            row[off:off + m.rank] = vec
            padded.append(row)
            off += m.rank
        padded_terms.append((scalar, padded))
    return collapse(total, padded_terms)


def collapse(module, terms):
    """Projection of M^{tensor n} onto Sym^n(M): forget tensor positions."""
    n = None
    out = None
    for scalar, vectors in terms:
        if n is None:
            n = len(vectors)
            out = SymTensor.zero(module, n)
        prod = None
        for vec in vectors:
            form = linear_form(module, list(vec))
            prod = form if prod is None else prod * form
        out = out + prod.scale(scalar)
    if out is None:
        raise ValueError("collapse needs at least one term")
    return out


def sqrt_ratio(x, y, floor=1):
    """The scalar a with x = a*y, certified coefficient-wise.

    The candidate is the ratio of graded-lex leading coefficients; its
    square is the proportionality constant between x*x and y*y.
    """
    x._check(y)
    if y.is_zero():
        raise ZeroDenominator("cannot divide by the zero tensor")
    if x.is_zero():
        ey, cy = y.leading()
        return cy.scale_int(0)
    ex, cx = x.leading()
    ey, cy = y.leading()
    if ex != ey:
        raise NotProportional("leading monomials differ")
    a = cx / cy
    if x.agreement(y.scale(a)) < floor:
        raise NotProportional("coefficient-wise certification failed")
    # squaring oracle: x^2 and (a^2) y^2 must also agree
    if (x * x).agreement((y * y).scale(a * a)) < floor:
        raise NotProportional("squares diverge")
    return a
