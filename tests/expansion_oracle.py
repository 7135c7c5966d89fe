"""Tensor references for the scalar identity checks of `plectic_ops`.

`PlecticTensor` is a sum of pure tensors of coordinate vectors, and
`projector` applies the partial-Frobenius projector 1 +/- a*sigma to every
factor of one (`make_sigma_point` gives sigma on point coordinates).
`det_map` expands the determinant of an r x r matrix of coordinate vectors
over all r! permutations, `norm_map` collapses it into Sym^r of the (x, y)
module, and `algebraicity_by_expansion` is the algebraicity check built
from them: it compares whole binary forms of degree r coefficient-wise.
`factorization_by_tensor` is the factorization check over rank-one
`SymTensor`s, its squares formed as tensors, for the scalar
`plectic_ops.factorization_check`.  Families are (completed point, k_eta)
pairs, as `Scenario.family` holds them.  `rel_aug_degree`, `as_elem` and
`quad_truncate` are readings of library values that only the tests need.
`ref_plog` is the log series built from the composed scalar operations,
the reference for `padic.plog` and `UnitCompletion.complete`.
"""

import itertools
import math
from fractions import Fraction

from plectic.errors import ShapeMismatch
from plectic.grpalg import GroupAlgebraElem
from plectic.kernel import CoeffMap
from plectic.padic import (INF, PadicScalar, QuadExtScalar, _int_valuation,
                           _inverse, is_square, smallest_nonsquare)
from plectic.plectic_ops import (char_table_det, character_table,
                                 minus_coordinates)
from plectic.symalg import SymTensor, collapse, linear_form, sqrt_ratio


# -- tensors ------------------------------------------------------------------

class PlecticTensor:
    """Sum of pure tensors of coordinate vectors, r factors of dimension dim."""

    def __init__(self, r, dim, terms):
        self.r = r
        self.dim = dim
        clean = []
        for coeff, factors in terms:
            if len(factors) != r or any(len(v) != dim for v in factors):
                raise ShapeMismatch("bad tensor term shape")
            clean.append((coeff, tuple(tuple(v) for v in factors)))
        self.terms = clean

    @classmethod
    def pure(cls, coeff, factors):
        return cls(len(factors), len(factors[0]), [(coeff, factors)])

    def _check(self, other):
        if self.r != other.r or self.dim != other.dim:
            raise ShapeMismatch("mixed tensor shapes")

    def scale(self, scalar):
        """Every coefficient times `scalar`."""
        return PlecticTensor(self.r, self.dim,
                             [(c * scalar, f) for c, f in self.terms])

    def coords(self):
        """Expanded coordinates: multi-index -> scalar."""
        out = {}
        for coeff, factors in self.terms:
            for idx in itertools.product(range(self.dim), repeat=self.r):
                entries = [factors[k][i] for k, i in enumerate(idx)]
                if any(e.is_zero() for e in entries):
                    continue
                c = math.prod(entries, start=coeff)
                out[idx] = out[idx] + c if idx in out else c
        return {k: v for k, v in out.items() if not v.is_zero()}

    def is_zero(self):
        return not self.coords()

    def agreement(self, other):
        self._check(other)
        return CoeffMap(self.coords()).agreement(CoeffMap(other.coords()))

    def __repr__(self):
        return "PlecticTensor(r=%d, dim=%d, %d terms)" % (self.r, self.dim,
                                                          len(self.terms))


def make_sigma_point(a):
    """diag(a, -a) on point-completion coordinates."""
    def s(v):
        return (v[0].scale_int(a), v[1].scale_int(-a))
    return s


def projector(x, sign, a, sigma):
    """(1 +/- a*sigma) applied to every tensor factor: the reference for
    the y^r coefficient step 3 of `algebraicity_check` reads."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    mult = a if sign == "+" else -a

    def fn(v):
        return tuple(c + s.scale_int(mult) for c, s in zip(v, sigma(v)))

    return PlecticTensor(x.r, x.dim, [(c, tuple(fn(v) for v in f))
                                      for c, f in x.terms])


# -- the r!-term expansion ----------------------------------------------------

def det_map(entries):
    """Alternating sum over permutations of an r x r matrix of vectors.

    entries[i][j] is the coordinate vector of point i at prime j.
    """
    r = len(entries)
    if any(len(row) != r for row in entries):
        raise ShapeMismatch("determinant needs a square matrix of vectors")
    p = entries[0][0][0].p
    return PlecticTensor(r, len(entries[0][0]), [
        (PadicScalar.from_int(perm_sign(perm), p, INF),
         tuple(entries[perm[j]][j] for j in range(r)))
        for perm in itertools.permutations(range(r))])


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def norm_map(x, module):
    """Collapse the r-fold tensor product into Sym^r of the local module,
    given by its rank."""
    if module != x.dim:
        raise ShapeMismatch("module rank != factor dimension")
    if not x.terms:
        return SymTensor.zero(module, x.r)
    return collapse(module, x.terms)


def minus_projection(n):
    """Sym^r(1 - a*sigma) of a norm n in Sym^r of the (x, y) module.

    sigma = diag(a, -a) with a = +-1, so 1 - a*sigma = diag(0, 2) for
    either sign: only the y^r coefficient survives, times 2^r.  The norm map
    commutes with a map applied to every factor, so this is the norm of
    `projector(x, "-", a, sigma)` without a second pass over the terms.
    """
    r = n.degree
    c = n.coeffs.get((0, r))
    coeffs = {} if c is None else {(0, r): c.scale_int(2 ** r)}
    return SymTensor(n.rank, r, coeffs)


def phi_minus(c, r, units):
    """Image of the invariant c under the tensor of parametrizations: the
    pure tensor with every factor the minus point (0, 2*b0), scaled by c."""
    factor = (PadicScalar.zero(units.p, units.prec), units.minus_scale)
    return PlecticTensor.pure(c, (factor,) * r)


def algebraicity_by_expansion(family, t, c_s, units):
    """(C_G, step-2 margin, step-3 margin) of the algebraicity check, by the
    r!-term expansion; the floor is left to the caller."""
    r = 2 ** t
    vectors = [v for v, _ in family]
    chi = character_table(t)
    entries = [[(v.a.scale_int(s), v.b.scale_int(s)) for s in row]
               for v, row in zip(vectors, chi)]
    # step (ii): the norm of the determinant is C_G times the point product
    c_g = char_table_det(t)
    module = 2  # the (x, y) module, by its rank
    n_w = norm_map(det_map(entries), module)
    prod = linear_form(module, [vectors[0].a, vectors[0].b])
    for v in vectors[1:]:
        prod = prod * linear_form(module, [v.a, v.b])
    step2_margin = n_w.agreement(prod.scale(
        PadicScalar.from_int(c_g, units.p, INF)))
    # step (iii): compare the rescaled minus projection of the norm with the
    # norm of the plectic point
    k_prod = Fraction(1)
    for _, k in family:
        k_prod *= k
    coords = minus_coordinates(family, units)
    prod_q = coords[0]
    for c in coords[1:]:
        prod_q = prod_q * c
    root = c_s / prod_q
    scale = root * PadicScalar.from_fraction(Fraction(1, c_g) / k_prod,
                                             units.p, units.prec)
    lhs = minus_projection(n_w).scale(scale)
    rhs = norm_map(phi_minus(c_s, r, units), module)
    return c_g, step2_margin, lhs.agreement(rhs)


def factorization_by_tensor(family, c_chi, c_s, units):
    """The factorization margins over rank-one tensors, uncapped: the floor
    is left to the caller, so `sqrt_ratio` certifies at -INF.  A violated
    nonvanishing equivalence is the one failed check "identity", as
    `factorization_check` returns it."""
    r = len(family)
    module = 1  # the minus line, by its rank
    coords = minus_coordinates(family, units)
    n_qs = SymTensor(module, r, {(r,): c_s}) if not c_s.is_zero() \
        else SymTensor.zero(module, r)
    prod = SymTensor(module, 1, {(1,): coords[0]})
    for c in coords[1:]:
        prod = prod * SymTensor(module, 1, {(1,): c})
    c_chi_p = PadicScalar.from_fraction(c_chi, units.p, units.prec)
    sq_margin = (n_qs * n_qs).agreement((prod * prod).scale(c_chi_p))
    root = sqrt_ratio(n_qs, prod, -INF)
    lin_margin = n_qs.agreement(prod.scale(root))
    root_sq_margin = (root * root).agreement(c_chi_p)
    nonzero = all(not c.is_zero() for c in coords)
    if (not n_qs.is_zero()) != nonzero:
        return {"identity": (False, "nonvanishing equivalence violated")}
    return {
        "square_margin": sq_margin,
        "linear_margin": lin_margin,
        "root": root,
        "root_square_margin": root_sq_margin,
        "c_chi_is_padic_square": is_square(c_chi_p),
    }


# -- the log series from composed operations ----------------------------------

def ref_qmul(x, y):
    """The quadratic product composed of scalar `*`, `scale_int` and `+`."""
    return QuadExtScalar(x.a * y.a + (x.b * y.b).scale_int(smallest_nonsquare(x.p)),
                         x.a * y.b + x.b * y.a)


def ref_qsub(x, y):
    return x + QuadExtScalar(-y.a, -y.b)


def ref_div_int(z, k):
    """z / k for an integer k != 0: each component times one inverse of
    the unit part of k, at the largest relative precision of z."""
    p = z.a.p
    vk = _int_valuation(k, p)
    k //= p ** vk
    rel = max((x.prec - x.v for x in (z.a, z.b) if x.v != INF), default=0)
    if rel == INF:
        raise ValueError("cannot divide two exact values; truncate first")
    inv = _inverse(k, p, rel)
    a, b = (PadicScalar(p, x.v - vk, x.unit * inv, x.prec - vk) if x.v != INF
            else PadicScalar.zero(p, x.prec - vk) for x in (z.a, z.b))
    return QuadExtScalar(a, b)


def ref_plog(u):
    """log u for a principal unit u known to a finite precision: the
    alternating series with one quadratic sum and one division per term,
    from the composed operations above."""
    p, target = u.p, u.prec
    if target == INF:
        raise ValueError("plog needs a finite precision input")
    x = ref_qsub(u, QuadExtScalar.from_parts(1, 0, p, INF))
    if x.is_zero():
        return QuadExtScalar(PadicScalar.zero(p, x.prec), PadicScalar.zero(p, x.prec))
    assert x.valuation >= 1, "the series needs u = 1 mod p"
    total = QuadExtScalar(PadicScalar.zero(p, target), PadicScalar.zero(p, target))
    power, k = x, 1
    while True:
        total = total + ref_div_int(power, k if k & 1 else -k)
        k += 1
        power = ref_qmul(power, x)
        if power.is_zero() or k * x.valuation - math.log(k, p) > target:
            break
    return total


# -- readings only the tests need ---------------------------------------------

def rel_aug_degree(x):
    """Largest n <= D with the group-algebra element x in I_Q^n (D + 1 for
    zero): the lowest degree of its expansion."""
    return min((sum(e) for _, e in x.expand()), default=x.shape.degree + 1)


def as_elem(piece):
    """A lift of a graded piece back into the algebra (its monomial rep)."""
    return GroupAlgebraElem(piece.shape, dict(piece.coeffs))


def quad_truncate(z, prec):
    """z in Q_p(w) with both components truncated to `prec`."""
    return QuadExtScalar(z.a.truncate(prec), z.b.truncate(prec))
