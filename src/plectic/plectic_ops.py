"""Operators on r-fold tensor products of completed local modules.

This is the toolkit's core: the determinant map, the norm map into
symmetric powers and the minus projection after it, the image of an
invariant under the torus parametrization, the reciprocity leading term,
and the verdicts for the sign, factorization, and algebraicity identities.
The invariant is the committed scalar Q_S.  The factor-wise
partial-Frobenius projector is kept as the tensor-side reference the
closed-form projection is tested against.
"""

import itertools
from fractions import Fraction

from .errors import (
    CharacterTableDegenerate,
    IdentityFails,
    InconsistentSigns,
    ShapeMismatch,
    ValidationError,
)
from .grpalg import GroupAlgebraElem, GroupShape
from .kernel import CoeffMap
from .padic import INF, PadicScalar, is_square
from .symalg import FreeModule, SymTensor, collapse, linear_form, sqrt_ratio


# -- characters of (Z/2)^t ----------------------------------------------------

def group_elements(t):
    """Elements of (Z/2)^t in lexicographic order."""
    return list(itertools.product((0, 1), repeat=t))


def character_value(index, g):
    dot = sum(i * x for i, x in zip(index, g))
    return -1 if dot % 2 else 1


def default_character_table(t):
    """Rows are the 2^t characters, in lexicographic index order."""
    elems = group_elements(t)
    return [[character_value(i, g) for g in elems] for i in elems]


def int_det(matrix):
    """Fraction-free Bareiss determinant of an integer matrix."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def char_table_det(t):
    """Determinant of the character table of (Z/2)^t; |det| = r^{r/2}."""
    det = int_det(default_character_table(t))
    if det == 0:
        raise CharacterTableDegenerate("orthogonal rows cannot be dependent")
    return det


# -- configuration ------------------------------------------------------------

class PlecticConfig:
    """Validated shape data for one verification scenario."""

    def __init__(self, t, p, reduction_sign, eps, char_table=None, tau=None,
                 prec=40, trunc_degree=None, free_rank=None):
        if t < 0:
            raise ValidationError("t must be >= 0")
        self.t = t
        self.r = 2 ** t
        self.p = p
        if reduction_sign not in (1, -1):
            raise ValidationError("reduction sign must be +1 or -1")
        self.a = reduction_sign
        if eps not in (1, -1):
            raise ValidationError("global sign must be +1 or -1")
        self.eps = eps
        self.eps_s = (-self.a) ** self.r
        self.prec = prec
        self.elems = group_elements(t)
        self.char_table = char_table or default_character_table(t)
        self._validate_table()
        self.tau = list(tau) if tau is not None else list(self.elems)[: self.r]
        if len(self.tau) != self.r:
            raise ValidationError("need one twist per prime (r of them)")
        for g in self.tau:
            if tuple(g) not in self.elems:
                raise ValidationError("twist %r outside the group" % (g,))
        self.tau = [tuple(g) for g in self.tau]
        degree = trunc_degree if trunc_degree is not None else 2 * self.r + 2
        s = free_rank if free_rank is not None else self.r
        if s < self.r:
            raise ValidationError("free rank must be at least r")
        if degree < self.r:  # the degree-r pieces the suites compare
            raise ValidationError("truncation degree must be at least r")
        self.shape = GroupShape((2,) * max(t, 1), s, degree, p, prec)

    def _validate_table(self):
        r = self.r
        tab = self.char_table
        if len(tab) != r or any(len(row) != r for row in tab):
            raise ValidationError("character table must be %dx%d" % (r, r))
        if any(v not in (1, -1) for row in tab for v in row):
            raise ValidationError("character values must be +1 or -1")
        for i in range(r):
            for j in range(r):
                dot = sum(tab[i][k] * tab[j][k] for k in range(r))
                if dot != (r if i == j else 0):
                    raise ValidationError("character table rows not orthogonal")

    def char_value(self, i, g):
        return self.char_table[i][self.elems.index(tuple(g))]


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
        """Every coefficient times `scalar` (a tensor-side reference)."""
        return PlecticTensor(self.r, self.dim,
                             [(c * scalar, f) for c, f in self.terms])

    def coords(self):
        """Expanded coordinates: multi-index -> scalar."""
        out = {}
        for coeff, factors in self.terms:
            for idx in itertools.product(range(self.dim), repeat=self.r):
                c = coeff
                dead = False
                for k, i in enumerate(idx):
                    e = factors[k][i]
                    if e.is_zero():
                        dead = True
                        break
                    c = c * e
                if dead:
                    continue
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
    """diag(a, -a) on point-completion coordinates (a tensor-side reference)."""
    def s(v):
        return (v[0].scale_int(a), v[1].scale_int(-a))
    return s


def projector(x, sign, a, sigma):
    """(1 +/- a*sigma) applied to every tensor factor: the reference that
    `minus_projection` after the norm is tested against."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    mult = a if sign == "+" else -a

    def fn(v):
        return tuple(c + s.scale_int(mult) for c, s in zip(v, sigma(v)))

    return PlecticTensor(x.r, x.dim, [(c, tuple(fn(v) for v in f))
                                      for c, f in x.terms])


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
    """Collapse the r-fold tensor product into Sym^r of the local module."""
    if module.rank != x.dim:
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
    return SymTensor(n.module, r, coeffs)


# -- invariants ---------------------------------------------------------------
# In the pinned bases an invariant is c * (u0 x ... x u0) with its whole
# coefficient at the identity of the finite quotient: the committed scalar
# c = Q_S, and the number r of factors.

def phi_minus(c, r, points):
    """Image of the invariant c under the tensor of parametrizations: the
    pure tensor with every factor the minus point (0, 2*b0), scaled by c."""
    factor = (points.units.zero_scalar(), points.units.minus_scale)
    return PlecticTensor.pure(c, (factor,) * r)


def theta(c, r, shape):
    """The group-algebra element c*t_1...t_r."""
    if shape.s < r:
        raise ShapeMismatch("group shape needs free rank >= r")
    e = tuple(1 if i < r else 0 for i in range(shape.s))
    return GroupAlgebraElem.monomial(shape, None, e, c)


def drec(c, r, shape):
    """Reciprocity image of the invariant in I^r/I^{r+1}."""
    return theta(c, r, shape).leading_term(r)


def gz_leading_term(c, r, shape):
    """The forced degree-r leading term 2^{-r} * drec(c)^dual."""
    half_r = PadicScalar.from_fraction(Fraction(1, 2 ** r), shape.p, shape.prec)
    return drec(c, r, shape).dual().scale(half_r)


# -- verdicts -----------------------------------------------------------------

def sign_check(config, c, chi_values=None, declared_ratio=None):
    """Consistency of a nonzero invariant with the sign constraints.

    For the trivial character the relation collapses to
    (-1)^r = eps * eps_S; for a nontrivial character with a declared
    ratio Q^{chi^-1}/Q^chi, some group element must explain the ratio.
    """
    if c.is_zero():
        return {"verdict": "vacuous", "target": None}
    target = config.eps * config.eps_s * ((-1) ** config.r)
    if chi_values is None:
        if target != 1:
            raise InconsistentSigns(
                "nonzero invariant with eps*eps_S*(-1)^r = %d" % target)
        return {"verdict": "consistent", "target": target}
    if declared_ratio is None:
        raise ValidationError("nontrivial character needs a declared ratio")
    for g, value in chi_values.items():
        if value * target == declared_ratio:
            return {"verdict": "consistent", "target": target, "witness": g}
    raise InconsistentSigns("no group element explains the declared ratio")


def minus_coordinates(family, units):
    """The per-character invariant coordinates y_eta / (k_eta * b0)."""
    out = []
    b0 = units.minus_scale  # 2*b0; the (1-sigma) projection doubles log_b
    for u, k in family:
        c = units.complete(u)
        coord = (c.log_b + c.log_b) / b0  # (1-sigma) then generator basis
        coord = coord * PadicScalar.from_fraction(Fraction(1) / k, units.p, units.prec)
        out.append(coord)
    return out


def factorization_check(family, c_chi, c_s, units, floor=30):
    """Verify N(Q_S)^2 = C_chi * prod Q_eta^2 and its square root.

    Returns margins and the extracted square root; raises IdentityFails
    when a coefficient diverges before the floor.
    """
    r = len(family)
    module = FreeModule(["u0"])
    coords = minus_coordinates(family, units)
    n_qs = SymTensor(module, r, {(r,): c_s}) if not c_s.is_zero() \
        else SymTensor.zero(module, r)
    prod = SymTensor(module, 1, {(1,): coords[0]})
    for c in coords[1:]:
        prod = prod * SymTensor(module, 1, {(1,): c})
    c_chi_p = PadicScalar.from_fraction(c_chi, units.p, units.prec)
    sq_margin = (n_qs * n_qs).agreement((prod * prod).scale(c_chi_p))
    if sq_margin < floor:
        raise IdentityFails("square identity margin %s < %d" % (sq_margin, floor))
    root = sqrt_ratio(n_qs, prod, floor)
    lin_margin = n_qs.agreement(prod.scale(root))
    root_sq_margin = (root * root).agreement(c_chi_p)
    if root_sq_margin < floor:
        raise IdentityFails("extracted root does not square to the constant")
    nonzero = all(not c.is_zero() for c in coords)
    if (not n_qs.is_zero()) != nonzero:
        raise IdentityFails("nonvanishing equivalence violated")
    return {
        "square_margin": sq_margin,
        "linear_margin": lin_margin,
        "root": root,
        "root_square_margin": root_sq_margin,
        "c_chi_is_padic_square": is_square(c_chi_p),
    }


def algebraicity_check(family, config, c_s, units, points, floor=25):
    """The full determinant pipeline against the scenario's plectic point."""
    r = config.r
    vectors = [points.complete(u) for u, _ in family]
    entries = []
    for i in range(r):
        row = []
        v = vectors[i]
        for j in range(r):
            s = config.char_value(i, config.tau[j])
            row.append((v.x.scale_int(s), v.y.scale_int(s)))
        entries.append(row)
    # step (ii): the norm of the determinant is C_G times the point product
    c_g = int_det([[config.char_value(i, config.tau[j]) for j in range(r)]
                   for i in range(r)])
    if c_g == 0:
        raise CharacterTableDegenerate("twist matrix is singular")
    module = FreeModule(["x", "y"])
    n_w = norm_map(det_map(entries), module)
    prod = linear_form(module, [vectors[0].x, vectors[0].y])
    for v in vectors[1:]:
        prod = prod * linear_form(module, [v.x, v.y])
    step2_margin = n_w.agreement(prod.scale(
        PadicScalar.from_int(c_g, config.p, INF)))
    if step2_margin < floor:
        raise IdentityFails("norm-of-determinant margin %s < %d"
                            % (step2_margin, floor))
    # step (iii): compare the rescaled minus projection of the norm with the
    # norm of the plectic point
    k_prod = Fraction(1)
    for _, k in family:
        k_prod *= k
    coords = minus_coordinates(family, units)
    prod_q = coords[0]
    for c in coords[1:]:
        prod_q = prod_q * c
    root = c_s / prod_q  # sqrt(C_chi) recovered from the committed invariant
    scale = root * PadicScalar.from_fraction(Fraction(1, c_g) / k_prod,
                                             config.p, config.prec)
    lhs = minus_projection(n_w).scale(scale)
    rhs = norm_map(phi_minus(c_s, r, points), module)
    step3_margin = lhs.agreement(rhs)
    if step3_margin < floor:
        raise IdentityFails("plectic-point margin %s < %d" % (step3_margin, floor))
    return {
        "c_g": c_g,
        "step2_margin": step2_margin,
        "step3_margin": step3_margin,
    }
