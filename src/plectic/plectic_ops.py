"""The plectic identities on r-fold products of completed local modules.

This is the toolkit's identity layer: the image of an invariant (the
committed scalar Q_S) under the reciprocity map and its leading term, and
the sign verdict and the compared values of the factorization and
algebraicity identities, scalar arithmetic over Q_p and Q_p(w).  The
tensor-side references they are tested against live in the test suite.
"""

import itertools
import math
from fractions import Fraction

from .errors import ShapeMismatch
from .grpalg import GroupAlgebraElem, GroupShape
from .padic import PadicScalar, is_square


# -- characters of (Z/2)^t ----------------------------------------------------

def character_table(t):
    """chi_i(g) = (-1)^(i.g) on (Z/2)^t: rows are the characters and columns
    the twists, both indexed by the group elements in lexicographic order."""
    elems = list(itertools.product((0, 1), repeat=t))
    return [[(-1) ** sum(a * b for a, b in zip(i, g)) for g in elems]
            for i in elems]


def char_table_det(t):
    """C_G, the determinant of the character table H_r of (Z/2)^t, r = 2^t:
    H_2r = [[H_r, H_r], [H_r, -H_r]] (Sylvester), so det H_2r =
    (-2)^r det(H_r)^2 from det H_1 = 1, and C_G = (-2)^(t 2^(t-1))."""
    return (-2) ** (t * 2 ** t // 2)


def int_det(rows):
    """The exact determinant of a square integer matrix: the product of the
    pivots of elimination over the rationals, signed by the row swaps."""
    rows = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for k in range(len(rows)):
        i = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if i is None:
            return 0
        rows[k], rows[i] = rows[i], rows[k]
        out *= rows[k][k] if i == k else -rows[k][k]
        for row in rows[k + 1:]:
            f = row[k] / rows[k][k]
            row[k:] = [a - f * b for a, b in zip(row[k:], rows[k][k:])]
    return out


def tower_shape(t, p, prec):
    """The suites' group shape at r = 2^t: Q = (Z/2)^max(t, 1), s = r free
    variables and a truncation D = 2r + 2 above the degree-r pieces."""
    return GroupShape((2,) * max(t, 1), 2 ** t, 2 ** (t + 1) + 2, p, prec)


# -- invariants ---------------------------------------------------------------
# An invariant is the committed scalar c = Q_S, with its number r of factors.

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

def sign_check(eps, a, r, c):
    """Consistency of a nonzero invariant c with the global sign eps and the
    reduction sign a: for the trivial character the relation collapses to
    (-1)^r = eps * eps_S, eps_S = (-a)^r, that is to
    eps * eps_S * (-1)^r = eps * a^r = 1.
    Returns the named check "consistency", as `factorization_check` does."""
    if c.is_zero():
        return {"consistency": (True, "vacuous")}
    target = eps * a ** r
    if target != 1:
        return {"consistency": (False, "inconsistent: nonzero invariant "
                                "with eps*eps_S*(-1)^r = %d" % target)}
    return {"consistency": (True, "consistent")}


def minus_coordinates(family, units):
    """The invariant coordinates y / (k * b0) of the pairs (x + y*w, k)."""
    out = []
    b0 = units.minus_scale  # 2*b0; the (1-sigma) projection doubles log_b
    for point, k in family:
        coord = (point.b + point.b) / b0  # (1-sigma) then generator basis
        coord = coord * PadicScalar.from_fraction(Fraction(1) / k, units.p, units.prec)
        out.append(coord)
    return out


def _root(family, c_s, units):
    """prod Q_eta (a left fold) and root = Q_S / prod, None if both vanish."""
    coords = minus_coordinates(family, units)
    prod = math.prod(coords[1:], start=coords[0])
    if c_s.is_zero() and prod.is_zero():
        return prod, None
    return prod, c_s / prod


def _vacuous(c_s, prod):
    """Q_S = root * prod for any root, to the digits both vanish to."""
    return [(c_s, prod)], ("vacuous: Q_S and prod Q_eta vanish to %d digits"
                           % c_s.agreement(prod))


def factorization_check(family, c_chi, c_s, units):
    """N(Q_S)^2 = C_chi * prod Q_eta^2 and its square root root = Q_S / prod,
    scalars on the rank-one minus line, as named checks: name -> (verdict,
    note), a verdict being (lhs, rhs) pairs or an exact predicate.

    If Q_S = prod * root to k digits, the squares agree to k digits too, so
    no squaring test runs.  The report decides pass or fail; a failed
    nonvanishing equivalence Q_S = 0 iff prod = 0 is the one check "identity".
    """
    prod, root = _root(family, c_s, units)
    if c_s.is_zero() != prod.is_zero():
        return {"identity": (False, "nonvanishing equivalence violated")}
    c_chi_p = PadicScalar.from_fraction(c_chi, units.p, units.prec)
    square = is_square(c_chi_p)
    return {
        "square": ([(c_s * c_s, prod * prod * c_chi_p)], ""),
        "sqrt": _vacuous(c_s, prod) if root is None else
        ([(c_s, prod * root), (root * root, c_chi_p)], ""),
        "c_chi_square": (square, "square in Z_p" if square
                         else "not a square in Z_p"),
    }


def algebraicity_check(family, t, c_s, units):
    """Steps 2 and 3 of the algebraicity theorem on the family's points.

    C_G is the closed form `char_table_det(t)`.  `char_det` reads the table
    H: |det H| = r^{r/2}, equality in Hadamard's bound, holds for a +-1
    matrix iff H H^T = r I.

    Step 2: N(det W) = C_G * prod L(v_i), W_ij = chi_i(tau_j) * L(v_i) and
    L(v) = x*v_x + y*v_y for a point v = v_x + v_y*w.  W is H with row i
    scaled by L(v_i), so by multilinearity det W = det H * prod L(v_i) for
    any points: `norm_det` checks det H = C_G, exactly.  Step 3:
    1 - a*sigma = diag(0, 2) keeps 2^r times the y^r coefficient, the
    y-column determinant C_G * prod b_i for v_i = a_i + b_i*w; divided by
    C_G * prod k and times root = Q_S / prod Q_eta, it is the plectic
    point Q_S * (2*b0)^r.  When Q_S and prod Q_eta vanish it is vacuous.
    Returns the named checks, as `factorization_check` does.
    """
    r, p = 2 ** t, units.p
    chi = character_table(t)
    c_g = char_table_det(t)
    prod, root = _root(family, c_s, units)
    if root is None:
        step3 = _vacuous(c_s, prod)
    else:
        k_prod = math.prod((k for _, k in family), start=Fraction(1))
        b_prod = math.prod((v.b for v, _ in family[1:]), start=family[0][0].b)
        lhs = b_prod.scale_int(2 ** r) * root * PadicScalar.from_fraction(
            1 / k_prod, p, units.prec)
        step3 = [(lhs, c_s * units.minus_scale ** r)], ""
    det_h = int_det(chi)
    return {"char_det": (abs(det_h) == r ** (r // 2), "C_G=%d" % c_g),
            "norm_det": (det_h == c_g, "det W = det H * prod L(v_i) "
                         "by multilinearity; checks det H = C_G"),
            "plectic_point": step3}
