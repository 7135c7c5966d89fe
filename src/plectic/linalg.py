"""Exact-as-certified linear algebra over the p-adic scalars.

Gaussian elimination with minimal-valuation pivoting: dividing by the
entry of smallest valuation loses no relative precision, so a pivot that
is nonzero to working precision yields an honest rank certificate, and
the signed product of the pivots an honest determinant.  The entries may
be scalars of Q_p or of Q_p(w).
"""

from .padic import PadicScalar, QuadExtScalar


def eliminate(rows):
    """Row-reduce a matrix of p-adic entries in place (on a copy).

    Returns (echelon rows, pivot column indices, sign of the row swaps).
    """
    rows = [list(r) for r in rows]
    sign = 1
    if not rows:
        return rows, [], sign
    ncols = len(rows[0])
    pivots = []
    top = 0
    for col in range(ncols):
        best = None
        for i in range(top, len(rows)):
            e = rows[i][col]
            if e.is_zero():
                continue
            if best is None or e.valuation < rows[best][col].valuation:
                best = i
        if best is None:
            continue
        if best != top:
            rows[top], rows[best] = rows[best], rows[top]
            sign = -sign
        pivot = rows[top][col]
        for i in range(top + 1, len(rows)):
            e = rows[i][col]
            if e.is_zero():
                continue
            factor = e / pivot
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
        top += 1
        if top == len(rows):
            break
    return rows, pivots, sign


def det(rows):
    """Determinant of a nonempty square matrix, as certified as its entries.

    The signed product of the pivots.  If column k is the first without
    one, the reduced matrix is exactly block triangular with k pivots; the
    determinant is zero to their valuations plus, per column of the other
    block, its least valuation: a bound on every term of a Leibniz sum.
    """
    echelon, pivots, sign = eliminate(rows)
    e = echelon[0][0]
    k = next(i for i, col in enumerate(pivots + [None]) if col != i)
    if k < len(echelon):
        # the k pivots alone, then the columns of the block below them
        cols = [[echelon[i][i]] for i in range(k)] + \
            list(zip(*(row[k:] for row in echelon[k:])))
        zero = PadicScalar.zero(e.p, sum(
            min(min(x.valuation, x.prec) for x in col) for col in cols))
        return zero if isinstance(e, PadicScalar) else QuadExtScalar.from_base(zero)
    for i in range(1, len(echelon)):
        e = e * echelon[i][i]
    return e if sign > 0 else -e


def rank(rows):
    """Number of pivots certified nonzero at working precision."""
    _, pivots, _ = eliminate(rows)
    return len(pivots)
