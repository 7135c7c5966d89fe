"""Tate curves E_q over Q_p and the uniformization E^x -> E_q(E_p).

The curve is y^2 + xy = x^3 + a4*x + a6 with a4, a6 given by the classical
q-series; points over the quadratic extension come from the bi-periodic
X, Y series evaluated on the fundamental annulus v(q) > v(u) >= 0.
"""

from .errors import NotMultiplicativeReduction, PrecisionExhausted
from .padic import INF, _POW, PadicScalar, QuadExtScalar, _dot, _quad, smallest_nonsquare


def _lambert(q, terms, count):
    """Extend `terms` in place to L_n = q^n / (1 - q^n) for n = 1..count."""
    if len(terms) < count:
        one = PadicScalar.one(q.p, INF)
        qn = q ** (len(terms) + 1)
        while len(terms) < count:
            terms.append(qn / (one - qn))
            qn = qn * q
    return terms


def _power_sums(q, terms, ks):
    """[s_k(q) for k in ks], s_k = sum_{n v(q) <= prec(q)} n^k L_n."""
    count = int(q.prec // q.v)
    lam = _lambert(q, terms, count)[:count]
    one = PadicScalar.one(q.p, INF)
    # L_1 has the precision of q, the least of the sums' terms
    return [_dot(q.p, [(l, one, n ** k) for n, l in enumerate(lam, 1)]) for k in ks]


def tate_coefficients(q, lambert=None):
    """(a4, a6) of the Tate curve with period q; `lambert` caches the L_n."""
    if q.is_zero() or q.v < 1:
        raise NotMultiplicativeReduction("Tate period needs valuation >= 1")
    s3, s5 = _power_sums(q, [] if lambert is None else lambert, (3, 5))
    a4 = -(s3.scale_int(5))
    a6 = -(s3.scale_int(5) + s5.scale_int(7)) / PadicScalar.from_int(12, q.p, INF)
    return a4, a6


def _j_c4_c6(q):
    a4, a6 = tate_coefficients(q)
    one = PadicScalar.one(q.p, INF)
    c4 = one - a4.scale_int(48)
    c6 = -one + a4.scale_int(72) - a6.scale_int(864)
    delta = (c4 ** 3 - c6 ** 2) / PadicScalar.from_int(1728, q.p, INF)
    return c4 ** 3 / delta, c4, c6


def j_invariant(q):
    """j(q) = c4^3 / Delta computed from the Tate coefficients."""
    return _j_c4_c6(q)[0]


def tate_period_from_j(j):
    """Invert the j-series by Newton's method on j(q) - j, with the
    derivative q dj/dq = (c6/c4) j; needs v(j) < 0.

    With v = -v(j), q0 = 1/j agrees with the root to 2v digits, and a step
    from q right to k > v digits is right to 2k - v as far as q is read
    (j(q) - 1/q has integer coefficients).  So the steps read q at doubling
    precisions n, each the least with 2n - v at least the next, and only
    the last one at N = prec(1/j)."""
    if j.is_zero() or j.v >= 0:
        raise NotMultiplicativeReduction("multiplicative reduction needs v(j) < 0")
    q = PadicScalar.one(j.p, INF) / j
    precs = [q.prec]
    while (precs[-1] + q.v + 1) // 2 > 2 * q.v:
        precs.append((precs[-1] + q.v + 1) // 2)
    for n in reversed(precs):
        q = PadicScalar(q.p, q.v, q.unit, n)
        jq, c4, c6 = _j_c4_c6(q)
        q = q - (jq - j) * q * c4 / (c6 * jq)
    return q


class CurvePoint:
    """A point on the Tate model, either infinity or an (x, y) pair."""

    __slots__ = ("x", "y")

    def __init__(self, x=None, y=None):
        self.x = x
        self.y = y

    @classmethod
    def infinity(cls):
        return cls()

    def is_infinity(self):
        return self.x is None

    def agreement(self, other):
        if self.is_infinity() or other.is_infinity():
            return INF if self.is_infinity() and other.is_infinity() else -INF
        return min(self.x.agreement(other.x), self.y.agreement(other.y))

    def __repr__(self):
        if self.is_infinity():
            return "CurvePoint(infinity)"
        return "CurvePoint(%r, %r)" % (self.x, self.y)


class TateCurve:
    """E_q with its uniformization data and chord-tangent arithmetic."""

    def __init__(self, q):
        self.q = q
        self._lambert = []  # L_n = q^n / (1 - q^n), extended on demand
        self.a4, self.a6 = tate_coefficients(q, self._lambert)
        self._s1, = _power_sums(q, self._lambert, (1,))
        self.p = q.p

    def curve_equation(self, pt):
        """The two sides (lhs, rhs) of the curve equation at pt, equal exact
        zeros at infinity; for v(x) < 0 in the chart z = x/y, w = 1/y (the
        equation divided by y^3), since the affine form loses ~3|v(x)| digits
        near the origin."""
        if pt.is_infinity():
            zero = PadicScalar.zero(self.p)
            return zero, zero
        x, y = pt.x, pt.y
        a4 = QuadExtScalar.from_base(self.a4)
        a6 = QuadExtScalar.from_base(self.a6)
        if x.valuation < 0:
            w = y.inverse()
            z = x * w
            return w + z * w, z * z * z + a4 * z * w * w + a6 * w * w * w
        return y * y + x * y, x * x * x + a4 * x + a6

    # -- uniformization ------------------------------------------------------

    def reduce_to_annulus(self, u):
        """Multiply by a power of q so that 0 <= v(u) < v(q)."""
        if u.is_zero():
            raise PrecisionExhausted("zero has no image on the curve")
        k = u.valuation // self.q.v
        if k == 0:
            return u
        qk = QuadExtScalar.from_base(self.q) ** k
        return u / qk

    def phi(self, u):
        """The uniformization map; q^Z maps to the origin.  As Lambert series:
            X = u/(1-u)^2 + sum_m m (u^m + u^-m) L_m - 2 s_1
            Y = u^2/(1-u)^3 + sum_m (C(m,2) u^m - C(m+1,2) u^-m) L_m + s_1
        The m-th term has valuation >= m (v(q) - v(u)): stop past prec(u).

        Precision rule: each coordinate component is the interval sum of
        the closed-form part and the terms, so its precision is the least
        of theirs.  On intervals, term m has precision at least
            min(min(P(u), P(u^-1) - (m-1) v(u)) + v(L_m), prec(L_m) - m v(u)),
        P the least component precision, and that bound grows with m.  The
        head (the closed-form part and the terms below the first m whose
        bound reaches `top`, the largest precision of the closed-form
        part's components) is summed on intervals and fixes each
        component's precision; the tail cannot lower it, so it is summed
        on one integer Lucas sequence in p^v(u) u and p^v(u) u^-1 modulo
        p^top (`_tail`).
        """
        u = self.reduce_to_annulus(u)
        one = PadicScalar.one(self.p, INF)
        if u.valuation == 0 and (u - QuadExtScalar.from_base(one)).is_zero():
            return CurvePoint.infinity()
        x = _x_term(u) - QuadExtScalar.from_base(self._s1 + self._s1)
        y = _y_term(u) + QuadExtScalar.from_base(self._s1)
        vu = u.valuation
        count = int(u.prec // (self.q.v - vu))
        u_inv = u.inverse()
        up, um = u, u_inv
        sums = xa, xb, ya, yb = [[(s, one, 1)] for s in (x.a, x.b, y.a, y.b)]
        top = max(s.prec for s in (x.a, x.b, y.a, y.b))
        lam = _lambert(self.q, self._lambert, count)[:count]
        for m, l in enumerate(lam, 1):
            if min(min(u.prec, u_inv.prec - (m - 1) * vu) + l.v,
                   l.prec - m * vu) >= top:
                tail = _tail(u, u_inv, lam, m, top)
                for terms, t in zip(sums, tail):
                    terms.append((one, one, t))
                break
            c2, c3 = m * (m - 1) // 2, -m * (m + 1) // 2
            for xs, ys, s, t in ((xa, ya, up.a, um.a), (xb, yb, up.b, um.b)):
                xs.append((s + t, l, m))
                ys.append((_dot(self.p, ((s, one, c2), (t, one, c3))), l, 1))
            up, um = up * u, um * u_inv
        xa, xb, ya, yb = (_dot(self.p, terms) for terms in sums)
        return CurvePoint(_quad(xa, xb), _quad(ya, yb))

    # -- group law -------------------------------------------------------------

    def negate(self, pt):
        if pt.is_infinity():
            return pt
        return CurvePoint(pt.x, -pt.y - pt.x)

    def add(self, P, Q):
        """Chord-tangent law on y^2 + xy = x^3 + a4 x + a6."""
        if P.is_infinity():
            return Q
        if Q.is_infinity():
            return P
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        a4 = QuadExtScalar.from_base(self.a4)
        one = QuadExtScalar.from_parts(1, 0, self.p, INF)
        if (x1 - x2).is_zero():
            if (y1 + y2 + x2).is_zero():
                return CurvePoint.infinity()
            # tangent slope
            num = x1 * x1 * QuadExtScalar.from_parts(3, 0, self.p, INF) + a4 - y1
            den = y1 + y1 + x1
            if den.is_zero():
                raise PrecisionExhausted("tangent denominator vanishes to precision")
            lam = num / den
        else:
            lam = (y2 - y1) / (x2 - x1)
        nu = y1 - lam * x1
        x3 = lam * lam + lam - x1 - x2
        y3 = -(lam + one) * x3 - nu
        return CurvePoint(x3, y3)

    def sigma(self, pt):
        """Frobenius applied coordinate-wise (the action on E_q points)."""
        if pt.is_infinity():
            return pt
        return CurvePoint(pt.x.frobenius(), pt.y.frobenius())


def _tail(u, u_inv, lam, first, n):
    """The X and Y Lambert sums over the terms m >= first (L_m = lam[m-1]),
    as integers (X_a, X_b, Y_a, Y_b) modulo p^n.  With v = v(u), a = p^v u
    and b = p^v u^-1 on integers, term m of X is m f_m (a^m + b^m), of Y
    f_m (C(m,2) a^m - C(m+1,2) b^m), f_m = L_m p^(-mv).  Both read only
    a^m + b^m = U_(m+1) - P U_(m-1) and a^m - b^m = (a - b) U_m for the
    Lucas sequence U_0 = 0, U_1 = 1, U_(m+1) = s U_m - P U_(m-1), s = a + b,
    P = ab = p^(2v): Y = ((a - b) sum m^2 f_m U_m - X) / 2.  The product of
    the representatives differs from p^(2v) by p^(2v) (u u^-1 - 1), of
    valuation >= 3v + P(u^-1), which moves term m only past its precision
    bound in `phi`.  Term m has valuation e_m = v(L_m) - mv, so its factors
    and the U carried on to later terms are kept modulo p^(n - e_m) only."""
    p, c, v = u.p, smallest_nonsquare(u.p), u.valuation
    shift = lam[first - 1].v - first * v  # the valuation of term `first`
    if shift >= n:
        return 0, 0, 0, 0
    mod = _POW[p, n - shift]
    (a0, a1), (b0, b1) = ([s.unit * _POW[p, s.v + v] if s.v != INF else 0 for s in (z.a, z.b)]
                          for z in (u, u_inv))
    s0, s1, pv = a0 + b0, a1 + b1, _POW[p, 2 * v]
    r0 = r1 = t1 = 0  # U_(m-1) = (r0, r1) and U_m = (t0, t1)
    t0 = 1
    xa = xb = wa = wb = 0  # X and sum m^2 f_m U_m, scaled by p^-shift
    grade, f = mod, 0  # the terms below `first` only step U, at the full modulus
    for m in range(1, len(lam) + 1):
        if m >= first:
            l = lam[m - 1]
            e = l.v - m * v - shift
            if e >= n - shift:
                break
            grade = _POW[p, n - shift - e]  # the digits term m and later ones need
            f = l.unit % grade * _POW[p, e] * m
        k0, k1, q0, q1 = s0 * t0, s1 * t1, pv * r0, pv * r1  # s U_m by Karatsuba
        r0, r1, t0, t1 = t0, t1, (k0 + c * k1 - q0) % grade, \
            ((s0 + s1) * (t0 + t1) - k0 - k1 - q1) % grade
        xa += f * (t0 - q0)
        xb += f * (t1 - q1)
        wa += f * m * r0
        wb += f * m * r1
    d0, d1, half = a0 - b0, a1 - b1, (mod + 1) // 2
    ya, yb = (d0 * wa + c * d1 * wb - xa) * half, (d0 * wb + d1 * wa - xb) * half
    scale = _POW[p, shift]
    return tuple(t % mod * scale for t in (xa, xb, ya, yb))


def _x_term(w):
    one = QuadExtScalar.from_parts(1, 0, w.p, INF)
    d = one - w
    return w / (d * d)


def _y_term(w):
    one = QuadExtScalar.from_parts(1, 0, w.p, INF)
    d = one - w
    return (w * w) / (d * d * d)
