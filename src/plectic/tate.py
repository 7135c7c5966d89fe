"""Tate curves E_q over Q_p and the uniformization E^x -> E_q(E_p).

The curve is y^2 + xy = x^3 + a4*x + a6 with a4 = -5 s_3 and
a6 = -(5 s_3 + 7 s_5)/12 in the divisor sums s_k = sum_n sigma_k(n) q^n.
Points over the quadratic extension come from Jacobi's theta series
theta(u) = sum_{n in Z} (-1)^n q^(n(n-1)/2) u^n on the fundamental annulus
v(q) > v(u) >= 0, which needs about sqrt(2N/v(q)) terms a side at N digits.
Each value keeps the precision that summing the classical Lambert series
in L_n = q^n/(1 - q^n) on intervals gives it; see `_power_sums` and
`TateCurve.phi`.
"""

from .errors import DivisionByZero, NotMultiplicativeReduction, PrecisionExhausted
from .padic import (INF, _POW, PadicScalar, QuadExtScalar, _dot, _int_valuation, _inverse,
                    _qmul, _quad, _term_prec, smallest_nonsquare)


def _power_sums(q, ks):
    """[s_k(q) for k in ks], s_k = sum_n sigma_k(n) q^n over n v(q) <= prec(q).

    Precision rule: on intervals the Lambert sum s_k = sum n^k L_n over the
    same n has the precision of q, the precision of L_1, and it agrees with
    the divisor sum modulo q^(count + 1), past prec(q).  So s_k is the
    divisor sum on the integer representative of q modulo p^prec(q), by
    Horner's rule after one sieve of the sigma_k."""
    count = int(q.prec // q.v)
    sigmas = [[0] * (count + 1) for _ in ks]
    for d in range(1, count + 1):
        for k, sigma in zip(ks, sigmas):
            dk = d ** k
            for n in range(d, count + 1, d):
                sigma[n] += dk
    p, prec = q.p, q.prec
    mod, base = _POW[p, prec], q.unit * _POW[p, q.v]
    sums = []
    for sigma in sigmas:
        acc = 0
        for s in reversed(sigma):  # the constant sigma[0] = 0 ends the rule
            acc = (acc * base + s) % mod
        sums.append(PadicScalar(p, 0, acc, prec))
    return sums


def tate_coefficients(q):
    """(a4, a6) of the Tate curve with period q."""
    if q.is_zero() or q.v < 1:
        raise NotMultiplicativeReduction("Tate period needs valuation >= 1")
    s3, s5 = _power_sums(q, (3, 5))
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
        self.a4, self.a6 = tate_coefficients(q)
        self._s1, = _power_sums(q, (1,))
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
        """The uniformization map; q^Z maps to the origin.  As Lambert series
        in L_m = q^m/(1 - q^m):
            X = u/(1-u)^2 + sum_m m (u^m + u^-m) L_m - 2 s_1
            Y = u^2/(1-u)^3 + sum_m (C(m,2) u^m - C(m+1,2) u^-m) L_m + s_1
        and by Jacobi's triple product, with D = u d/du and
        theta(u) = sum_{n in Z} (-1)^n q^(n(n-1)/2) u^n
                 = (1 - u) prod_{n>=1} (1 - q^n)(1 - q^n u)(1 - q^n/u),
            X = -D^2 log theta - 2 s_1,   Y = (-D^3 log theta - X)/2.

        Precision rule (that of the whole Lambert sums on intervals): the
        m-th term has precision at least
            B_m = m v(q) + min(P(u), P(u^-1) - (m-1) v(u), prec(q) - v(q) - m v(u))
        on intervals, P the least component precision, a bound that grows
        by v(q) - v(u) >= 1 a term.  Each coordinate component has the least
        precision of its closed-form part and of its terms below `first`,
        the first m with B_m at least the largest finite precision of the
        closed-form parts; the later terms cannot lower it
        (`_head_precisions`).  So the sum, all of whose terms are right to
        that precision for every representative, is phi(r) to that
        precision for the integer representatives r of u and of q, which
        the theta series gives (`_theta_xy`).  A component may be finer
        than P(u), so the terms past prec(u) / (v(q) - v(u)) can still
        reach it.  Only precisions of the closed-form parts u/(1-u)^2 and
        u^2/(1-u)^3 are read, so they come from the rules of `inverse` and
        `_dot` (`_quotient_precisions`): d = 1 - u, d^2, d^3 and u^2 are
        formed on intervals, whose component valuations those rules read,
        and no quotient or inverse is formed.

        The guard.  The other factors of the product are units on the
        annulus, so e = v(theta(r)) = v(1 - r): the depth of u near 1, and 0
        when v(u) > 0.  Let the integers T_j be D^j theta(r) mod p^K
        (j = 0..3), each exact there: the terms of valuation >= K are
        dropped, and u^-n enters as (q/r)^n with q^(n(n-1)/2), since
        q^(n(n+1)/2) u^-n = q^(n(n-1)/2) (q/u)^n and v(q/u) >= 1 even when
        v(u) > 0, with 1/r inverted exactly mod p^K.  Then
            X + 2 s_1 = -N_2 / T_0^2,   N_2 = T_2 T_0 - T_1^2,
            -D^3 log theta = -N_3 / T_0^3,
            N_3 = T_3 T_0^2 - 3 T_0 T_1 T_2 + 2 T_1^3,
        with N_2 and N_3 integral.  An error in the T_j that is a multiple
        of p^K moves N_2 and N_3 by multiples of p^K and T_0^j by multiples
        of p^(K + (j-1)e), since v(T_0) = e; so it moves N_2 / T_0^2 by a
        multiple of p^(K + e - 4e) and N_3 / T_0^3 by one of p^(K + 2e - 6e).
        So X is right mod p^(K - 3e) and Y mod p^(K - 4e),
        and K = max(T_X + 3e, T_Y + 4e, e + 1), T_X and T_Y the largest
        finite precisions of the X and Y components, is enough; e + 1 lets
        T_0 show its valuation.  A component of infinite precision is an
        exact zero (u and q in Q_p)."""
        u = self.reduce_to_annulus(u)
        d = QuadExtScalar.from_base(PadicScalar.one(self.p, INF)) - u
        if u.valuation == 0 and d.is_zero():
            return CurvePoint.infinity()
        depth = d.valuation if u.valuation == 0 else 0  # e = v(1 - u) when v(u) = 0
        dd = d * d
        xa, xb = _quotient_precisions(u, dd)
        ya, yb = _quotient_precisions(u * u, dd * d)
        s1 = self._s1.prec  # X_a - 2 s_1 and Y_a + s_1 have the lesser precision
        precs = self._head_precisions(u, [min(xa, s1), xb, min(ya, s1), yb])
        xa, xb, ya, yb = self._theta_xy(u, depth, precs)
        return CurvePoint(_quad(xa, xb), _quad(ya, yb))

    def _head_precisions(self, u, precs):
        """The precisions of phi(u)'s components (X_a, X_b, Y_a, Y_b) by the
        rule in `phi`, from those of the closed-form parts: the terms below
        `first` on intervals, as `_dot` would take them, with
        v(L_m) = m v(q) and prec(L_m) = m v(q) + prec(q) - v(q), the
        interval L_m's own, so that no L_m is formed.  prec(u^-1) is that
        of the quotient 1/u, which raises as `inverse` would; u^-1 itself
        is formed only if some term is below `first`."""
        p, vq = self.p, self.q.v
        vu = u.valuation
        one = PadicScalar.one(p, INF)
        inv_prec = min(_quotient_precisions(QuadExtScalar.from_base(one), u))
        top = max(n for n in precs if n != INF)
        rel_q = self.q.prec - vq
        m = 1
        while m * vq + min(u.prec, inv_prec - (m - 1) * vu, rel_q - m * vu) < top:
            if m == 1:
                u_inv = u.inverse()
                up, um = u, u_inv
            vl = m * vq
            pl = vl + rel_q
            c2, c3 = m * (m - 1) // 2, -m * (m + 1) // 2
            for i, s, t in ((0, up.a, um.a), (1, up.b, um.b)):
                for j, z, k in ((i, s + t, m),
                                (i + 2, _dot(p, ((s, one, c2), (t, one, c3))), 1)):
                    # the precision of z * L_m * k in `_dot`
                    n = _term_prec(z.v, z.prec, vl, pl) + _int_valuation(k, p)
                    if n < precs[j]:
                        precs[j] = n
            up, um, m = up * u, um * u_inv, m + 1
        return precs

    def _theta_xy(self, u, e, precs):
        """(X_a, X_b, Y_a, Y_b) of phi(u) at `precs` from the theta series,
        on integer pairs modulo p^K with the guard K of `phi`; e = v(1 - u)."""
        p, q, c = self.p, self.q, smallest_nonsquare(self.p)
        tx = max(n for n in precs[:2] if n != INF)
        ty = max(n for n in precs[2:] if n != INF)
        k = int(max(tx + 3 * e, ty + 4 * e, e + 1))
        mod = _POW[p, k]
        vu = u.valuation
        # u = p^v(u) (a + b w), and q/u = q p^-v(u) (a - b w) / (a^2 - c b^2)
        a, b = (0 if s.v == INF else s.unit * _POW[p, s.v - vu] for s in (u.a, u.b))
        pv, ni = _POW[p, vu], _inverse(a * a - c * b * b, p, k)
        qu, q_rep = q.unit * _POW[p, q.v - vu] * ni, q.unit * _POW[p, q.v]
        plus = _half_theta((a * pv, b * pv), vu, q_rep, q.v, c, k, mod)
        minus = _half_theta((qu * a % mod, -qu * b % mod), q.v - vu, q_rep, q.v, c, k, mod)
        # T_j = sum over n >= 0 and over n = -1, -2, ... of n^j (-1)^n q^(n(n-1)/2) u^n
        t0, t1, t2, t3 = ((s[0] + (-1) ** j * t[0], s[1] + (-1) ** j * t[1])
                          for j, (s, t) in enumerate(zip(plus, minus)))
        scale = _POW[p, e]
        # T_0 / p^e, a unit; the n = 0 term is on both sides
        a, b = (t0[0] - 1) // scale, t0[1] // scale
        ni = _inverse(a * a - c * b * b, p, k)
        ti = (a * ni % mod, -b * ni % mod)
        # M_j = p^e T_j / T_0: X + 2 s_1 = (M_1^2 - p^e M_2) / p^(2e) and
        # D^3 log theta = (p^(2e) M_3 - 3 p^e M_1 M_2 + 2 M_1^3) / p^(3e)
        m1, m2, m3 = (_qmul(t, ti, c, mod) for t in (t1, t2, t3))
        m11, m12 = _qmul(m1, m1, c, mod), _qmul(m1, m2, c, mod)
        m111 = _qmul(m11, m1, c, mod)
        xs = [s - scale * t for s, t in zip(m11, m2)]  # (X + 2 s_1) p^(2e)
        half = (mod + 1) // 2
        # (Y - s_1) p^(3e) = -(D^3 log theta + X + 2 s_1) p^(3e) / 2
        ys = [-(scale * scale * s - 3 * scale * t + 2 * d + scale * x) * half
              for s, t, d, x in zip(m3, m12, m111, xs)]
        s1 = 0 if self._s1.v == INF else self._s1.unit * _POW[p, self._s1.v]
        values = (xs[0] - 2 * s1 * scale * scale, xs[1], ys[0] + s1 * scale ** 3, ys[1])
        return [PadicScalar.zero(p) if n == INF else PadicScalar(p, -v, a, n)
                for a, n, v in zip(values, precs, (2 * e, 2 * e, 3 * e, 3 * e))]

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


def _half_theta(z, vz, q, vq, c, k, mod):
    """[sum_{n>=0} n^j (-1)^n q^(n(n-1)/2) z^n for j = 0..3] modulo `mod`
    = p^k, for an integer pair z of valuation >= vz and an integer q of
    valuation vq: term n has valuation >= n(n-1)/2 vq + n vz, a bound that
    grows from n = 1 on, so the sums stop at the first term past p^k."""
    ga, gb = z  # q^n z
    ta, tb = 1, 0  # (-1)^n q^(n(n-1)/2) z^n
    a0 = b0 = a1 = b1 = a2 = b2 = a3 = b3 = n = val = 0
    while val < k:
        a0 += ta
        b0 += tb
        ta, tb, ua, ub = n * ta, n * tb, ta, tb
        a1 += ta
        b1 += tb
        ta, tb = n * ta, n * tb
        a2 += ta
        b2 += tb
        a3 += n * ta
        b3 += n * tb
        ta, tb = -(ua * ga + c * ub * gb) % mod, -(ua * gb + ub * ga) % mod
        ga, gb = ga * q % mod, gb * q % mod
        val += n * vq + vz
        n += 1
    return (a0, b0), (a1, b1), (a2, b2), (a3, b3)


def _quotient_precisions(w, z):
    """The precisions of the components of w / z = w * z.inverse() by the
    precision rules of `norm`, `/` and `_dot`, raising as they do, with no
    inverse and no product formed: the norm a^2 - c b^2 of z has valuation
    2 min(v(a), v(b)), c being a nonsquare unit mod p, and the precision
    `_dot` gives it.  With w the exact one they are those of z.inverse()."""
    a, b = z.a, z.b
    if a.v == INF and b.v == INF:
        raise DivisionByZero("inverse of zero")
    nv = 2 * min(a.v, b.v)
    n = min(_term_prec(a.v, a.prec, a.v, a.prec), _term_prec(b.v, b.prec, b.v, b.prec))
    if nv >= n:
        raise DivisionByZero("divisor is zero to working precision")
    shapes = []  # (v, prec) of the components of z.inverse()
    for s in (a, b):
        if s.v == INF:
            shapes.append((INF, s.prec - nv))
        elif s.prec == INF and n == INF:
            raise ValueError("cannot divide two exact values; truncate first")
        else:
            shapes.append((s.v - nv, s.v - nv + min(s.prec - s.v, n - nv)))
    (av, ap), (bv, bp) = shapes
    a, b = w.a, w.b
    return (min(_term_prec(a.v, a.prec, av, ap), _term_prec(b.v, b.prec, bv, bp)),
            min(_term_prec(a.v, a.prec, bv, bp), _term_prec(b.v, b.prec, av, ap)))
