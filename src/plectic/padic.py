"""Fixed-precision arithmetic in Q_p and its unramified quadratic extension.

Elements are intervals: a nonzero scalar is p^v * unit with the unit known
modulo p^(prec - v), i.e. the value is certified modulo p^prec.  Every
operation propagates precision pessimistically (interval arithmetic), so a
reported digit is always a proven digit.
"""

import functools
import math
from fractions import Fraction

from .errors import (
    DivisionByZero,
    NotAUnit,
    PrecisionExhausted,
    ShapeMismatch,
)

INF = math.inf


def _int_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class _Powers(dict):
    """p ** k by (p, k), each computed once."""

    def __missing__(self, key):
        p, k = key
        self[key] = power = p ** int(k)
        return power


_POW = _Powers()


class PadicScalar:
    """An element of Q_p certified modulo p^prec.

    Invariant: a nonzero value has a unit prime to p, reduced modulo
    p^(prec - v) (kept as a signed integer when the value is exact), and
    prec > v; zero to precision prec has v = INF and unit 0.
    """

    __slots__ = ("p", "v", "unit", "prec")

    def __init__(self, p, v, unit, prec):
        self.p = p
        self.prec = prec
        self.v = INF
        self.unit = 0
        if v == INF or unit == 0 or prec - v <= 0:
            return  # zero to the stated precision (exact zero when prec is INF)
        if prec != INF:
            unit %= _POW[p, prec - v]
            if unit == 0:
                return
        shift = _int_valuation(unit, p)
        if shift:
            unit //= _POW[p, shift]
        self.v = v + shift
        self.unit = unit

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, p, prec=INF):
        return cls(p, INF, 0, prec)

    @classmethod
    def from_int(cls, n, p, prec):
        if n == 0:
            return cls.zero(p)
        return cls(p, 0, n, prec)

    @classmethod
    def from_fraction(cls, q, p, prec):
        q = Fraction(q)
        if q == 0:
            return cls.zero(p)
        num, den = q.numerator, q.denominator
        vd = _int_valuation(den, p)
        den //= p ** vd
        if den == 1:
            return cls(p, -vd, num, prec)
        if math.isinf(prec):
            raise ValueError("non-p-power denominator needs finite precision")
        rel = prec + vd  # enough working digits after the valuation shift
        inv = pow(den, -1, p ** (rel + 1))
        return cls(p, -vd, num * inv, prec)

    @classmethod
    def one(cls, p, prec):
        return cls(p, 0, 1, prec)

    # -- inspection -------------------------------------------------------

    def is_zero(self):
        return self.v == INF

    @property
    def valuation(self):
        return self.v

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        if prec <= self.v:  # also when self is zero
            return PadicScalar(self.p, INF, 0, prec)
        return _unit(self.p, self.v, self.unit, prec)

    # -- ring operations --------------------------------------------------
    # A result whose unit is known to be prime to p (a product or quotient
    # of units, a negation, a sum of different valuations) is built by
    # `_unit`, which only reduces it; the public constructor also strips
    # the valuation, which only a sum of equal valuations can raise.

    def __add__(self, other):
        try:
            if self.p != other.p:
                raise ValueError("mixed primes")
            n = self.prec if self.prec < other.prec else other.prec
            if self.v == INF:
                return other.truncate(n)
            if other.v == INF:
                return self.truncate(n)
            if self.v == other.v:
                return PadicScalar(self.p, self.v, self.unit + other.unit, n)
            lo, hi = (self, other) if self.v < other.v else (other, self)
            d = hi.v - lo.v
            # hi vanishes below the certified digits when d >= n - lo.v
            unit = lo.unit if d >= n - lo.v else lo.unit + hi.unit * _POW[self.p, d]
            return _unit(self.p, lo.v, unit, n)
        except AttributeError:  # an operand that is not in Q_p
            raise ShapeMismatch("mixed operands") from None

    def __neg__(self):
        if self.v == INF:
            return self
        return _unit(self.p, self.v, -self.unit, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        try:
            if self.p != other.p:
                raise ValueError("mixed primes")
            if self.v == INF or other.v == INF:
                return PadicScalar.zero(
                    self.p, _term_prec(self.v, self.prec, other.v, other.prec))
            v = self.v + other.v
            rel = min(self.prec - self.v, other.prec - other.v)
            return _unit(self.p, v, self.unit * other.unit, v + rel)
        except AttributeError:  # an operand that is not in Q_p
            raise ShapeMismatch("mixed operands") from None

    def __truediv__(self, other):
        try:
            if self.p != other.p:
                raise ValueError("mixed primes")
            if other.v == INF:
                if other.prec == INF:
                    raise DivisionByZero("division by exact zero")
                raise DivisionByZero("divisor is zero to working precision")
            if self.v == INF:
                if self.prec == INF:
                    return PadicScalar.zero(self.p)
                return PadicScalar.zero(self.p, self.prec - other.v)
            v = self.v - other.v
            rel = min(self.prec - self.v, other.prec - other.v)
            if rel == INF:
                raise ValueError("cannot divide two exact values; truncate first")
            rel = int(rel)
            return _unit(self.p, v, self.unit * _inverse(other.unit, self.p, rel), v + rel)
        except AttributeError:  # an operand that is not in Q_p
            raise ShapeMismatch("mixed operands") from None

    def __pow__(self, k):
        if k == 0:
            return PadicScalar.one(self.p, self.prec if not self.is_zero() else INF)
        if k < 0:
            return PadicScalar.one(self.p, self.prec) / self ** (-k)
        return _pow(PadicScalar.one(self.p, INF), self, k)  # exact: 1 * x == x

    def scale_int(self, n):
        """Multiply by an exact integer."""
        if n == 0:
            return PadicScalar.zero(self.p)
        k = _int_valuation(n, self.p)
        if self.v == INF:
            return PadicScalar.zero(self.p, self.prec + k)
        if k:
            n //= _POW[self.p, k]
        return _unit(self.p, self.v + k, self.unit * n, self.prec + k)

    # -- comparison -------------------------------------------------------

    def agreement(self, other):
        """Largest certified k with self = other mod p^k."""
        d = self - other
        return d.prec if d.is_zero() else d.v

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        if self.is_zero():
            return "O(%d^%s)" % (self.p, self.prec)
        n = int(min(8, self.prec - self.v))  # an exact value has unbounded digits
        digits = " ".join(str(self.unit // self.p ** i % self.p) for i in range(n))
        return "(%s...)*%d^%s mod %d^%s" % (digits, self.p, self.v, self.p, self.prec)


_new = object.__new__


def _unit(p, v, unit, prec):
    """p^v * unit certified mod p^prec, for a unit already prime to p and
    prec > v: the unit is only reduced mod p^(prec - v)."""
    x = _new(PadicScalar)
    x.p, x.v, x.prec = p, v, prec
    x.unit = unit if prec == INF else unit % _POW[p, prec - v]
    return x


def _term_prec(xv, xp, yv, yp):
    """The precision of x*y for scalars of valuations xv, yv (INF for a
    zero) and precisions xp, yp, read from those alone: the rule of `*`
    and of each term of `_dot`.  A zero to precision n lies in p^n Z_p, so
    it counts as valuation n; then a product is known to
    min(xp + yv, yp + xv), and an exact zero factor gives INF."""
    if xv == INF:
        xv = xp
    if yv == INF:
        yv = yp
    return min(xp + yv, yp + xv)


def _dot(p, terms):
    """Sum k*x*y over the terms (x, y, k), for scalars x, y over p and an
    integer k: the interval the left fold of `*`, `scale_int(k)` and `+`
    gives, with one reduction.  A term has the precision `x * y` has
    (`_term_prec`, written out here on the hot path for two nonzero
    factors), raised by v_p(k) (k = 0 is an exact zero), and the sum has
    the least of them; since every `+` returns the canonical form of the
    exact sum at the smaller precision, the fold is the exact integer sum
    reduced once and normalised."""
    n = v0 = INF
    total = 0  # the exact sum over p^v0
    for x, y, k in terms:
        if not k:
            continue
        xv, yv = x.v, y.v
        if xv == INF or yv == INF:
            t = _term_prec(xv, x.prec, yv, y.prec)
            if t == INF:
                continue  # an exact zero adds nothing and costs no digits
        else:
            v = xv + yv
            rx, ry = x.prec - xv, y.prec - yv
            t = v + (rx if rx < ry else ry)
            w = x.unit * y.unit * k
            if v < v0:
                total = w + total * _POW[p, v0 - v] if total else w
                v0 = v
            else:
                total += w if v == v0 else w * _POW[p, v - v0]
        if k % p == 0:
            t += _int_valuation(k, p)
        if t < n:
            n = t
    return PadicScalar(p, v0, total, n)


def _inverse(unit, p, k):
    """unit^-1 mod p^k, reduced to 0..p^k - 1, for an integer unit prime to
    p (of any size and sign) and k >= 1: the value pow(unit, -1, p^k) has,
    by the Newton step y <- y(2 - unit*y), which doubles the correct
    digits.  It serves `PadicScalar.__truediv__`, `plog`'s 1/(p^2 - 1) and
    the two inverses of `TateCurve._theta_xy`.  Newton is the faster from
    about 50 bits on (p = 5, Python 3.11 on a 2-vCPU VM: 3.6 vs 6.7 us at
    40 digits, 6.9 vs 36 us at 160); the built-in inverse is the faster for
    a k of a few digits (0.86 vs 0.42 us at 5), so the 1/k of `plog`'s
    coefficient table use it."""
    y, e = pow(unit, -1, p), 1
    while e < k:
        e = 2 * e if 2 * e < k else k
        y = y * (2 - unit * y) % _POW[p, e]
    return y


def _pow(out, base, k):
    """out * base^k for k >= 0 by square-and-multiply, in the order
    out = out * base, base = base * base, which fixes each interval."""
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _qmul(x, y, c, mod):
    """(a1 + b1 w)(a2 + b2 w) mod `mod` for integer pairs (a, b), w^2 = c."""
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 + c * b1 * b2) % mod, (a1 * b2 + b1 * a2) % mod


def _qpow(x, k, c, mod):
    """x^k mod `mod` for an integer pair x and k >= 0, by squaring."""
    out = (1, 0)
    while True:
        if k & 1:
            out = _qmul(out, x, c, mod)
        k >>= 1
        if not k:
            return out
        x = _qmul(x, x, c, mod)


def is_square(x):
    """Whether x is a square in Q_p, p odd.  By Hensel's lemma a nonzero x
    is one iff v(x) is even and its unit is a square mod p (Euler's
    criterion); zero is a square."""
    return x.is_zero() or (x.v % 2 == 0 and pow(x.unit, (x.p - 1) // 2, x.p) == 1)


@functools.cache
def smallest_nonsquare(p):
    """The smallest positive unit that is a quadratic nonresidue mod p."""
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return c
    raise ValueError("no nonsquare found; is p prime?")


class QuadExtScalar:
    """a + b*w in the unramified quadratic extension Q_p(w), w^2 = c with
    c = smallest_nonsquare(p): the extension is a function of p."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        if a.p != b.p:
            raise ValueError("mixed primes")
        self.a = a
        self.b = b

    @classmethod
    def from_parts(cls, a, b, p, prec):
        return cls(PadicScalar.from_int(a, p, prec),
                   PadicScalar.from_int(b, p, prec))

    @classmethod
    def from_base(cls, a):
        return cls(a, PadicScalar.zero(a.p))

    @property
    def p(self):
        return self.a.p

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    @property
    def valuation(self):
        # 1, w is an integral basis of the unramified extension, so the
        # valuation of a + b*w is the minimum of the component valuations
        return min(self.a.v, self.b.v)

    @property
    def prec(self):
        return min(self.a.prec, self.b.prec)

    # the components' own operations reject mixed primes, and one p fixes c
    def __add__(self, other):
        try:
            return _quad(self.a + other.a, self.b + other.b)
        except AttributeError:
            raise ShapeMismatch("mixed operands") from None

    def __neg__(self):
        return _quad(-self.a, -self.b)

    def __sub__(self, other):
        try:
            return _quad(self.a - other.a, self.b - other.b)
        except AttributeError:
            raise ShapeMismatch("mixed operands") from None

    def __mul__(self, other):
        try:
            p, a1, b1, a2, b2 = self.a.p, self.a, self.b, other.a, other.b
        except AttributeError:
            raise ShapeMismatch("mixed operands") from None
        if a2.p != p:
            raise ValueError("mixed primes")
        return _quad(_dot(p, ((a1, a2, 1), (b1, b2, smallest_nonsquare(p)))),
                     _dot(p, ((a1, b2, 1), (b1, a2, 1))))

    def frobenius(self):
        return _quad(self.a, -self.b)

    def norm(self):
        """z * sigma(z), an element of the base field."""
        a, b = self.a, self.b
        return _dot(a.p, ((a, a, 1), (b, b, -smallest_nonsquare(a.p))))

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n = self.norm()
        return _quad(self.a / n, -self.b / n)

    def __truediv__(self, other):
        try:
            return self * other.inverse()
        except AttributeError:
            raise ShapeMismatch("mixed operands") from None

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return _pow(QuadExtScalar.from_parts(1, 0, self.p, INF), self, k)

    def agreement(self, other):
        try:
            return min(self.a.agreement(other.a), self.b.agreement(other.b))
        except AttributeError:
            raise ShapeMismatch("mixed operands") from None

    def __eq__(self, other):
        if not isinstance(other, QuadExtScalar):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        return "(%r) + (%r)*w" % (self.a, self.b)


def _quad(a, b):
    """a + b*w from components that already share p."""
    z = _new(QuadExtScalar)
    z.a, z.b = a, b
    return z


def quad_teichmuller(u):
    """The (p^2 - 1)-st root of unity congruent to a unit u mod p, to the
    precision prec(u) of u; a component that is an exact zero stays one,
    since the root of a u in Q_p (in Q_p w) lies in Q_p (in Q_p w).  By
    Newton's step t <- t (1 - (t^m - 1)/m), m = p^2 - 1 a unit: from
    t^m = 1 + O(p^k) it gives t^m = 1 + O(p^2k), so the steps run at
    doubling precisions from u mod p, each on integer pairs."""
    if u.is_zero() or u.valuation != 0:
        raise NotAUnit("teichmuller lift needs a unit")
    if u.prec == INF:
        raise ValueError("teichmuller needs a finite precision input")
    p, n, c = u.p, int(u.prec), smallest_nonsquare(u.p)
    m = p * p - 1
    t = tuple(s.unit % p if s.v == 0 else 0 for s in (u.a, u.b))
    k = 1
    while k < n:  # the doubling of `_inverse`
        k = 2 * k if 2 * k < n else n
        mod = _POW[p, k]
        tm = _qpow(t, m, c, mod)
        d = _qmul(t, (tm[0] - 1, tm[1]), c, mod)
        inv = pow(m, -1, mod)
        t = ((t[0] - d[0] * inv) % mod, (t[1] - d[1] * inv) % mod)
    return _quad(*(PadicScalar.zero(p) if s.v == INF and s.prec == INF
                   else PadicScalar(p, 0, x, n) for s, x in zip((u.a, u.b), t)))


@functools.cache
def _log_series(p, n, d):
    """(guard g, [(coefficient, modulus) for k = terms..1]) of log z modulo
    p^(n + g) by Horner's rule, for v(z) >= d.

    The terms k = 1..terms are those with k*d - floor(log_p k) < n, a bound
    that grows with k, and g = floor(log_p terms) >= v_p(k) for each, so the
    coefficient p^g (-1)^(k+1) / k is an integer.  Step k's result is later
    multiplied by z^(k-1), of valuation >= (k-1) d, so the step is reduced
    modulo p^(n + g - (k-1) d), and so is its coefficient."""
    terms = guard = 0
    while (terms + 1) * d - guard - (_POW[p, guard + 1] <= terms + 1) < n:
        terms += 1
        guard += _POW[p, guard + 1] <= terms
    steps = []
    for k in range(terms, 0, -1):
        mod = _POW[p, n + guard - (k - 1) * d]
        vk = _int_valuation(k, p)
        coef = pow(k // _POW[p, vk], -1, mod) * _POW[p, guard - vk]
        steps.append(((coef if k & 1 else -coef) % mod, mod))
    return guard, steps


def plog(u):
    """The Iwasawa logarithm of a nonzero u in Q_p(w) known to a finite
    precision: log u1 for u = p^v * zeta * u1, zeta a Teichmuller root of
    unity and u1 a principal unit (log p = log zeta = 0).  As zeta^m = 1 for
    m = p^2 - 1, a p-adic unit, it is log(y) / m for y = (u p^-v)^m: the
    series at the interval y, times m^-1, without forming that interval.

    Precision rule: on intervals, each term x^k/k of the alternating series
    in x = y - 1 has precision >= prec(y) (the powers of x gain a digit at
    least every second step, more than v_p(k) loses), and the sum starts at
    zero to prec(y); so the result is (prec(y), log(rep) mod p^prec(y)) for
    the integer representative rep of y, whatever exact method computes it.
    Here rep = r^m, r the representative of u p^-v, and log rep =
    p^-j log(rep^(p^j)) on integer pairs modulo p^(n + g),
    n = max(prec(y), 1) + j: rep^(p^j) - 1 has j more digits of valuation,
    so the series needs fewer terms, and the g guard digits hold every 1/k
    (`_log_series`).

    The precision of y.  Let P = prec(u p^-v), the least component
    precision.  If its components are exact or known to >= 1 digit, then
    prec(y) = P.  Count a zero to n as valuation n; a product x*y is known
    to min(prec(x) + v(y), prec(y) + v(x)) (`_term_prec`), so by induction
    every component of every partial product of y has valuation >= 0 and
    is known to >= P.  Each partial product is a unit (its norm is) known
    to >= P >= 1 digits, so it has a component t of valuation 0.  If x's
    component s has prec(s) = P, the term of x*y in s and y's such t is
    known to min(P, prec(t) + v(s)) = P when v(s) = 0; when v(s) > 0, x's
    other component s' has v(s') = 0 and the term in s' and t is known to
    >= P while that in s and t is known to min(P + 0, prec(t) + v(s)) = P.
    Some component of x*y is then known to exactly P.  If a component is
    zero to n < 1 instead, it is the least (a nonzero one of u p^-v is
    known to >= 1 digit), and every component of y is a zero, the least
    known to m n = m P; P is read as prec(u) - v(u).  As u has a finite
    component, every monomial of an exact component of y has an exact
    zero factor: that component is an exact zero, and 0 in rep.

    The checks.  x = y - 1 is read from rep (mod p^(n - j + G), G a bound
    on g) mod p^max(prec(y), 0).  That hides only digits of valuation >=
    prec(y): if x is then zero, the interval's series is zero to prec(y)
    too; if not, its valuation is unchanged.  rep = 1 mod p, as r is a
    unit mod p, so v(x) >= 1, and one integer power rep^(p^j) serves the
    zero test and the series."""
    if u.is_zero():
        raise PrecisionExhausted("plog of zero")
    if u.prec == INF:
        raise ValueError("plog needs a finite precision input")
    p, c = u.p, smallest_nonsquare(u.p)
    order = p * p - 1
    v = u.valuation
    least = u.prec - v  # P, the least component precision of u p^-v
    target = int(least if least >= 1 else order * least)  # prec(y)
    # j balances j p-th powers against the series' terms
    j = math.isqrt(max(target, 0) // (2 * p.bit_length()))
    n = max(target, 1) + j  # log z wanted mod p^n
    # the series has fewer than 2n terms (k*d - log_p k >= n at k = 2n),
    # so its guard floor(log_p terms) is at most G = floor(log_p(2n - 1))
    g = 0
    while _POW[p, g + 1] < 2 * n:
        g += 1
    r = tuple(0 if s.v == INF else s.unit * _POW[p, s.v - v] for s in (u.a, u.b))
    y = _qpow(r, order, c, _POW[p, n - j + g])
    cut = _POW[p, max(target, 0)]
    x = [e % cut for e in (y[0] - 1, y[1])]  # y - 1 mod p^prec(y)
    if not any(x):
        return _quad(PadicScalar.zero(p, target), PadicScalar.zero(p, target))
    d = min(_int_valuation(e, p) for e in x if e) + j  # v(z - 1) >= d for z = rep^(p^j)
    guard, steps = _log_series(p, n, d)
    mod = _POW[p, n + guard]
    z0, z1 = _qpow(y, _POW[p, j], c, mod)
    z0 -= 1
    a0 = a1 = 0
    for coef, m in steps:  # Horner, each step to the digits it needs
        a0 += coef
        a0, a1 = (a0 * z0 + c * a1 * z1) % m, (a0 * z1 + a1 * z0) % m
    scale = _POW[p, guard + j]
    inv = _inverse(order, p, target)  # 1/m to the digits kept
    return _quad(PadicScalar(p, 0, a0 // scale * inv, target),
                 PadicScalar(p, 0, a1 // scale * inv, target))
