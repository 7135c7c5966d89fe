"""Fixed-precision arithmetic in Q_p and its unramified quadratic extension.

Elements are intervals: a nonzero scalar is p^v * unit with the unit known
modulo p^(prec - v), i.e. the value is certified modulo p^prec.  Every
operation propagates precision pessimistically (interval arithmetic), so a
reported digit is always a proven digit.
"""

import math
from fractions import Fraction

from .errors import (
    DivisionByZero,
    NotAUnit,
    NotPrincipalUnit,
    OutsideConvergenceDomain,
    PrecisionExhausted,
)

INF = math.inf


def _int_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicScalar:
    """An element of Q_p certified modulo p^prec."""

    __slots__ = ("p", "v", "unit", "prec")

    def __init__(self, p, v, unit, prec):
        self.p = p
        if v == INF or unit == 0:
            # zero to the stated precision (exact zero when prec is INF)
            self.v = INF
            self.unit = 0
            self.prec = prec
            return
        rel = prec - v
        if rel <= 0:
            self.v = INF
            self.unit = 0
            self.prec = prec
            return
        if not math.isinf(rel):
            unit %= p ** int(rel)
        if unit == 0:
            self.v = INF
            self.unit = 0
            self.prec = prec
            return
        shift = _int_valuation(unit, p)
        v += shift
        rel -= shift
        self.v = v
        unit //= p ** shift
        if not math.isinf(rel):
            unit %= p ** int(rel)
        self.unit = unit
        self.prec = prec

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
    def from_digits(cls, digits, v, p, prec):
        unit = 0
        for i, d in enumerate(digits):
            if not 0 <= d < p:
                raise ValueError("digit out of range")
            unit += d * p ** i
        if unit == 0:
            return cls.zero(p, prec)
        return cls(p, v, unit, prec)

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
        if self.is_zero():
            return PadicScalar(self.p, INF, 0, prec)
        return PadicScalar(self.p, self.v, self.unit, prec)

    def residue(self):
        """Image in F_p; requires a p-adic integer."""
        if self.is_zero():
            return 0
        if self.v < 0:
            raise ValueError("negative valuation has no residue")
        return self.unit % self.p if self.v == 0 else 0

    # -- ring operations --------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __add__(self, other):
        self._check(other)
        n = min(self.prec, other.prec)
        if self.is_zero():
            return other.truncate(n)
        if other.is_zero():
            return self.truncate(n)
        v0 = min(self.v, other.v)
        raw = self.unit * self.p ** (self.v - v0) + other.unit * self.p ** (other.v - v0)
        return PadicScalar(self.p, v0, raw, n)

    def __neg__(self):
        if self.is_zero():
            return self
        return PadicScalar(self.p, self.v, -self.unit, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            za, zb = (self, other) if self.is_zero() else (other, self)
            if za.prec == INF:
                return PadicScalar.zero(self.p)
            shift = 0 if zb.is_zero() else zb.v
            return PadicScalar.zero(self.p, za.prec + shift)
        v = self.v + other.v
        rel = min(self.prec - self.v, other.prec - other.v)
        unit = self.unit * other.unit
        return PadicScalar(self.p, v, unit, v + rel)

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            if other.prec == INF:
                raise DivisionByZero("division by exact zero")
            raise DivisionByZero("divisor is zero to working precision")
        if self.is_zero():
            if self.prec == INF:
                return PadicScalar.zero(self.p)
            return PadicScalar.zero(self.p, self.prec - other.v)
        v = self.v - other.v
        rel = min(self.prec - self.v, other.prec - other.v)
        if rel == INF:
            raise ValueError("cannot divide two exact values; truncate first")
        rel = int(rel)
        if rel <= 0:
            raise PrecisionExhausted("no certified digits in quotient")
        inv = pow(other.unit % self.p ** rel, -1, self.p ** rel)
        return PadicScalar(self.p, v, self.unit * inv, v + rel)

    def __pow__(self, k):
        if k == 0:
            return PadicScalar.one(self.p, self.prec if not self.is_zero() else INF)
        if k < 0:
            return PadicScalar.one(self.p, self.prec) / self ** (-k)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def scale_int(self, n):
        """Multiply by an exact integer."""
        if n == 0:
            return PadicScalar.zero(self.p)
        if self.is_zero():
            return PadicScalar.zero(self.p, self.prec + _int_valuation(n, self.p))
        return PadicScalar(self.p, self.v, self.unit * n, self.prec + _int_valuation(n, self.p))

    # -- comparison -------------------------------------------------------

    def agreement(self, other):
        """Largest certified k with self = other mod p^k."""
        d = self - other
        return d.prec if d.is_zero() else d.v

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("intervals are unhashable")

    def __repr__(self):
        if self.is_zero():
            return "O(%d^%s)" % (self.p, self.prec)
        n = int(min(8, self.prec - self.v))  # an exact value has unbounded digits
        digits = " ".join(str(self.unit // self.p ** i % self.p) for i in range(n))
        return "(%s...)*%d^%s mod %d^%s" % (digits, self.p, self.v, self.p, self.prec)


def teichmuller(u):
    """The (p-1)-st root of unity congruent to a unit u mod p."""
    if u.is_zero() or u.v != 0:
        raise NotAUnit("teichmuller lift needs a p-adic unit")
    if u.prec == INF:
        raise ValueError("teichmuller needs a finite precision input")
    p, prec = u.p, int(u.prec)
    mod = p ** prec
    t = u.unit % mod
    for _ in range(prec + 1):
        t_next = pow(t, p, mod)
        if t_next == t:
            break
        t = t_next
    return PadicScalar(p, 0, t, prec)


def padic_sqrt(x):
    """A square root in Q_p, or None when x is not a square (p odd)."""
    if x.is_zero():
        return PadicScalar.zero(x.p, x.prec)
    if x.v % 2 != 0:
        return None
    p, rel = x.p, int(x.prec - x.v)
    u0 = x.unit % p
    r0 = _sqrt_mod_p(u0, p)
    if r0 is None:
        return None
    # Newton iteration r <- (r + u/r)/2 doubles the certified digits
    mod, r, k = p, r0, 1
    while k < rel:
        k = min(2 * k, rel)
        mod = p ** k
        r = (r + x.unit % mod * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    return PadicScalar(p, x.v // 2, r, x.v // 2 + rel)


def _sqrt_mod_p(a, p):
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli--Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def smallest_nonsquare(p):
    """The smallest positive unit that is a quadratic nonresidue mod p."""
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return c
    raise ValueError("no nonsquare found; is p prime?")


class QuadExtScalar:
    """a + b*w in the unramified quadratic extension Q_p(w), w^2 = c."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        if a.p != b.p:
            raise ValueError("mixed primes")
        self.a = a
        self.b = b
        self.c = c

    @classmethod
    def from_parts(cls, a, b, p, prec, c=None):
        if c is None:
            c = smallest_nonsquare(p)
        mk = lambda x: x if isinstance(x, PadicScalar) else PadicScalar.from_int(x, p, prec)
        return cls(mk(a), mk(b), c)

    @classmethod
    def from_base(cls, a, c):
        return cls(a, PadicScalar.zero(a.p), c)

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

    def truncate(self, prec):
        return QuadExtScalar(self.a.truncate(prec), self.b.truncate(prec), self.c)

    def _check(self, other):
        if self.c != other.c or self.p != other.p:
            raise ValueError("mixed extensions")

    def __add__(self, other):
        self._check(other)
        return QuadExtScalar(self.a + other.a, self.b + other.b, self.c)

    def __neg__(self):
        return QuadExtScalar(-self.a, -self.b, self.c)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a = self.a * other.a + (self.b * other.b).scale_int(self.c)
        b = self.a * other.b + self.b * other.a
        return QuadExtScalar(a, b, self.c)

    def frobenius(self):
        return QuadExtScalar(self.a, -self.b, self.c)

    def norm(self):
        """z * sigma(z), an element of the base field."""
        return self.a * self.a - (self.b * self.b).scale_int(self.c)

    def trace(self):
        return self.a + self.a

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n = self.norm()
        conj = self.frobenius()
        return QuadExtScalar(conj.a / n, conj.b / n, self.c)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadExtScalar.from_parts(1, 0, self.p, INF, self.c)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def agreement(self, other):
        return min(self.a.agreement(other.a), self.b.agreement(other.b))

    def __eq__(self, other):
        if not isinstance(other, QuadExtScalar):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("intervals are unhashable")

    def __repr__(self):
        return "(%r) + (%r)*w" % (self.a, self.b)


def quad_teichmuller(u):
    """The (p^2 - 1)-st root of unity congruent to a unit u mod p."""
    if u.is_zero() or u.valuation != 0:
        raise NotAUnit("teichmuller lift needs a unit")
    if u.prec == INF:
        raise ValueError("teichmuller needs a finite precision input")
    p = u.p
    t = u
    for _ in range(int(u.prec) + 1):
        t_next = t ** (p * p)
        if (t_next - t).is_zero():
            return t_next
        t = t_next
    return t


def plog(u):
    """p-adic logarithm of a principal unit, via the alternating series."""
    one = QuadExtScalar.from_parts(1, 0, u.p, INF, u.c)
    x = u - one
    if x.is_zero():
        return QuadExtScalar(PadicScalar.zero(u.p, x.prec), PadicScalar.zero(u.p, x.prec), u.c)
    if x.valuation < 1:
        raise NotPrincipalUnit("plog needs u = 1 mod p")
    p, target = u.p, u.prec
    if target == INF:
        raise ValueError("plog needs a finite precision input")
    total = QuadExtScalar(PadicScalar.zero(p, target), PadicScalar.zero(p, target), u.c)
    power = x
    k = 1
    while True:
        kk = PadicScalar.from_int((-1) ** (k + 1) * k, p, INF)
        total = total + QuadExtScalar(power.a / kk, power.b / kk, u.c)
        k += 1
        power = power * x
        # remaining tail has valuation >= k*v(x) - log_p(k), beyond precision
        if power.is_zero() or k * x.valuation - math.log(k, p) > target:
            break
    return total


def pexp(x):
    """p-adic exponential; converges on pZ_p for p >= 5."""
    p = x.p
    if x.is_zero():
        return QuadExtScalar.from_parts(1, 0, p, x.prec, x.c)
    if x.valuation < 1:
        raise OutsideConvergenceDomain("pexp needs valuation >= 1")
    target = x.prec
    if target == INF:
        raise ValueError("pexp needs a finite precision input")
    total = QuadExtScalar.from_parts(1, 0, p, target, x.c)
    term = x
    k = 1
    while True:
        total = total + term
        k += 1
        kk = PadicScalar.from_int(k, p, INF)
        term = QuadExtScalar((term.a * x.a + (term.b * x.b).scale_int(x.c)) / kk,
                             (term.a * x.b + term.b * x.a) / kk, x.c)
        # v(x^k/k!) >= k(v(x) - 1/(p-1)) grows linearly for p >= 5
        if term.is_zero() or k * (x.valuation - 1.0 / (p - 1)) > target:
            break
    return total
