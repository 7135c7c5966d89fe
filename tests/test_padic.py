"""Base arithmetic: interval precision, Teichmuller, log/exp, Frobenius."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from expansion_oracle import ref_div_int, ref_plog, ref_qmul, ref_qsub
from plectic.errors import DivisionByZero, PlecticError, PrecisionExhausted, ShapeMismatch

from plectic.padic import (
    INF,
    PadicScalar,
    QuadExtScalar,
    _dot,
    _int_valuation,
    _inverse,
    is_square,
    plog,
    quad_teichmuller,
    smallest_nonsquare,
)

P = 5
N = 40
C = smallest_nonsquare(P)


def mk(n, prec=N):
    return PadicScalar.from_int(n, P, prec)


def ext(a, b, prec=N):
    return QuadExtScalar.from_parts(a, b, P, prec)


# -- quadratic extension ring identities --------------------------------------

def test_intervals_are_unhashable():
    # equality is agreement to the working precision, which no hash follows
    with pytest.raises(TypeError):
        hash(PadicScalar.one(5, 10))
    with pytest.raises(TypeError):
        hash(QuadExtScalar.from_parts(1, 0, 5, 10))


def test_conjugate_product_reduces_by_min_poly():
    # (1 + w)(1 - w) = 1 - w^2 = 1 - c
    got = ext(1, 1) * ext(1, -1)
    assert got.agreement(ext(1 - C, 0)) >= N


def test_self_division_is_one():
    for a, b in [(3, 7), (1, 0), (0, 2), (12, 25)]:
        x = ext(a, b)
        assert (x / x).agreement(ext(1, 0)) >= N - 2


def test_square_of_one_plus_omega():
    # with w^2 = 2: (1 + w)^2 = 3 + 2w, expanded by hand
    assert C == 2
    got = ext(1, 1) * ext(1, 1)
    assert got.agreement(ext(3, 2)) >= N


# -- Teichmuller ---------------------------------------------------------------
# a digit of F_p lifts to a (p-1)-st root of unity in Z_p, the base part of
# its lift in Z_p[w]

def test_teichmuller_fixes_one():
    t = quad_teichmuller(ext(1, 0))
    assert t.a.agreement(mk(1)) >= N and t.b.is_zero()


def test_teichmuller_is_root_of_unity():
    t = quad_teichmuller(ext(2, 0))
    assert t.b.is_zero()
    assert (t.a ** 4).agreement(mk(1)) >= N


def _hensel_quartic_root(start, prec):
    """Independent oracle: Newton-lift a root of x^4 - 1 from x = start mod 5."""
    x = start
    mod = P
    while mod < P ** prec:
        mod = mod * mod
        f = (x ** 4 - 1) % mod
        fp = (4 * x ** 3) % mod
        x = (x - f * pow(fp, -1, mod)) % mod
    return x % P ** prec


def test_teichmuller_digits_match_hensel_oracle():
    t = quad_teichmuller(ext(2, 0, prec=4)).a
    oracle = _hensel_quartic_root(2, 4)
    digits = [(oracle // P ** i) % P for i in range(4)]
    assert digits == [2, 1, 2, 1]
    unit = sum(d * P ** i for i, d in enumerate(digits))
    assert t.agreement(PadicScalar(P, 0, unit, 4)) >= 4


def test_quad_teichmuller_order_divides_p_squared_minus_one():
    z = quad_teichmuller(ext(2, 1))
    assert (z ** (P * P - 1)).agreement(ext(1, 0)) >= N - 1


def _power_teichmuller(u):
    """The Teichmuller lift by t -> t^(p^2) on intervals until it is fixed,
    one digit a pass."""
    t = u
    for _ in range(int(u.prec) + 1):
        t_next = t ** (u.p * u.p)
        if (t_next - t).is_zero():
            return t_next
        t = t_next
    return t


def _teichmuller_case(rng, p, prec, kind):
    """A unit at prec: near 1, far from 1, in Z_p (an exact zero w part),
    in Z_p w (an exact zero base part) or with a w part of valuation >= 1."""
    m = p ** prec
    while True:
        a, b = [(1 + p * rng.randrange(m), p * rng.randrange(m)),
                (rng.randrange(m), rng.randrange(m)),
                (rng.randrange(1, m), 0),
                (0, rng.randrange(1, m)),
                (rng.randrange(m), p * rng.randrange(1, m))][kind]
        u = QuadExtScalar.from_parts(a, b, p, prec)
        if not u.is_zero() and u.valuation == 0:
            return u


@pytest.mark.parametrize("p", [5, 7, 11, 1009])
@pytest.mark.parametrize("prec", [1, 4, 40, 160, 640])
def test_teichmuller_by_newton_matches_the_power_loop(p, prec):
    rng = random.Random(p * 1000 + prec)
    for kind in range(5):
        for _ in range(2):
            u = _teichmuller_case(rng, p, prec, kind)
            got = quad_teichmuller(u)
            digits = [(s.v, s.unit, s.prec) for s in (got.a, got.b)]
            if p ** prec < 10 ** 300:  # the loop takes prec passes of a p^2-th power
                want = _power_teichmuller(u)
                assert digits == [(s.v, s.unit, s.prec) for s in (want.a, want.b)]
            # the root of unity congruent to u mod p, at prec(u)
            assert got.prec == prec and got.agreement(u) >= 1
            one = QuadExtScalar.from_parts(1, 0, p, INF)
            assert (got ** (p * p - 1)).agreement(one) >= prec
            assert [s.is_zero() and s.prec == INF for s in (got.a, got.b)] == \
                [s.is_zero() and s.prec == INF for s in (u.a, u.b)]


# -- log / exp ------------------------------------------------------------------

def test_plog_of_one_is_zero():
    assert plog(ext(1, 0)).is_zero()


def test_plog_is_a_homomorphism_on_squares():
    u = ext(1 + P, 0)
    assert plog(u * u).agreement(plog(u) + plog(u)) >= N - 2


def _units(rng, count):
    """Units of Q_p(w) at N (a is prime to p), most of them not = 1 mod p."""
    return [ext(rng.randrange(1, P) + P * rng.randrange(P ** N), rng.randrange(P ** N))
            for _ in range(count)]


def test_plog_of_a_root_of_unity_is_zero():
    for u in _units(random.Random(12), 10):
        z = quad_teichmuller(u)
        assert plog(z).is_zero() and plog(z).prec == N


def test_plog_ignores_powers_of_p():
    for u in _units(random.Random(13), 10):
        for k in (-3, -1, 1, 2):
            shifted = u * QuadExtScalar.from_base(PadicScalar(P, k, 1, INF))
            assert _quad_outcome(plog, shifted) == _quad_outcome(plog, u)


def test_plog_is_a_homomorphism_on_units():
    xs = _units(random.Random(14), 20)
    assert any((x - ext(1, 0)).valuation == 0 for x in xs)
    for x, y in zip(xs[::2], xs[1::2]):
        assert plog(x * y).agreement(plog(x) + plog(y)) >= N


def test_plog_refuses_zero_and_exact_inputs():
    with pytest.raises(PrecisionExhausted):
        plog(ext(0, 0))
    with pytest.raises(PrecisionExhausted):
        plog(ext(P ** N, 0))  # zero to the working precision
    for a, b in ((1, 0), (2, 3), (0, 1)):
        with pytest.raises(ValueError, match="finite precision"):
            plog(ext(a, b, prec=INF))


def test_plog_precision_is_the_closed_form():
    # prec(y), y = (u p^-v)^(p^2 - 1), read from u alone: P = prec(u) - v(u)
    # when every component is exact or known to >= 1 digit, (p^2 - 1) n
    # beside a component zero to n < 1
    m = P * P - 1
    rng = random.Random(15)
    for _ in range(200):
        a, b = (PadicScalar(P, rng.randrange(-3, 4), rng.randrange(1, P ** 30),
                            rng.choice((INF, 5, 12, 40))) for _ in range(2))
        for u in (QuadExtScalar(a, b), QuadExtScalar(a, PadicScalar.zero(P)),
                  QuadExtScalar(a, PadicScalar.zero(P, a.v + rng.randrange(1, 9)))):
            if u.prec != INF:
                assert plog(u).prec == u.prec - u.valuation, u
    for n in (0, -1, -4):
        a = PadicScalar(P, 0, rng.randrange(1, P ** N), N)
        zero = PadicScalar.zero(P, n)
        for u in (QuadExtScalar(a, zero), QuadExtScalar(zero, a)):
            got = plog(u)
            assert got.is_zero() and (got.a.prec, got.b.prec) == (m * n, m * n), u


def test_mixed_operands_raise_shape_mismatch_in_both_orders():
    # a scalar of Q_p and one of Q_p(w) do not mix, whichever comes first
    x, z = mk(3), ext(1, 2)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv,
           lambda s, t: s.agreement(t))
    for op in ops:
        for s, t in ((x, z), (z, x)):
            with pytest.raises(ShapeMismatch):
                op(s, t)


def test_plog_series_oracle_small_precision():
    # sum_{k>=1} (-1)^(k+1) 5^k / k, summed in exact rationals mod 5^6
    target = Fraction(0)
    for k in range(1, 12):
        target += Fraction((-1) ** (k + 1) * P ** k, k)
    oracle = PadicScalar.from_fraction(target, P, 6)
    got = plog(ext(1 + P, 0, prec=6))
    assert got.a.agreement(oracle) >= 6
    assert got.b.is_zero()


def pexp(x):
    """The p-adic exponential sum x^k/k!, which converges on pZ_p for
    p >= 5: the inverse of `plog` in the tests below.  Each term is divided
    by k at the largest relative precision of its nonzero components."""
    p = x.p
    if x.is_zero():
        return QuadExtScalar.from_parts(1, 0, p, x.prec)
    if x.valuation < 1:
        raise ValueError("pexp needs valuation >= 1")
    target = x.prec
    if target == INF:
        raise ValueError("pexp needs a finite precision input")
    total = QuadExtScalar.from_parts(1, 0, p, target)
    term = x
    k = 1
    while True:
        total = total + term
        k += 1
        term = term * x
        rel = max((s.prec - s.v for s in (term.a, term.b) if s.v != INF), default=1)
        if rel == INF:
            raise ValueError("cannot divide two exact values; truncate first")
        r = PadicScalar.from_fraction(Fraction(1, k), p, rel - _int_valuation(k, p))
        term = QuadExtScalar(term.a * r, term.b * r)
        # v(x^k/k!) >= k(v(x) - 1/(p-1)) grows linearly for p >= 5
        if term.is_zero() or k * (x.valuation - 1.0 / (p - 1)) > target:
            break
    return total


def test_pexp_at_zero():
    z = QuadExtScalar.from_parts(0, 0, P, N)
    assert pexp(z).agreement(ext(1, 0)) >= N


def test_pexp_plog_inverse_pair():
    u = ext(1 + 2 * P, 3 * P * P)
    assert pexp(plog(u)).agreement(u) >= N - 2
    x = ext(2 * P, 7 * P)
    assert plog(pexp(x)).agreement(x) >= N - 2


def test_pexp_homomorphism_random():
    rng = random.Random(11)
    for _ in range(10):
        x = ext(P * rng.randrange(P ** 8), P * rng.randrange(P ** 8))
        y = ext(P * rng.randrange(P ** 8), P * rng.randrange(P ** 8))
        assert pexp(x + y).agreement(pexp(x) * pexp(y)) >= N - 3


# -- Frobenius / norm --------------------------------------------------------

def test_frobenius_is_an_involution():
    z = ext(3, 4)
    assert z.frobenius().frobenius().agreement(z) >= N


def test_norm_of_omega():
    w = ext(0, 1)
    assert w.norm().agreement(mk(-C)) >= N


def test_norm_multiplicative_and_frobenius_invariant():
    x, y = ext(2, 3), ext(4, 1)
    assert (x * y).norm().agreement(x.norm() * y.norm()) >= N
    assert x.frobenius().norm().agreement(x.norm()) >= N


# -- interval-precision soundness -------------------------------------------------

def _scalar_case(rng, op, prec):
    """One op of the oracle test applied to operands certified mod p^prec;
    the operands are the same integers at every precision."""
    a, b = rng.randrange(1, P ** N), rng.randrange(1, P ** N)
    va, vb = rng.randrange(-2, 3), rng.randrange(-2, 3)
    n = rng.choice((1, -1)) * P ** rng.randrange(3) * rng.randrange(1, 50)
    k = rng.randrange(-3, 7)
    x, y = PadicScalar(P, va, a, prec), PadicScalar(P, vb, b, prec)
    if op == "qmul":
        return QuadExtScalar(x, y) * QuadExtScalar(y, x)
    if op == "qinv":
        return QuadExtScalar(x, y).inverse()
    if op == "plog":  # of a principal unit 1 + p(...)
        return plog(QuadExtScalar(PadicScalar(P, 0, 1 + P * a, prec),
                                  PadicScalar(P, 1, b, prec)))
    return {"add": lambda: x + y, "sub": lambda: x - y,
            "mul": lambda: x * y, "div": lambda: x / y,
            "neg": lambda: -x, "scale_int": lambda: x.scale_int(n),
            "pow": lambda: x ** k}[op]()


def _components(z):
    return (z.a, z.b) if isinstance(z, QuadExtScalar) else (z,)


ORACLE_CASES = {"add": 300, "sub": 300, "mul": 300, "div": 300, "neg": 100,
                "scale_int": 300, "pow": 200, "qmul": 200, "qinv": 200,
                "plog": 40}


def test_recomputing_at_higher_precision_reproduces_digits():
    # every digit certified at N must survive recomputation at 2N
    rng = random.Random(7)
    for op, count in ORACLE_CASES.items():
        for _ in range(count):
            state = rng.getstate()
            lo = _scalar_case(rng, op, N)
            rng.setstate(state)
            hi = _scalar_case(rng, op, 2 * N)
            for r_lo, r_hi in zip(_components(lo), _components(hi)):
                assert r_hi.prec >= r_lo.prec, op
                assert r_hi.agreement(r_lo) >= r_lo.prec, op


# -- fast-path constructor against the normalising one -------------------------

def _reference_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class _RefScalar:
    """The interval scalar with every result normalised by the public
    constructor: valuation strip, second reduction, no fast paths."""

    def __init__(self, p, v, unit, prec):
        self.p = p
        if v == INF or unit == 0:
            self.v, self.unit, self.prec = INF, 0, prec
            return
        rel = prec - v
        if rel <= 0:
            self.v, self.unit, self.prec = INF, 0, prec
            return
        if not math.isinf(rel):
            unit %= p ** int(rel)
        if unit == 0:
            self.v, self.unit, self.prec = INF, 0, prec
            return
        shift = _reference_valuation(unit, p)
        v += shift
        rel -= shift
        self.v = v
        unit //= p ** shift
        if not math.isinf(rel):
            unit %= p ** int(rel)
        self.unit = unit
        self.prec = prec

    def is_zero(self):
        return self.v == INF

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        if self.is_zero():
            return _RefScalar(self.p, INF, 0, prec)
        return _RefScalar(self.p, self.v, self.unit, prec)

    def __add__(self, other):
        n = min(self.prec, other.prec)
        if self.is_zero():
            return other.truncate(n)
        if other.is_zero():
            return self.truncate(n)
        v0 = min(self.v, other.v)
        raw = self.unit * self.p ** (self.v - v0) + other.unit * self.p ** (other.v - v0)
        return _RefScalar(self.p, v0, raw, n)

    def __neg__(self):
        if self.is_zero():
            return self
        return _RefScalar(self.p, self.v, -self.unit, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            # a zero mod p^a times p^b Z_p vanishes mod p^(a + b), with b the
            # valuation of a nonzero factor; an exact zero makes it exact
            a = self.prec if self.is_zero() else self.v
            b = other.prec if other.is_zero() else other.v
            return _RefScalar(self.p, INF, 0, a + b)
        v = self.v + other.v
        rel = min(self.prec - self.v, other.prec - other.v)
        return _RefScalar(self.p, v, self.unit * other.unit, v + rel)

    def __truediv__(self, other):
        if other.is_zero():
            raise DivisionByZero("zero divisor")
        if self.is_zero():
            if self.prec == INF:
                return _RefScalar(self.p, INF, 0, INF)
            return _RefScalar(self.p, INF, 0, self.prec - other.v)
        v = self.v - other.v
        rel = min(self.prec - self.v, other.prec - other.v)
        if rel == INF:
            raise ValueError("cannot divide two exact values")
        rel = int(rel)
        inv = pow(other.unit % self.p ** rel, -1, self.p ** rel)
        return _RefScalar(self.p, v, self.unit * inv, v + rel)

    def __pow__(self, k):
        one = lambda prec: _RefScalar(self.p, 0, 1, prec)
        if k == 0:
            return one(self.prec if not self.is_zero() else INF)
        if k < 0:
            return one(self.prec) / self ** (-k)
        out, base = one(INF), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale_int(self, n):
        if n == 0:
            return _RefScalar(self.p, INF, 0, INF)
        if self.is_zero():
            return _RefScalar(self.p, INF, 0, self.prec + _reference_valuation(n, self.p))
        return _RefScalar(self.p, self.v, self.unit * n,
                          self.prec + _reference_valuation(n, self.p))


def _operand(rng, p):
    """(v, unit, prec) drawn across the constructor's cases: finite and
    exact precision, negative valuations, units divisible by p, zeros."""
    kind = rng.randrange(10)
    prec = INF if kind == 0 else rng.choice((3, 8, 20, 40))
    if kind == 1:
        return INF, 0, rng.choice((INF, 3, 8, 20))
    v = rng.randrange(-4, 8)
    if prec != INF and kind == 2:  # zero to precision: v >= prec
        return prec + rng.randrange(3), rng.randrange(1, 99), prec
    bound = p ** 30 if prec == INF else p ** (prec + 4)
    unit = rng.randrange(-bound, bound) * p ** rng.choice((0, 0, 0, 1, 2))
    return v, unit or 1, prec


def _partner(rng, p, x):
    """A second operand chosen to hit each path of + and - against x."""
    v, unit, prec = x
    kind = rng.randrange(6)
    if kind == 0 and v != INF:  # equal valuation, full cancellation
        return v, -unit, prec
    if kind == 1 and v != INF:  # equal valuation, partial cancellation
        return v, -unit + p ** rng.randrange(1, 12) * rng.randrange(1, 99), \
            rng.choice((prec, INF, 5, 30))
    if kind == 2 and prec != INF:  # v at or past the other's precision
        return prec + rng.randrange(-1, 3), rng.randrange(1, p ** 20), \
            rng.choice((INF, prec + 10))
    return _operand(rng, p)


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except (ArithmeticError, ValueError, DivisionByZero) as e:
        return type(e).__name__
    return r.v, r.unit, r.prec


@pytest.mark.parametrize("p", [5, 7])
def test_fast_paths_match_the_normalising_constructor(p):
    rng = random.Random(p)
    ops = [
        ("init", lambda x, y: x),
        ("add", lambda x, y: x + y),
        ("sub", lambda x, y: x - y),
        ("mul", lambda x, y: x * y),
        ("div", lambda x, y: x / y),
        ("neg", lambda x, y: -x),
    ]
    for _ in range(3000):
        xs = _operand(rng, p)
        ys = _partner(rng, p, xs)
        n = rng.choice((1, -1)) * p ** rng.randrange(4) * rng.choice((1, 2, 3, 1 + p))
        k = rng.randrange(-3, 7)
        t = rng.choice((INF, 1, 4, 15, 35, 50)) + rng.choice((0, xs[0] if xs[0] != INF else 0))
        cases = ops + [
            ("scale_int", lambda x, y: x.scale_int(n)),
            ("scale_int(0)", lambda x, y: x.scale_int(0)),
            ("truncate", lambda x, y: x.truncate(t)),
            ("pow", lambda x, y: x ** k),
        ]
        for name, op in cases:
            got = _outcome(op, PadicScalar(p, *xs), PadicScalar(p, *ys))
            want = _outcome(op, _RefScalar(p, *xs), _RefScalar(p, *ys))
            assert got == want, (name, xs, ys, n, k, t)


@pytest.mark.parametrize("base", [
    PadicScalar(P, 0, 123456789, N),    # unit
    PadicScalar(P, 2, 7 + 5 * 11, N),   # non-unit
    PadicScalar(P, -1, 3, N),           # negative valuation
    PadicScalar.zero(P, N),             # zero to precision
], ids=["unit", "non-unit", "pole", "zero"])
def test_pow_equals_repeated_products(base):
    for k in range(21):
        want = PadicScalar.one(P, INF if base.is_zero() else base.prec)
        if k:
            want = base
            for _ in range(k - 1):
                want = want * base
        got = base ** k
        assert (got.v, got.unit, got.prec) == (want.v, want.unit, want.prec)


def test_product_of_two_zero_intervals():
    # p^3 Z_p times p^5 Z_p lies in p^8 Z_p; an exact zero makes it exact
    for x, y, prec in [(PadicScalar.zero(P, 3), PadicScalar.zero(P, 5), 8),
                       (PadicScalar.zero(P, -2), PadicScalar.zero(P, 5), 3),
                       (PadicScalar.zero(P), PadicScalar.zero(P, 5), INF)]:
        for a, b in ((x, y), (y, x)):
            assert (a * b).is_zero() and (a * b).prec == prec
            assert _dot(P, [(a, b, 1)]).prec == prec


@pytest.mark.parametrize("p", [5, 7])
def test_products_are_symmetric_intervals(p):
    rng = random.Random(200 + p)
    for _ in range(3000):
        xs = _operand(rng, p)
        x, y = PadicScalar(p, *xs), PadicScalar(p, *_partner(rng, p, xs))
        assert _outcome(lambda a, b: a * b, x, y) \
            == _outcome(lambda a, b: a * b, y, x)
        assert _outcome(_dot, p, [(x, y, 1)]) == _outcome(_dot, p, [(y, x, 1)])


# -- the sum-of-products kernel against the fold it replaces ------------------

def _fold(terms, scale_first=False):
    """Sum k*x*y as the left fold of `*`, `scale_int` and `+`."""
    total = None
    for x, y, k in terms:
        t = x.scale_int(k) * y if scale_first else (x * y).scale_int(k)
        total = t if total is None else total + t
    return total


def _dot_terms(rng, p):
    """One to five terms across the scalar cases, k = 0 included; a term
    may repeat the previous x with a partner of the previous y, so that
    the products cancel fully or in part."""
    terms, last = [], None
    for _ in range(rng.randrange(1, 6)):
        k = rng.choice((1, -1)) * p ** rng.randrange(3) * rng.choice((0, 1, 2, 3, 1 + p))
        if last is not None and rng.random() < 0.4:
            xs, ys, k = last[0], _partner(rng, p, last[1]), last[2]
        else:
            xs = _operand(rng, p)
            ys = _partner(rng, p, xs)
        terms.append((xs, ys, k))
        last = (xs, ys, k)
    return [(PadicScalar(p, *xs), PadicScalar(p, *ys), k) for xs, ys, k in terms]


@pytest.mark.parametrize("p", [5, 7])
def test_dot_matches_the_fold(p):
    rng = random.Random(100 + p)
    for _ in range(3000):
        terms = _dot_terms(rng, p)
        want = _outcome(_fold, terms)
        assert _outcome(_fold, terms, True) == want, terms
        assert _outcome(_dot, p, terms) == want, terms


def _ref_norm(x):
    return x.a * x.a - (x.b * x.b).scale_int(smallest_nonsquare(x.p))


def _quad_outcome(fn, *args):
    try:
        r = fn(*args)
    except (ArithmeticError, ValueError, PlecticError) as e:
        return type(e).__name__
    return [(s.v, s.unit, s.prec) for s in _components(r)]


def _quad_operand(rng, p):
    """a + b*w with components across the scalar cases."""
    a, b = _operand(rng, p), _operand(rng, p)
    return QuadExtScalar(PadicScalar(p, *a), PadicScalar(p, *b))


def _ref_iwasawa_log(u):
    """log((u p^-v)^m) / m, m = p^2 - 1, from the composed operations: the
    interval power, the series at it and one division."""
    if u.is_zero():
        raise PrecisionExhausted("plog of zero")
    if u.prec == INF:  # so is its power, which the series refuses
        raise ValueError("plog needs a finite precision input")
    p, m = u.p, u.p * u.p - 1
    y = (u * QuadExtScalar.from_base(PadicScalar(p, -u.valuation, 1, INF))) ** m
    return ref_div_int(ref_plog(y), m)


def test_smallest_nonsquare_is_the_least_nonresidue():
    for p in range(5, 2000):
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        squares = {x * x % p for x in range(p)}
        assert smallest_nonsquare(p) == min(set(range(1, p)) - squares), p


@pytest.mark.parametrize("p", [5, 7, 11, 1009])
def test_w_squares_to_the_smallest_nonsquare(p):
    # w = 0 + 1*w exactly, so w^2 = (c, 0) exactly
    sq = QuadExtScalar.from_parts(0, 1, p, INF) ** 2
    c = smallest_nonsquare(p)
    assert [(s.v, s.unit, s.prec) for s in _components(sq)] == [(0, c, INF), (INF, 0, INF)]


def test_mixed_primes_are_rejected():
    x, y = PadicScalar.from_int(1, 5, N), PadicScalar.from_int(1, 7, N)
    qx = QuadExtScalar.from_parts(1, 1, 5, N)
    qy = QuadExtScalar.from_parts(1, 1, 7, N)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for u, v in ((x, y), (qx, qy)):
            with pytest.raises(ValueError, match="mixed primes"):
                op(u, v)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_quad_operations_match_the_composed_ones(p):
    rng = random.Random(200 + p)
    for _ in range(800):
        x, y = _quad_operand(rng, p), _quad_operand(rng, p)
        assert _quad_outcome(lambda: x * y) == _quad_outcome(ref_qmul, x, y)
        assert _quad_outcome(lambda: x - y) == _quad_outcome(ref_qsub, x, y)
        assert _quad_outcome(x.norm) == _quad_outcome(_ref_norm, x)


@pytest.mark.parametrize("prec,p", [(prec, p) for p in (5, 7, 11) for prec in (12, 40, 160)]
                         + [(640, 5), (100, 1009)])
def test_plog_matches_the_composed_series(p, prec):
    # at 160 and 640 (p = 5) the argument is raised to p^j, j = 5 and 10,
    # and k = 25 is a series term, so two guard digits hold 1/k; p = 1009
    # sums fewer than p terms and needs none.  plog(u) is the series at the
    # interval (u p^-v)^m, m = p^2 - 1, divided by m, for every operand
    rng = random.Random(300 + p * prec)
    for i in range(60 if prec < 160 else 12):
        if i % 2:  # the scalar cases, exact and zero components included
            u = _quad_operand(rng, p)
        else:  # a unit at prec times p^v, the case the suites make
            u = QuadExtScalar.from_parts(rng.randrange(1, p ** prec), rng.randrange(p ** prec),
                                         p, prec)
            u = u * QuadExtScalar.from_base(PadicScalar(p, rng.randrange(-2, 3), 1, INF))
        assert _quad_outcome(plog, u) == _quad_outcome(_ref_iwasawa_log, u), u


@pytest.mark.parametrize("p", [5, 7, 11, 1009])
def test_inverse_matches_the_builtin(p):
    # the Newton inverse is the built-in one, for units of any size and sign
    rng = random.Random(900 + p)
    for k in (1, 2, 3, 40, 161, 641):
        mod = p ** k
        units = [1, -1, p - 1, p + 1, -p - 1, mod - 1, mod + 1, 3 * mod + 2]
        units += [rng.randrange(-mod, 5 * mod) for _ in range(20)]
        for x in units:
            if x % p:
                assert _inverse(x, p, k) == pow(x, -1, mod), (x, k)


# -- ring laws via hypothesis ------------------------------------------------------

small = st.integers(min_value=-(P ** 12), max_value=P ** 12)


@settings(max_examples=60, deadline=None)
@given(small, small, small, small, small, small)
def test_quadratic_extension_ring_laws(a1, b1, a2, b2, a3, b3):
    x, y, z = ext(a1, b1), ext(a2, b2), ext(a3, b3)
    assert ((x + y) + z).agreement(x + (y + z)) >= N
    assert (x * y).agreement(y * x) >= N
    assert (x * (y + z)).agreement(x * y + x * z) >= N
    assert ((x * y) * z).agreement(x * (y * z)) >= N


@settings(max_examples=60, deadline=None)
@given(small.filter(lambda n: n % P != 0))
def test_sqrt_of_squares(n):
    assert is_square(mk(n) * mk(n))
    assert is_square(mk(n) * mk(n) * mk(P) * mk(P))
    assert not is_square(mk(n) * mk(n) * mk(P))


def test_two_is_not_a_square():
    assert not is_square(mk(2))
    assert not is_square(mk(2) * mk(P) * mk(P))


def test_is_square_against_brute_force():
    # x = p^v * n/d is a square iff v is even and n/d is a square mod p^2,
    # by search over the residues mod p^2 (Hensel lifts a root mod p)
    for p in (5, 7):
        mod = p * p
        squares = {y * y % mod for y in range(mod) if y % p}
        assert is_square(PadicScalar.from_fraction(0, p, N))
        assert is_square(PadicScalar.zero(p, N))
        for v in range(-3, 4):
            for n in range(-30, 31):
                for d in range(1, 13):
                    if n % p == 0 or d % p == 0:
                        continue
                    x = PadicScalar.from_fraction(Fraction(n, d) * Fraction(p) ** v,
                                                  p, N)
                    want = v % 2 == 0 and n * pow(d, -1, mod) % mod in squares
                    assert is_square(x) == want, (p, v, n, d)


def test_repr_shows_leading_digits_of_exact_values():
    assert repr(mk(3, INF)) == "(3 0 0 0 0 0 0 0...)*5^0 mod 5^inf"
    assert repr(mk(-1, INF)).startswith("(4 4 4 4 4 4 4 4...)")
    assert repr(mk(3 + 2 * P, 2)) == "(3 2...)*5^0 mod 5^2"


def test_division_by_zero_rejected():
    with pytest.raises(DivisionByZero):
        mk(1) / PadicScalar.zero(P, N)
