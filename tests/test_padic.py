"""Base arithmetic: interval precision, Teichmuller, log/exp, Frobenius."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plectic.padic import (
    INF,
    PadicScalar,
    QuadExtScalar,
    padic_sqrt,
    pexp,
    plog,
    quad_teichmuller,
    smallest_nonsquare,
    teichmuller,
)

P = 5
N = 40
C = smallest_nonsquare(P)


def mk(n, prec=N):
    return PadicScalar.from_int(n, P, prec)


def ext(a, b, prec=N):
    return QuadExtScalar.from_parts(a, b, P, prec, C)


# -- quadratic extension ring identities --------------------------------------

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

def test_teichmuller_fixes_one():
    assert teichmuller(mk(1)).agreement(mk(1)) >= N


def test_teichmuller_is_root_of_unity():
    t = teichmuller(mk(2))
    assert (t ** 4).agreement(mk(1)) >= N


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
    t = teichmuller(mk(2, prec=4))
    oracle = _hensel_quartic_root(2, 4)
    digits = [(oracle // P ** i) % P for i in range(4)]
    assert digits == [2, 1, 2, 1]
    assert t.agreement(PadicScalar.from_digits(digits, 0, P, 4)) >= 4


def test_quad_teichmuller_order_divides_p_squared_minus_one():
    z = quad_teichmuller(ext(2, 1))
    assert (z ** (P * P - 1)).agreement(ext(1, 0)) >= N - 1


# -- log / exp ------------------------------------------------------------------

def test_plog_of_one_is_zero():
    assert plog(ext(1, 0)).is_zero()


def test_plog_is_a_homomorphism_on_squares():
    u = ext(1 + P, 0)
    assert plog(u * u).agreement(plog(u) + plog(u)) >= N - 2


def test_plog_series_oracle_small_precision():
    # sum_{k>=1} (-1)^(k+1) 5^k / k, summed in exact rationals mod 5^6
    target = Fraction(0)
    for k in range(1, 12):
        target += Fraction((-1) ** (k + 1) * P ** k, k)
    oracle = PadicScalar.from_fraction(target, P, 6)
    got = plog(ext(1 + P, 0, prec=6))
    assert got.a.agreement(oracle) >= 6
    assert got.b.is_zero()


def test_pexp_at_zero():
    z = QuadExtScalar.from_parts(0, 0, P, N, C)
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


# -- Frobenius / norm / trace ----------------------------------------------------

def test_frobenius_is_an_involution():
    z = ext(3, 4)
    assert z.frobenius().frobenius().agreement(z) >= N


def test_norm_of_omega():
    w = ext(0, 1)
    assert w.norm().agreement(mk(-C)) >= N


def test_trace_is_twice_base_part():
    z = ext(9, 14)
    assert z.trace().agreement(mk(18)) >= N


def test_norm_multiplicative_and_frobenius_invariant():
    x, y = ext(2, 3), ext(4, 1)
    assert (x * y).norm().agreement(x.norm() * y.norm()) >= N
    assert x.frobenius().norm().agreement(x.norm()) >= N


# -- interval-precision soundness -------------------------------------------------

def test_recomputing_at_higher_precision_reproduces_digits():
    rng = random.Random(7)
    ops = ["add", "sub", "mul", "div"]
    for _ in range(1000):
        a = rng.randrange(1, P ** N)
        b = rng.randrange(1, P ** N)
        va, vb = rng.randrange(3), rng.randrange(3)
        op = rng.choice(ops)
        lo = (PadicScalar(P, va, a, N), PadicScalar(P, vb, b, N))
        hi = (PadicScalar(P, va, a, N + 10), PadicScalar(P, vb, b, N + 10))
        def apply(x, y):
            if op == "add":
                return x + y
            if op == "sub":
                return x - y
            if op == "mul":
                return x * y
            return x / y
        r_lo = apply(*lo)
        r_hi = apply(*hi)
        if r_lo.is_zero():
            assert r_hi.truncate(r_lo.prec).is_zero()
        else:
            assert r_hi.truncate(r_lo.prec).agreement(r_lo) >= r_lo.prec


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
    x = mk(n) * mk(n)
    r = padic_sqrt(x)
    assert r is not None
    assert (r * r).agreement(x) >= N - 1


def test_two_is_not_a_square():
    assert padic_sqrt(mk(2)) is None


def test_repr_shows_leading_digits_of_exact_values():
    assert repr(mk(3, INF)) == "(3 0 0 0 0 0 0 0...)*5^0 mod 5^inf"
    assert repr(mk(-1, INF)).startswith("(4 4 4 4 4 4 4 4...)")
    assert repr(mk(3 + 2 * P, 2)) == "(3 2...)*5^0 mod 5^2"


def test_division_by_zero_rejected():
    from plectic.errors import DivisionByZero

    with pytest.raises(DivisionByZero):
        mk(1) / PadicScalar.zero(P, N)
