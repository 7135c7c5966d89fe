"""Completed unit groups: coordinates, Frobenius action, minus eigenspace."""

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from expansion_oracle import make_sigma_point, quad_truncate, ref_plog
from plectic.errors import PlecticError, ShapeMismatch
from plectic.padic import INF, PadicScalar, QuadExtScalar, quad_teichmuller
from plectic.units import CompletedUnit, PointCompletion, UnitCompletion

P = 5
N = 40
U = UnitCompletion(P, N)
Q = PadicScalar(P, 1, 1, N)  # period 5
PTS = PointCompletion(U, Q)


def base(n, prec=N):
    return QuadExtScalar.from_base(PadicScalar.from_int(n, P, prec))


def rand_unit(rng):
    while True:
        u = U.ext(rng.randrange(P ** N), rng.randrange(P ** N))
        if not u.is_zero() and u.valuation == 0:
            return u


def test_uniformizer_coordinates():
    c = U.complete(base(P))
    assert c.val.agreement(PadicScalar.one(P, N)) >= N
    assert c.log.a.is_zero() and c.log.b.is_zero()


def test_torsion_dies_in_completion():
    zeta = quad_teichmuller(U.ext(2, 0))
    assert U.complete(zeta).is_zero()
    zeta2 = quad_teichmuller(U.ext(1, 3))
    assert U.complete(zeta2).is_zero()


def test_completion_is_a_homomorphism():
    rng = random.Random(23)
    for _ in range(60):
        u, v = rand_unit(rng), rand_unit(rng)
        got = U.complete(u * v)
        want = U.complete(u) + U.complete(v)
        assert got.agreement(want) >= N - 5


def test_sigma_fixes_base_field():
    c = U.complete(base(P))
    assert U.sigma(c).agreement(c) >= N - 1


def test_sigma_squared_is_identity():
    c = U.complete(U.ext(3, 7 * P))
    assert U.sigma(U.sigma(c)).agreement(c) >= N


def test_sigma_commutes_with_completion():
    rng = random.Random(29)
    for _ in range(20):
        u = rand_unit(rng)
        assert U.complete(u.frobenius()).agreement(U.sigma(U.complete(u))) >= N - 3


def test_sigma_in_coordinates_against_direct_computation():
    # completing sigma(1 + pw) = 1 - pw must match sigma of the coordinates
    u = U.ext(1, P)
    lhs = U.complete(U.ext(1, -P))
    rhs = U.sigma(U.complete(u))
    assert lhs.agreement(rhs) >= N - 2


def test_minus_projection_kills_sigma_fixed():
    assert U.minus_project(U.complete(base(P))).is_zero()
    assert U.minus_project(U.complete(U.ext(1 + P, 0))).is_zero()


def test_minus_projection_is_idempotent():
    # u / sigma(u) is (1 - sigma)(u): its minus part is twice that of u
    u = U.ext(2, 3 * P)
    m = U.minus_project(U.complete(u))
    again = U.minus_project(U.complete(u / u.frobenius()))
    assert again.agreement(m + m) >= N - 3


def test_minus_projection_eigen_decomposition_oracle():
    # direct oracle: the minus part of log(1 + pw) is log((1+pw)/(1-pw))/2
    u = U.ext(1, P)
    ratio = ref_plog(u / u.frobenius())
    two_inv = PadicScalar.from_fraction("1/2", P, N)
    got = U.minus_project(U.complete(u))
    want = ratio.b * two_inv / U.minus_scale
    assert got.agreement(want) >= N - 3
    assert not got.is_zero()


def test_norm_one_generator_normalization():
    u0 = U.norm_one_unit()
    assert u0.norm().agreement(PadicScalar.one(P, N)) >= N - 1
    coord = U.minus_project(U.norm_one_generator())
    assert coord.agreement(PadicScalar.one(P, N)) >= N - 2


def test_generator_homomorphism_doubling():
    u0 = U.norm_one_unit()
    gen = U.norm_one_generator()
    assert U.complete(u0 * u0).agreement(gen + gen) >= N - 3
    # a completed unit is (val, log) and a completed point is in Q_p(w): both
    # add, agree and test for zero on their scalars
    point = PTS.complete(u0)
    for v, by_parts, scalars in (
            (gen, CompletedUnit(gen.val + gen.val, gen.log + gen.log),
             (gen.val, gen.log.a, gen.log.b)),
            (point, QuadExtScalar(point.a + point.a, point.b + point.b),
             (point.a, point.b))):
        double = v + v
        assert double.agreement(by_parts) >= N - 3
        assert not v.is_zero() and not double.is_zero()
        assert v.agreement(v) == min(c.agreement(c) for c in scalars)
    with pytest.raises(AttributeError):
        setattr(gen, "val", gen.val)
    # a unit and a point do not mix, in either order
    for mixed in (lambda: gen + point, lambda: point + gen, lambda: point - gen,
                  lambda: point * gen, lambda: point.agreement(gen),
                  lambda: point + gen.val):
        with pytest.raises(ShapeMismatch):
            mixed()


def test_unit_and_point_agreement_refuse_each_other_in_both_orders():
    gen, point = U.norm_one_generator(), PTS.complete(U.norm_one_unit())
    for x, y in ((gen, point), (point, gen)):
        with pytest.raises(ShapeMismatch):
            x.agreement(y)


def _signed(x):
    """The integer of least absolute value that the scalar x equals."""
    n = 0 if x.is_zero() else x.unit * P ** x.v % P ** x.prec
    return n - P ** x.prec if 2 * n > P ** x.prec else n


def test_sigma_matrix_eigen_ranks():
    # sigma's matrix, row i the image under `sigma` of basis vector i, has
    # integer entries: its ranks over Q are those units.eigenspace_ranks
    # reads from sigma^2 = 1 and tr sigma = 1
    one = PadicScalar.one(P, N)
    zero = PadicScalar.zero(P, N)
    ident = [[one if i == j else zero for j in range(3)] for i in range(3)]
    images = (U.sigma(CompletedUnit(v, QuadExtScalar(a, b))) for v, a, b in ident)
    sigma = sympy.Matrix([[_signed(x) for x in (c.val, c.log.a, c.log.b)]
                          for c in images])
    eye = sympy.eye(3)
    assert sigma.rank() == 3
    assert (eye - sigma).rank() == 1
    assert (eye + sigma).rank() == 2
    assert (eye - sigma) * (eye + sigma) == sympy.zeros(3)
    assert sigma * sigma == eye and sigma.trace() == 1


# -- point completions -----------------------------------------------------------

def test_period_dies_in_point_completion():
    q_ext = base(P)
    for k in (-2, -1, 1, 2):
        assert PTS.complete(q_ext ** k).is_zero()


def test_point_completion_is_period_invariant():
    rng = random.Random(31)
    u = rand_unit(rng)
    assert PTS.complete(u * base(P)).agreement(PTS.complete(u)) >= N - 3


def test_point_sigma_compatible_with_frobenius():
    # PTS has reduction sign +1: sigma is diag(1, -1) on (x, y)
    rng = random.Random(37)
    u = rand_unit(rng)
    point = PTS.complete(u)
    sigma = make_sigma_point(1)((point.a, point.b))
    assert PTS.complete(u.frobenius()).agreement(QuadExtScalar(*sigma)) >= N - 3


def test_minus_line_matches_generator_powers():
    u0 = U.norm_one_unit()
    want = QuadExtScalar(PadicScalar.zero(P, N), U.minus_scale.scale_int(7))
    assert PTS.complete(u0 ** 7).agreement(want) >= N - 2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-(P ** 10), max_value=P ** 10),
       st.integers(min_value=-(P ** 10), max_value=P ** 10))
def test_completion_respects_inverses(a, b):
    u = U.ext(1 + P * a, P * b)
    c = U.complete(u)
    assert (c + U.complete(u.inverse())).is_zero() or \
        (c + U.complete(u.inverse())).agreement(
            U.complete(U.ext(1, 0))) >= N - 5


# -- the Teichmuller-free completion against the lifted root and a 3N oracle ----

def _reference_complete(units, u):
    """(v, log(u1 / zeta)) with zeta the Teichmuller lift of u1 = u / p^v."""
    v = u.valuation
    u1 = u * QuadExtScalar.from_base(PadicScalar(units.p, -v, 1, INF))
    l = ref_plog(u1 * quad_teichmuller(u1).inverse())
    return [units.base(v), l.a, l.b]


def _random_element(rng, units, prec):
    """A nonzero element of valuation -2..2, a principal unit 2 times in 5."""
    p = units.p
    while True:
        a, b = rng.randrange(p ** prec), rng.randrange(p ** prec)
        if rng.random() < 0.4:
            a, b = 1 + p * a, p * b
        u = QuadExtScalar.from_parts(a, b, p, prec)
        if u.valuation == 0:
            v = rng.randrange(-2, 3)
            return u * QuadExtScalar.from_base(PadicScalar(p, v, 1, INF))


@pytest.mark.parametrize("p,prec,count", [(5, 12, 20), (7, 12, 20), (5, 40, 20),
                                          (11, 40, 10), (5, 160, 2)])
def test_complete_matches_the_teichmuller_lift(p, prec, count):
    rng = random.Random(p * prec)
    units = UnitCompletion(p, prec)
    for _ in range(count):
        u = _random_element(rng, units, prec)
        got = units.complete(u)
        want = _reference_complete(units, u)
        assert [(s.v, s.unit, s.prec) for s in (got.val, got.log.a, got.log.b)] == \
            [(s.v, s.unit, s.prec) for s in want]


@pytest.mark.parametrize("p,prec", [(5, 12), (7, 40)])
def test_complete_digits_survive_tripled_precision(p, prec):
    rng = random.Random(p + prec)
    lo, hi = UnitCompletion(p, prec), UnitCompletion(p, 3 * prec)
    for _ in range(12):
        u_hi = _random_element(rng, hi, 3 * prec)
        c_lo, c_hi = lo.complete(quad_truncate(u_hi, prec)), hi.complete(u_hi)
        for s_lo, s_hi in zip((c_lo.val, c_lo.log.a, c_lo.log.b),
                              (c_hi.val, c_hi.log.a, c_hi.log.b)):
            assert s_lo.agreement(s_hi) >= s_lo.prec


# -- the folded power against the interval power it replaced ---------------------

def _interval_complete(units, u):
    """`complete` from the composed operations: u1^(p^2 - 1) formed on
    intervals, the series at it, and two interval divisions."""
    p, v = units.p, u.valuation
    u1 = u * QuadExtScalar.from_base(PadicScalar(p, -v, 1, INF))
    l = ref_plog(u1 ** (p * p - 1))
    order = PadicScalar.from_int(p * p - 1, p, INF)
    return CompletedUnit(units.base(v), QuadExtScalar(l.a / order, l.b / order))


def _fold_case(rng, p, prec):
    """(kind, u): a u of valuation v in -2..2 whose unit part has the
    components the fold has to get right: kind 0 unequal precisions, 1 a
    pure-w unit (a an exact zero), 2 a unit of Q_p (b an exact zero), 3 a
    component zero to precision -3..24 beside a unit one, 4 one exact
    component, 5 both exact."""
    kind = rng.choice((0, 0, 1, 1, 1, 2, 3, 3, 3, 4, 5))
    v = rng.randrange(-2, 3)

    def unit(n):  # an integer prime to p, small when it is to be exact
        x = rng.randrange(1, p ** (4 if n == INF else prec + 4))
        return x if x % p else x + 1

    def comp(val, n):  # valuation v + val at precision n; a zero when n <= v + val
        return PadicScalar(p, v + val, unit(n), n)

    def finite():
        return prec - rng.randrange(4) if rng.randrange(2) else rng.randint(1, prec) + v

    if kind == 0:
        a, b = comp(0, finite()), comp(rng.randrange(4), finite())
    elif kind in (1, 2):
        a, b = comp(0, rng.choice((INF, finite(), finite(), finite()))), PadicScalar.zero(p)
    elif kind == 3:
        a, b = comp(0, finite()), PadicScalar.zero(p, rng.randint(-3, rng.choice((2, 24))))
    elif kind == 4:
        a, b = comp(0, INF), rng.choice((comp(rng.randrange(4), finite()),
                                         PadicScalar.zero(p, finite())))
    else:
        a = PadicScalar(p, v, rng.choice((1, -1, unit(INF))), INF)
        b = rng.choice((PadicScalar.zero(p), comp(rng.randrange(3), INF)))
    if rng.randrange(2):  # 1 and w are alike for the rule
        a, b = b, a
    if kind == 1 and a.v != INF:
        a, b = b, a
    return kind, QuadExtScalar(a, b)


def _completion_outcome(fn, u):
    try:
        c = fn(u)
    except (ArithmeticError, ValueError, PlecticError) as e:
        return type(e).__name__
    return [(s.v, s.unit, s.prec) for s in (c.val, c.log.a, c.log.b)]


@pytest.mark.parametrize("p,prec,count", [(5, 20, 400), (7, 20, 400), (11, 20, 400),
                                          (5, 160, 20), (7, 160, 10), (5, 640, 4)])
def test_complete_matches_the_interval_power(p, prec, count):
    # the same (v, unit, prec) or the same exception as the series at the
    # interval power, on the edge operands: pure-w units, components zero to
    # a precision below 1 (where the power loses (p^2 - 1) times as much),
    # exact components and unequal precisions, at every v(u) in -2..2
    rng = random.Random(1100 + p * prec)
    units = UnitCompletion(p, prec)
    seen = set()
    for _ in range(count):
        kind, u = _fold_case(rng, p, prec)
        got = _completion_outcome(units.complete, u)
        assert got == _completion_outcome(lambda z: _interval_complete(units, z), u), u
        zeros = [s.prec for s in (u.a, u.b) if s.v == INF]
        seen.add((kind, u.valuation if not u.is_zero() else None,
                  bool(zeros) and min(zeros) - u.valuation < 1, isinstance(got, str)))
    if count >= 400:
        assert {k for k, *_ in seen} == set(range(6))
        assert {v for _, v, *_ in seen} >= set(range(-2, 3))
        assert any(coarse for _, _, coarse, _ in seen)  # a zero below 1 digit after the shift
        assert any(err for *_, err in seen)
