"""Tate curves: series coefficients against rational oracles, group law,
uniformization, and period recovery."""

import math
import random
from fractions import Fraction

import pytest

from expansion_oracle import quad_truncate
from plectic import tate
from plectic.errors import DivisionByZero, NotMultiplicativeReduction, PlecticError
from plectic.padic import INF, _POW, PadicScalar, QuadExtScalar, _dot, _quad, smallest_nonsquare
from plectic.tate import (
    CurvePoint,
    TateCurve,
    j_invariant,
    tate_coefficients,
    tate_period_from_j,
)

P = 5
N = 40
Q = PadicScalar(P, 1, 1, N)
CURVE = TateCurve(Q)
ONE = QuadExtScalar.from_parts(1, 0, P, N)


def on_curve(pt):
    """The agreement of the two sides of the curve equation at pt."""
    lhs, rhs = CURVE.curve_equation(pt)
    return lhs.agreement(rhs)


def rand_unit(rng, max_shift=2):
    while True:
        u = QuadExtScalar.from_parts(rng.randrange(P ** N), rng.randrange(P ** N),
                                     P, N)
        if u.valuation == 0 and (u - ONE).valuation <= max_shift:
            return u


# -- series oracles ------------------------------------------------------------

def _sigma_series(k, terms):
    """Coefficients of s_k(q) = sum_m sigma_k(m) q^m in exact rationals."""
    out = [Fraction(0)]
    for m in range(1, terms):
        out.append(Fraction(sum(d ** k for d in range(1, m + 1) if m % d == 0)))
    return out


def _eval_at_q(coeffs, prec):
    total = Fraction(0)
    for i, c in enumerate(coeffs):
        total += c * P ** i
    return PadicScalar.from_fraction(total, P, prec)


def test_tate_coefficients_match_divisor_sum_oracle():
    terms = 14
    s3 = _sigma_series(3, terms)
    s5 = _sigma_series(5, terms)
    a4_oracle = _eval_at_q([-5 * x for x in s3], terms)
    a6_oracle = _eval_at_q([-(5 * s3[i] + 7 * s5[i]) / 12 for i in range(terms)],
                           terms)
    a4, a6 = tate_coefficients(Q)
    assert a4.agreement(a4_oracle) >= terms - 1
    assert a6.agreement(a6_oracle) >= terms - 1


def test_a4_leading_term():
    a4, _ = tate_coefficients(Q)
    assert a4.agreement(PadicScalar.from_int(-5 * 5, P, 3)) >= 3


def test_j_series_classical_coefficients():
    # q*j(q) = 1 + 744q + 196884q^2 + 21493760q^3 + 864299970q^4 + O(q^5)
    j = j_invariant(Q)
    head = [1, 744, 196884, 21493760, 864299970]
    total = sum(Fraction(c) * P ** i for i, c in enumerate(head))
    diff = j * Q - PadicScalar.from_fraction(total, P, N)
    assert diff.is_zero() or diff.valuation >= 5


def test_j_has_pole_of_period_order():
    assert j_invariant(Q).v == -1
    q2 = PadicScalar(P, 2, 3, N)
    assert j_invariant(q2).v == -2


def test_discriminant_matches_eta_product():
    # Delta = q * prod (1 - q^n)^24, against the c4/c6 combination
    a4, a6 = tate_coefficients(Q)
    one = PadicScalar.one(P, INF)
    c4 = one - a4.scale_int(48)
    c6 = -one + a4.scale_int(72) - a6.scale_int(864)
    delta = (c4 ** 3 - c6 ** 2) / PadicScalar.from_int(1728, P, INF)
    eta = Q
    qn = Q
    n = 1
    while not qn.is_zero() and n <= N:
        eta = eta * (one - qn) ** 24
        qn = qn * Q
        n += 1
    assert delta.agreement(eta) >= N - 1


def test_period_round_trip():
    assert tate_period_from_j(j_invariant(Q)).agreement(Q) >= N
    q2 = PadicScalar(P, 2, 7, N)
    assert tate_period_from_j(j_invariant(q2)).agreement(q2) >= N


def _fixed_point_period(j):
    """The period by the fixed point q = 1/(j - (j(q) - 1/q)): one digit of
    q per step when v(q) = 1."""
    one = PadicScalar.one(j.p, INF)
    q = one / j
    for _ in range(int(j.prec - j.v) + 2):
        head = j_invariant(q) - one / q  # the integral part 744 + 196884q + ...
        q_next = one / (j - head)
        if q_next.agreement(q) >= q.prec:
            return q_next
        q = q_next
    return q


@pytest.mark.parametrize("prec", [40, 160, 320])
def test_period_from_j_matches_the_fixed_point(monkeypatch, prec):
    rng = random.Random(prec)
    for vq in (1, 2, 3):
        q = PadicScalar(P, vq, rng.randrange(1, P ** prec) * P + 1, prec)
        j = j_invariant(q)
        calls = []
        monkeypatch.setattr(tate, "tate_coefficients",
                            lambda *a: calls.append(1) or tate_coefficients(*a))
        got = tate_period_from_j(j)
        monkeypatch.undo()
        want = _fixed_point_period(j)
        assert (got.v, got.unit, got.prec) == (want.v, want.unit, want.prec)
        assert got.agreement(q) >= prec
        # Newton doubles the certified digits per step
        assert len(calls) <= 2 * math.log2(prec) + 4


def _full_precision_period(j):
    """The period by Newton's method with every step at full precision,
    stopped once a step moves no certified digit."""
    q = PadicScalar.one(j.p, INF) / j
    for _ in range(int(j.prec - j.v) + 2):
        jq, c4, c6 = tate._j_c4_c6(q)
        q_next = q - (jq - j) * q * c4 / (c6 * jq)
        if q_next.agreement(q) >= q.prec:
            return q_next
        q = q_next
    return q


@pytest.mark.parametrize("p", [5, 7, 11])
def test_period_from_j_matches_newton_at_full_precision(monkeypatch, p):
    # the same (v, unit, prec) as full-precision steps, on j from a period
    # and on j of any pole order and precision; the steps read q to about
    # 2N digits in all, and to N = prec(1/j) only once
    rng = random.Random(p)
    for _ in range(60):
        prec = rng.randrange(10, 90)
        unit = rng.randrange(p ** prec) * p + rng.randrange(1, p)
        if rng.randrange(2):
            j = j_invariant(PadicScalar(p, rng.randint(1, 4), unit, prec))
        else:
            j = PadicScalar(p, -rng.randint(1, 5), unit, prec)
        reads = []
        monkeypatch.setattr(tate, "tate_coefficients",
                            lambda q: reads.append(q.prec) or tate_coefficients(q))
        got = tate_period_from_j(j)
        monkeypatch.undo()
        want = _full_precision_period(j)
        assert (got.v, got.unit, got.prec) == (want.v, want.unit, want.prec)
        full = (PadicScalar.one(p, INF) / j).prec
        assert reads.count(full) == 1 and max(reads) == full
        assert sum(reads) <= 2 * full + (1 - j.v) * len(reads)


def test_good_reduction_rejected():
    with pytest.raises(NotMultiplicativeReduction):
        tate_period_from_j(PadicScalar.from_int(1728, P, N))
    with pytest.raises(NotMultiplicativeReduction):
        tate_coefficients(PadicScalar.from_int(3, P, N))


# -- uniformization ---------------------------------------------------------------

def test_kernel_is_the_period_lattice():
    q_ext = QuadExtScalar.from_base(Q)
    for k in range(-2, 3):
        u = q_ext ** k if k else ONE
        assert CURVE.phi(u).is_infinity()


def test_phi_is_a_homomorphism():
    rng = random.Random(41)
    for _ in range(30):
        u, v = rand_unit(rng), rand_unit(rng)
        lhs = CURVE.phi(u * v)
        rhs = CURVE.add(CURVE.phi(u), CURVE.phi(v))
        assert lhs.agreement(rhs) >= N - 8


def test_phi_respects_inverses():
    rng = random.Random(43)
    u = rand_unit(rng)
    p1, p2 = CURVE.phi(u), CURVE.phi(u.inverse())
    assert CURVE.add(p1, p2).is_infinity()
    assert p2.agreement(CURVE.negate(p1)) >= N - 5


def test_phi_squares():
    rng = random.Random(47)
    for _ in range(10):
        u = rand_unit(rng)
        assert CURVE.phi(u * u).agreement(
            CURVE.add(CURVE.phi(u), CURVE.phi(u))) >= N - 8


def test_points_stay_on_curve():
    rng = random.Random(53)
    u, v = rand_unit(rng), rand_unit(rng)
    pu, pv = CURVE.phi(u), CURVE.phi(v)
    for pt in (pu, pv, CURVE.add(pu, pv), CURVE.negate(pu),
               CURVE.add(pv, CURVE.add(pv, pv))):
        assert on_curve(pt) >= N - 8


def test_group_law_identity_and_associativity():
    rng = random.Random(59)
    pts = [CURVE.phi(rand_unit(rng)) for _ in range(3)]
    inf = CurvePoint.infinity()
    assert CURVE.add(pts[0], inf).agreement(pts[0]) == INF or \
        CURVE.add(pts[0], inf).agreement(pts[0]) >= N - 5
    a, b, c = pts
    lhs = CURVE.add(CURVE.add(a, b), c)
    rhs = CURVE.add(a, CURVE.add(b, c))
    assert lhs.agreement(rhs) >= N - 8


def test_sigma_on_points():
    rng = random.Random(61)
    u = rand_unit(rng)
    pt = CURVE.phi(u)
    assert CURVE.sigma(CURVE.sigma(pt)).agreement(pt) >= N - 5
    assert CURVE.phi(u.frobenius()).agreement(CURVE.sigma(pt)) >= N - 5
    assert CURVE.sigma(CurvePoint.infinity()).is_infinity()


def test_minus_generator_maps_to_finite_point():
    # the generator of the minus line must survive the parametrization
    g = QuadExtScalar.from_parts(1, P, P, N)
    u0 = g / g.frobenius()
    pt = CURVE.phi(u0)
    assert not pt.is_infinity()
    assert on_curve(pt) >= N - 8


# -- Lambert-form phi against the per-n series and a 3N oracle -------------------

def _reference_phi(curve, u):
    """The bi-periodic X, Y sums term by term: one inverse of u per n."""
    u = curve.reduce_to_annulus(u)
    one = QuadExtScalar.from_parts(1, 0, P, INF)
    if u.valuation == 0 and (u - one).is_zero():
        return CurvePoint.infinity()

    def x_term(w):
        return w / ((one - w) * (one - w))

    def y_term(w):
        return (w * w) / ((one - w) * (one - w) * (one - w))

    q = curve.q
    s1 = PadicScalar.zero(P, q.prec)
    qn, n = q, 1
    while n * q.v <= q.prec:
        s1 = s1 + qn.scale_int(n) / (PadicScalar.one(P, INF) - qn)
        qn, n = qn * q, n + 1
    q_ext = QuadExtScalar.from_base(q)
    x, y = x_term(u), y_term(u)
    qn, n = q_ext, 1
    while n * q.v <= u.prec:
        w, t = qn * u, qn * u.inverse()
        # y(1/t) = -t/(1 - t)^3
        x = x + x_term(w) + x_term(t)
        y = y + y_term(w) - t / ((one - t) * (one - t) * (one - t))
        qn, n = qn * q_ext, n + 1
    x = x - QuadExtScalar.from_base(s1 + s1)
    y = y + QuadExtScalar.from_base(s1)
    return CurvePoint(x, y)


def _digits(pt):
    """(valuation, unit, precision) of all four coordinates of a point."""
    if pt.is_infinity():
        return None
    return [(s.v, s.unit, s.prec) for z in (pt.x, pt.y) for s in (z.a, z.b)]


def _annulus_case(rng, vq, prec):
    """A period of valuation vq and a u with 0 <= v(u) < vq, both at prec."""
    q = PadicScalar(P, vq, rng.randrange(1, P ** prec), prec)
    while q.v != vq:
        q = PadicScalar(P, vq, rng.randrange(1, P ** prec), prec)
    vu = rng.randrange(vq)
    while True:
        if vu == 0 and rng.random() < 0.4:  # near 1: v(u - 1) > 0
            d = rng.randrange(1, 3)
            u = QuadExtScalar.from_parts(1 + P ** d * rng.randrange(P ** prec),
                                         P ** d * rng.randrange(P ** prec),
                                         P, prec)
        else:
            u = QuadExtScalar.from_parts(P ** vu * rng.randrange(P ** prec),
                                         P ** vu * rng.randrange(P ** prec),
                                         P, prec)
        if u.valuation == vu and not (u - ONE).is_zero():
            return q, u


@pytest.mark.parametrize("prec,count", [(12, 24), (40, 18), (160, 1)])
def test_phi_matches_the_per_term_series(prec, count):
    rng = random.Random(prec)
    for i in range(count):
        vq = i % 3 + 1 if prec < 160 else 2
        q, u = _annulus_case(rng, vq, prec)
        curve = TateCurve(q)
        assert _digits(curve.phi(u)) == _digits(_reference_phi(curve, u))
        # a curve's coefficients are those of tate_coefficients on its period
        a4, a6 = tate_coefficients(q)
        assert [(s.v, s.unit, s.prec) for s in (curve.a4, curve.a6)] == \
            [(s.v, s.unit, s.prec) for s in (a4, a6)]


@pytest.mark.parametrize("prec", [12, 40])
def test_phi_digits_survive_tripled_precision(prec):
    rng = random.Random(prec + 1)
    for i in range(12):
        q_hi, u_hi = _annulus_case(rng, i % 3 + 1, 3 * prec)
        lo = TateCurve(q_hi.truncate(prec)).phi(quad_truncate(u_hi, prec))
        hi = TateCurve(q_hi).phi(u_hi)
        for z_lo, z_hi in ((lo.x, hi.x), (lo.y, hi.y)):
            for s_lo, s_hi in ((z_lo.a, z_hi.a), (z_lo.b, z_hi.b)):
                assert s_lo.agreement(s_hi) >= s_lo.prec


# -- the Lambert series the theta and divisor sums replaced ----------------------

def _lambert(q, terms, count):
    """Extend `terms` in place to L_n = q^n / (1 - q^n) for n = 1..count."""
    if len(terms) < count:
        one = PadicScalar.one(q.p, INF)
        qn = q ** (len(terms) + 1)
        while len(terms) < count:
            terms.append(qn / (one - qn))
            qn = qn * q
    return terms


def _lambert_power_sums(q, terms, ks):
    """[s_k(q) for k in ks], s_k = sum_{n v(q) <= prec(q)} n^k L_n, on intervals."""
    count = int(q.prec // q.v)
    lam = _lambert(q, terms, count)[:count]
    one = PadicScalar.one(q.p, INF)
    return [_dot(q.p, [(l, one, n ** k) for n, l in enumerate(lam, 1)]) for k in ks]


def _lambert_coefficients(q):
    """(a4, a6) from the Lambert sums s_3, s_5."""
    if q.is_zero() or q.v < 1:
        raise NotMultiplicativeReduction("Tate period needs valuation >= 1")
    s3, s5 = _lambert_power_sums(q, [], (3, 5))
    a4 = -(s3.scale_int(5))
    a6 = -(s3.scale_int(5) + s5.scale_int(7)) / PadicScalar.from_int(12, q.p, INF)
    return a4, a6


def _lambert_j(q):
    a4, a6 = _lambert_coefficients(q)
    one = PadicScalar.one(q.p, INF)
    c4 = one - a4.scale_int(48)
    c6 = -one + a4.scale_int(72) - a6.scale_int(864)
    return c4 ** 3 / ((c4 ** 3 - c6 ** 2) / PadicScalar.from_int(1728, q.p, INF))


def _tail(u, u_inv, lam, first, n):
    """The X and Y Lambert sums over the terms m >= first (L_m = lam[m-1]),
    as integers (X_a, X_b, Y_a, Y_b) modulo p^n.  With v = v(u), a = p^v u
    and b = p^v u^-1 on integers, term m of X is m f_m (a^m + b^m), of Y
    f_m (C(m,2) a^m - C(m+1,2) b^m), f_m = L_m p^(-mv).  Both read only
    a^m + b^m = U_(m+1) - P U_(m-1) and a^m - b^m = (a - b) U_m for the
    Lucas sequence U_0 = 0, U_1 = 1, U_(m+1) = s U_m - P U_(m-1), s = a + b,
    P = ab = p^(2v): Y = ((a - b) sum m^2 f_m U_m - X) / 2.  Term m has
    valuation e_m = v(L_m) - mv, so its factors and the U carried on to
    later terms are kept modulo p^(n - e_m) only."""
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


def _closed_forms(w):
    """w/(1-w)^2 and w^2/(1-w)^3 on intervals: the closed-form parts of the
    Lambert sums, whose precisions `TateCurve.phi` reads by rule."""
    d = QuadExtScalar.from_parts(1, 0, w.p, INF) - w
    dd = d * d
    return w / dd, (w * w) / (dd * d)


def _term_count(curve, u, x, y):
    """The Lambert terms that can reach a component's precision: term m has
    valuation >= m (v(q) - v(u)), and no component of the closed-form part
    x, y is finer than the largest finite precision among them."""
    top = max(s.prec for s in (x.a, x.b, y.a, y.b) if s.prec != INF)
    return int(top // (curve.q.v - u.valuation))


def _lambert_phi(curve, u, lam):
    """phi as the Lambert sums: the closed-form part and the terms below the
    first m whose precision bound reaches the closed-form part's largest
    precision on intervals, the rest by the Lucas `_tail` modulo p^top;
    `lam` is the curve's list of L_m, extended on demand."""
    u = curve.reduce_to_annulus(u)
    one = PadicScalar.one(curve.p, INF)
    if u.valuation == 0 and (u - QuadExtScalar.from_base(one)).is_zero():
        return CurvePoint.infinity()
    s1, = _lambert_power_sums(curve.q, lam, (1,))
    x, y = _closed_forms(u)
    x = x - QuadExtScalar.from_base(s1 + s1)
    y = y + QuadExtScalar.from_base(s1)
    vu = u.valuation
    count = _term_count(curve, u, x, y)
    u_inv = u.inverse()
    up, um = u, u_inv
    sums = xa, xb, ya, yb = [[(s, one, 1)] for s in (x.a, x.b, y.a, y.b)]
    top = max(s.prec for s in (x.a, x.b, y.a, y.b) if s.prec != INF)
    lam = _lambert(curve.q, lam, count)[:count]
    for m, l in enumerate(lam, 1):
        if min(min(u.prec, u_inv.prec - (m - 1) * vu) + l.v,
               l.prec - m * vu) >= top:
            for terms, t in zip(sums, _tail(u, u_inv, lam, m, top)):
                terms.append((one, one, t))
            break
        c2, c3 = m * (m - 1) // 2, -m * (m + 1) // 2
        for xs, ys, s, t in ((xa, ya, up.a, um.a), (xb, yb, up.b, um.b)):
            xs.append((s + t, l, m))
            ys.append((_dot(curve.p, ((s, one, c2), (t, one, c3))), l, 1))
        up, um = up * u, um * u_inv
    xa, xb, ya, yb = (_dot(curve.p, terms) for terms in sums)
    return CurvePoint(_quad(xa, xb), _quad(ya, yb))


def _theta_case(rng, p, prec, vq, kind):
    """A u on the annulus of a period of valuation vq at prec: kind 0 has
    v(u) = 0..vq-1, kinds 1-3 have v(u - 1) = kind, kind 4 a component that
    is zero to prec and kind 5 one that is an exact zero (u in Q_p or
    Q_p w)."""
    m = p ** prec
    while True:
        vu = rng.randrange(vq)
        if kind == 0:
            a, b = p ** vu * rng.randrange(m), p ** vu * rng.randrange(m)
        elif kind <= 3:
            a, b = 1 + p ** kind * rng.randrange(m), p ** kind * rng.randrange(m)
        else:
            a, b = p ** vu * rng.randrange(1, m), (p ** prec if kind == 4 else 0)
            if rng.randrange(2):
                a, b = b, a
        u = QuadExtScalar.from_parts(a, b, p, prec)
        if u.is_zero() or (u - QuadExtScalar.from_parts(1, 0, p, INF)).is_zero():
            continue
        if kind in (1, 2, 3) and (u - QuadExtScalar.from_parts(1, 0, p, INF)).valuation != kind:
            continue
        if kind not in (1, 2, 3) and u.valuation >= vq:
            continue
        return u


@pytest.mark.parametrize("p", [5, 7, 11])
def test_phi_matches_the_lambert_phi(p):
    # identical (v, unit, prec) on all four coordinates, 360 units a prime
    rng = random.Random(600 + p)
    seen = set()
    for prec in (12, 40, 160):
        for vq in (1, 2, 3):
            for _ in range(2):
                q = PadicScalar(p, vq, _lossy_unit(rng, p, prec), prec)
                curve, lam = TateCurve(q), []
                for i in range(20):
                    u = _theta_case(rng, p, prec, vq, i % 6)
                    assert _digits(curve.phi(u)) == _digits(_lambert_phi(curve, u, lam)), \
                        (q, u)
                    depth = (u - QuadExtScalar.from_parts(1, 0, p, INF)).valuation
                    seen.add((vq, u.valuation, min(depth, 4) if u.valuation == 0 else 0,
                              u.a.is_zero() or u.b.is_zero()))
    # every v(u) below v(q), u - 1 at depths 1, 2 and 3, and zero components
    assert {(vq, vu) for vq, vu, _, _ in seen} == {(vq, vu) for vq in (1, 2, 3)
                                                    for vu in range(vq)}
    assert {d for _, _, d, _ in seen} >= {1, 2, 3}
    assert any(z for *_, z in seen)


def _outcome_of(fn, *args):
    try:
        out = fn(*args)
    except PlecticError as e:
        return type(e).__name__
    return [(s.v, s.unit, s.prec) for s in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("prec", [1, 12, 40, 160, 640])
def test_power_sums_match_the_lambert_sums(prec):
    # a4, a6, s_1 and j from the divisor sums have the Lambert sums' intervals
    rng = random.Random(700 + prec)
    for p in (5, 7):
        for vq in (1, 2, 3):
            for _ in range(2 if prec < 640 else 1):
                q = PadicScalar(p, vq, _lossy_unit(rng, p, prec), prec)
                assert _outcome_of(tate_coefficients, q) == \
                    _outcome_of(_lambert_coefficients, q)
                assert _outcome_of(j_invariant, q) == _outcome_of(_lambert_j, q)
                if q.is_zero():  # prec <= v(q): no curve
                    with pytest.raises(NotMultiplicativeReduction):
                        TateCurve(q)
                    continue
                assert _outcome_of(lambda: TateCurve(q)._s1) == \
                    _outcome_of(lambda: _lambert_power_sums(q, [], (1,))[0])


# -- phi against the interval loop it replaced, on lossy operands ---------------

def _object_phi(curve, u):
    """phi with every Lambert term summed on intervals: u^m and u^-m as
    interval products, one sum of products per coordinate component."""
    u = curve.reduce_to_annulus(u)
    one = PadicScalar.one(curve.p, INF)
    if u.valuation == 0 and (u - QuadExtScalar.from_base(one)).is_zero():
        return CurvePoint.infinity()
    lam = []
    s1, = _lambert_power_sums(curve.q, lam, (1,))
    x, y = _closed_forms(u)
    x = x - QuadExtScalar.from_base(s1 + s1)
    y = y + QuadExtScalar.from_base(s1)
    u_inv = u.inverse()
    up, um = u, u_inv
    sums = xa, xb, ya, yb = [[(s, one, 1)] for s in (x.a, x.b, y.a, y.b)]
    for m, l in enumerate(_lambert(curve.q, lam, _term_count(curve, u, x, y)), 1):
        c2, c3 = m * (m - 1) // 2, -m * (m + 1) // 2
        for xs, ys, s, t in ((xa, ya, up.a, um.a), (xb, yb, up.b, um.b)):
            xs.append((s + t, l, m))
            ys.append((_dot(curve.p, ((s, one, c2), (t, one, c3))), l, 1))
        up, um = up * u, um * u_inv
    xa, xb, ya, yb = (_dot(curve.p, terms) for terms in sums)
    return CurvePoint(QuadExtScalar(xa, xb), QuadExtScalar(ya, yb))


def _phi_outcome(fn, u):
    try:
        return _digits(fn(u))
    except (ArithmeticError, PlecticError) as e:
        return type(e).__name__


def _lossy_unit(rng, p, n):
    unit = rng.randrange(1, p ** n)
    return unit if unit % p else unit + 1


def _lossy_component(rng, p, prec, lo, hi):
    """A scalar of valuation lo..hi at prec - {0..3}, now and then zero."""
    n = prec - rng.randrange(4)
    if rng.random() < 0.05:
        return PadicScalar.zero(p, n)
    return PadicScalar(p, rng.randint(lo, hi), _lossy_unit(rng, p, n), n)


def _lossy_case(rng, p, prec):
    """A period of valuation 1..3 at prec - {0, 1, 2} and a u whose
    components have their own valuations and precisions: anywhere in
    -3..5, a multiple of q (v(u) >= v(q) before reduction) or near 1."""
    vq = rng.randint(1, 3)
    q = PadicScalar(p, vq, _lossy_unit(rng, p, prec), prec - rng.randrange(3))
    kind = rng.randrange(4)
    if kind == 0:  # near 1
        d = rng.randint(1, 3)
        a = PadicScalar.one(p, INF) + _lossy_component(rng, p, prec, d, d + 2)
        u = QuadExtScalar(a.truncate(prec - rng.randrange(4)),
                          _lossy_component(rng, p, prec, d, d + 3))
    elif kind == 1:  # a multiple of q
        lo = vq * rng.randint(1, 2)
        u = QuadExtScalar(_lossy_component(rng, p, prec, lo, lo + 2),
                          _lossy_component(rng, p, prec, lo, lo + 3))
    else:
        u = QuadExtScalar(_lossy_component(rng, p, prec, -3, 5),
                          _lossy_component(rng, p, prec, -3, 5))
    return q, u


@pytest.mark.parametrize("p", [5, 7, 11])
def test_phi_matches_the_interval_loop_on_lossy_operands(p):
    rng = random.Random(400 + p)
    for _ in range(300):
        q, u = _lossy_case(rng, p, 24)
        curve = TateCurve(q)
        assert _phi_outcome(curve.phi, u) == \
            _phi_outcome(lambda z: _object_phi(curve, z), u), (q, u)


def _lifted(s, prec):
    """The representative of s, certified to prec; an exact zero stays one."""
    if s.v == INF:
        return s if s.prec == INF else PadicScalar.zero(s.p, prec)
    return PadicScalar(s.p, s.v, s.unit, prec)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_phi_digits_survive_tripled_precision_on_lossy_operands(p):
    # phi of the same representatives at 3N digits: components finer than
    # the least precision of u need the Lambert terms past prec(u), which a
    # sum stopped at prec(u) / (v(q) - v(u)) terms drops
    rng = random.Random(400 + p)
    for _ in range(300):
        q, u = _lossy_case(rng, p, 24)
        curve = TateCurve(q)
        try:
            u = curve.reduce_to_annulus(u)
            lo = curve.phi(u)
        except (ArithmeticError, PlecticError):
            continue
        if lo.is_infinity():
            continue
        hi = TateCurve(_lifted(q, 72)).phi(QuadExtScalar(_lifted(u.a, 72), _lifted(u.b, 72)))
        for z_lo, z_hi in ((lo.x, hi.x), (lo.y, hi.y)):
            for s_lo, s_hi in ((z_lo.a, z_hi.a), (z_lo.b, z_hi.b)):
                assert s_lo.agreement(s_hi) >= s_lo.prec, (q, u)


def _quotient_component(rng, p):
    """A scalar for the quotient rules: an exact zero, an exact value, a
    zero to precision -1..8, or a value of valuation -3..5 known to 1..8
    digits past it."""
    kind = rng.randrange(5)
    if kind == 0:
        return PadicScalar.zero(p)
    if kind == 2:
        return PadicScalar.zero(p, rng.randint(-1, 8))
    v = rng.randint(-3, 5)
    prec = INF if kind == 1 else v + rng.randint(1, 8)
    return PadicScalar(p, v, _lossy_unit(rng, p, 12), prec)


def _formed_quotient_precisions(w, z):
    out = w * z.inverse()
    return out.a.prec, out.b.prec


def _quotient_outcome(fn, w, z):
    try:
        return fn(w, z)
    except (PlecticError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_quotient_precisions_match_the_formed_quotient(p):
    # `phi` reads the precisions of its quotients, and `_head_precisions`
    # prec(u^-1) as that of 1/u, from this rule without forming them
    rng = random.Random(700 + p)
    one = QuadExtScalar.from_base(PadicScalar.one(p, INF))
    seen = set()
    for i in range(1000):
        w = one if i % 4 == 0 else \
            QuadExtScalar(_quotient_component(rng, p), _quotient_component(rng, p))
        z = QuadExtScalar(_quotient_component(rng, p), _quotient_component(rng, p))
        want = _quotient_outcome(_formed_quotient_precisions, w, z)
        assert _quotient_outcome(tate._quotient_precisions, w, z) == want, (w, z)
        seen.add(want[0] if isinstance(want[0], type) else INF in want)
    assert seen == {DivisionByZero, ValueError, True, False}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_on_curve_margin_near_the_origin(d):
    # v(u - 1) = d puts phi(u) at v(x) = -2d, where the affine equation
    # loses ~3|v(x)| digits (33, 26, 19 of 40); the chart z = x/y, w = 1/y
    # keeps them
    rng = random.Random(d)
    unit = QuadExtScalar.from_parts(P ** d * rng.randrange(1, P),
                                    P ** (d + 1) * rng.randrange(P ** N), P, N)
    pt = CURVE.phi(ONE + unit)
    assert pt.x.valuation == -2 * d
    assert on_curve(pt) >= N - 4
