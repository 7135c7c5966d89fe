"""Group algebras: augmentation filtration, involution, graded pieces."""

import itertools
import random
from pathlib import Path

import pytest

from expansion_oracle import as_elem, rel_aug_degree
from plectic import grpalg
from plectic.errors import (DegreeTooLow, RankDeficient, ShapeMismatch,
                             WorkLimitExceeded)
from plectic.grpalg import (
    GradedPiece,
    GroupAlgebraElem,
    GroupShape,
    check_lemma_free_graded_injectivity,
)
from plectic.padic import INF, PadicScalar
from plectic.plectic_ops import tower_shape
from plectic.runner import run
from plectic.scenario import load_scenario

P = 5
N = 30
SHAPE = GroupShape((2,), 2, 6, P, N)
ONE = GroupAlgebraElem.one(SHAPE)


def mk(n):
    return PadicScalar.from_int(n, P, N)


def gen(i):
    return GroupAlgebraElem.group_elem(
        SHAPE, None, tuple(1 if j == i else 0 for j in range(SHAPE.s)))


def rand_elem(rng, min_deg=0, shape=SHAPE):
    out = GroupAlgebraElem.zero(shape)
    for _ in range(4):
        while True:
            e = tuple(rng.randrange(shape.degree + 1) for _ in range(shape.s))
            if min_deg <= sum(e) <= shape.degree:
                break
        q = tuple(rng.randrange(d) for d in shape.divisors)
        out = out + GroupAlgebraElem.monomial(shape, q, e, rng.randrange(1, P ** 6))
    return out


def variable(shape, i):
    return GroupAlgebraElem.monomial(
        shape, None, tuple(1 if j == i else 0 for j in range(shape.s)), 1)


# -- reference expansion: the products the closed forms replace ---------------

def reference_inverse(unit):
    """(1 + x)^{-1} for x of positive degree, by the geometric series."""
    one = GroupAlgebraElem.one(unit.shape)
    x = unit - one
    out = power = one
    for k in range(unit.shape.degree):
        power = power * x
        out = out + (-power if k % 2 == 0 else power)
    return out


def reference_group_elem(shape, q, a):
    """[q] * prod (1+t_i)^{a_i} as |a| repeated products."""
    out = GroupAlgebraElem.monomial(shape, q, None, 1)
    for i, ai in enumerate(a):
        step = GroupAlgebraElem.one(shape) + variable(shape, i)
        if ai < 0:
            step, ai = reference_inverse(step), -ai
        for _ in range(ai):
            out = out * step
    return out


def reference_involution(x):
    """Each term times the dual (1+t_i)^{-1} - 1 once per unit of exponent."""
    shape = x.shape
    one = GroupAlgebraElem.one(shape)
    duals = [reference_inverse(one + variable(shape, i)) - one
             for i in range(shape.s)]
    out = GroupAlgebraElem.zero(shape)
    for (q, e), c in x.expand().items():
        term = GroupAlgebraElem.monomial(shape, shape.q_neg(q), None, 1).scale(c)
        for i, a in enumerate(e):
            for _ in range(a):
                term = term * duals[i]
        out = out + term
    return out


def reference_product(x, y):
    """The coefficients of the all-pairs product: every term times every
    term, and a pair of degree beyond D dropped.  Sums that vanish to
    precision stay."""
    shape = x.shape
    out = {}
    for (q1, e1), c1 in x.expand().items():
        for (q2, e2), c2 in y.expand().items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) > shape.degree:
                continue
            k = tuple((a + b) % d for a, b, d in zip(q1, q2, shape.divisors)), e
            c = c1 * c2
            out[k] = out[k] + c if k in out else c
    return out


def rand_product_operand(rng, shape):
    """Up to six terms of any degree <= D.

    Valuations run up to N and precisions are N, N - 5 or exact.
    """
    coeffs = {}
    for _ in range(rng.randrange(7)):
        while True:
            e = tuple(rng.randrange(shape.degree + 1) for _ in range(shape.s))
            if sum(e) <= shape.degree:
                break
        q = tuple(rng.randrange(d) for d in shape.divisors)
        unit = rng.choice([1, -1, 2, -2, rng.randrange(1, P ** 8)])
        coeffs[q, e] = PadicScalar(P, rng.randrange(N), unit,
                                   rng.choice([N, N - 5, INF]))
    return GroupAlgebraElem(shape, coeffs)


def times_order_two(x, sign):
    """x * (1 + sign [g]) for g = (1, 0, ..) of order 2, without `*`:
    (1 + [g])x * (1 - [g])y cancels to zero at every key."""
    moved = {((q[0] ^ 1,) + q[1:], e): c.scale_int(sign)
             for (q, e), c in x.expand().items()}
    return x + GroupAlgebraElem(x.shape, moved)


def intervals(x):
    """(v, unit, prec) per monomial of an element or a graded piece."""
    coeffs = x.expand() if isinstance(x, GroupAlgebraElem) else x.coeffs
    return {k: (c.v, c.unit, c.prec) for k, c in coeffs.items()}


ORACLE_SHAPES = [SHAPE, GroupShape((3,), 4, 10, P, N)]


def rand_oracle_elem(rng, shape):
    """Four terms with multi-digit coefficients, some of them non-units."""
    out = GroupAlgebraElem.zero(shape)
    for _ in range(4):
        e = tuple(rng.randrange(3) for _ in range(shape.s))
        q = tuple(rng.randrange(d) for d in shape.divisors)
        c = rng.randrange(1, P ** 6) * P ** rng.randrange(3)
        out = out + GroupAlgebraElem.monomial(shape, q, e, c)
    return out


# -- dense references: substitution passes and the per-term expansion -------

def substitute(coeffs, s, budget, row):
    """Map t_i^k to t_i^k * sum_m row(i, k)[m] t_i^m, one variable i per pass,
    forming no term past total degree `budget`.  Each term emits c * row[m]
    by `scale_int` and `+` (a row [1] passes it through), so a coefficient
    is the interval the per-term expansion gives; a sum that vanishes to
    precision stays, as its precision bounds the later passes."""
    for i in range(s):
        out = {}
        for (q, e), c in coeffs.items():
            head, k, tail = e[:i], e[i], e[i + 1:]
            for m, n in enumerate(row(i, k)[:budget + 1 - sum(e)]):
                key, d = (q, head + (k + m,) + tail), c if n == 1 else c.scale_int(n)
                out[key] = out[key] + d if key in out else d
        coeffs = out
    return coeffs


def substituted_involution(x):
    """The involution as dense substitution passes t_i -> -t_i/(1+t_i)."""
    shape, degree = x.shape, x.shape.degree
    coeffs = substitute({(shape.q_neg(q), e): c for (q, e), c in x.expand().items()},
                        shape.s, degree, lambda i, k: grpalg._dual_row(k, degree))
    return GroupAlgebraElem(shape, coeffs)


def substituted_group_elem(shape, q, a):
    one = {(q, (0,) * shape.s): PadicScalar.one(shape.p, shape.prec)}
    coeffs = substitute(one, shape.s, shape.degree,
                        lambda i, k: grpalg._binomials(a[i], shape.degree))
    return GroupAlgebraElem(shape, coeffs)


def binomial(a, k):
    """C(a, k) for any integer a."""
    out = 1
    for j in range(k):
        out = out * (a - j) // (j + 1)
    return out


def add_per_term_series(shape, coeffs, scalar, q, b, a):
    """Add scalar * [q] * prod t_i^{b_i} (1+t_i)^{a_i} into `coeffs`, this
    one term's series on its own: one `scale_int` of the product of the
    binomials and one `+` per emitted term, none past degree D."""
    budget = shape.degree - sum(b)
    terms = [((), 1, budget)]
    for bi, ai in zip(b, a):
        row = [binomial(ai, k) for k in range(budget + 1 if ai < 0
                                              else min(ai, budget) + 1)]
        terms = [(e + (bi + k,), n * ck, left - k)
                 for e, n, left in terms for k, ck in enumerate(row[:left + 1])]
    for e, n, _ in terms:
        c = scalar.scale_int(n)
        coeffs[q, e] = coeffs[q, e] + c if (q, e) in coeffs else c


def per_term_involution(x):
    shape, out = x.shape, {}
    for (q, e), c in x.expand().items():
        add_per_term_series(shape, out, -c if sum(e) % 2 else c,
                            shape.q_neg(q), e, tuple(-k for k in e))
    return GroupAlgebraElem(shape, out)


def per_term_group_elem(shape, q, a):
    out = {}
    add_per_term_series(shape, out, PadicScalar.one(shape.p, shape.prec), q,
                        (0,) * shape.s, a)
    return GroupAlgebraElem(shape, out)


def rand_coefficient(rng, p, prec=None):
    """p^v * unit with v in [-3, 10] and the precision N, N - 7 or exact."""
    prec = rng.choice([N, N - 7, INF]) if prec is None else prec
    return PadicScalar(p, rng.randrange(-3, 11), rng.randrange(1, p ** 8), prec)


def rand_exponent(rng, shape, low, high, support):
    """A multi-exponent of degree in [low, high] on at most `support` variables."""
    while True:
        e = [0] * shape.s
        for i in rng.sample(range(shape.s), min(support, shape.s)):
            e[i] = rng.randrange(high + 1)
        if low <= sum(e) <= high:
            return tuple(e)


def rand_series_operand(rng, shape):
    """Up to five terms, often all of some least degree.

    Input maps hold no zero, so half the elements also carry a pair a*t_1^k*m + b*t_1^(k+1)*m, m = t_2*t^e, with
    b = -k*a exactly and at lower precision, which the first pass sums to
    zero at t_1^(k+1)*m, beside an exact term t_1^(k+1)*t_2*m whose output
    coefficient that zero's precision bounds.  Returns the element and
    whether it carries the pair."""
    p, degree = shape.p, shape.degree
    low = rng.choice([0, 0, 1, 2, degree // 2])
    coeffs = {}
    for _ in range(rng.randrange(6)):
        e = rand_exponent(rng, shape, low, degree, rng.randrange(1, 4))
        coeffs[tuple(rng.randrange(d) for d in shape.divisors), e] = \
            rand_coefficient(rng, p)
    pair = shape.s >= 2 and degree >= 4 and rng.random() < 0.5
    if pair:
        e = rand_exponent(rng, shape, 0, degree - 4, 2)
        q = tuple(rng.randrange(d) for d in shape.divisors)
        a, k = rand_coefficient(rng, p, N), e[0] + 1

        def at(d1, d2):
            return q, (e[0] + d1, e[1] + 1 + d2) + e[2:]
        coeffs[at(1, 0)] = a
        coeffs[at(2, 0)] = PadicScalar(p, a.v, -k * a.unit, N - 9)
        coeffs[at(2, 1)] = rand_coefficient(rng, p, INF)
    return GroupAlgebraElem(shape, coeffs), pair


def leading_or_raise(fn):
    try:
        return intervals(fn())
    except DegreeTooLow:
        return DegreeTooLow


# (divisors, s, D): s = 1..8, the t = 3 shape last, at a smaller sample
SERIES_SHAPES = [((2,), 1, 9), ((3,), 2, 7), ((2, 2), 3, 6), ((), 4, 6),
                 ((2, 3), 5, 5), ((2,), 6, 5), ((3,), 7, 4), ((2, 2, 2), 8, 18)]


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("divisors,s,degree", SERIES_SHAPES,
                         ids=["s%dD%d" % (s, d) for _, s, d in SERIES_SHAPES])
def test_substitution_matches_the_per_term_expansion(p, divisors, s, degree):
    # the separable form, expanded, has the same keys and (v, unit, prec)
    # as each term's own series and as the substitution passes; its
    # leading term, expanded only to its degree, is the full expansion's,
    # raising alike; and products match the all-pairs product
    shape = GroupShape(divisors, s, degree, p, N)
    rng = random.Random("%d:%d:%d" % (p, s, degree))
    samples = 6 if s == 8 else 28
    pairs = 0
    xs = []
    for _ in range(samples):
        x, pair = rand_series_operand(rng, shape)
        pairs += pair
        xs.append(x)
        got, ref = x.involution(), per_term_involution(x)
        assert intervals(got) == intervals(ref) \
            == intervals(substituted_involution(x))
        for n in range(degree + 1):
            assert leading_or_raise(lambda: got.leading_term(n)) \
                == leading_or_raise(lambda: ref.leading_term(n))
    for x, y in zip(xs, xs[1:]):
        got = x * y
        assert intervals(got) \
            == intervals(GroupAlgebraElem(shape, reference_product(x, y)))
    for _ in range(samples // 4):
        q = tuple(rng.randrange(d) for d in divisors)
        a = tuple(rng.randrange(-3, 5) for _ in range(s))
        got, ref = (GroupAlgebraElem.group_elem(shape, q, a),
                    per_term_group_elem(shape, q, a))
        assert intervals(got) == intervals(ref) \
            == intervals(substituted_group_elem(shape, q, a))
    assert pairs > 0 or s == 1


def test_multiplication_by_one():
    rng = random.Random(2)
    x = rand_elem(rng)
    assert (x * ONE).agreement(x) >= N


def test_augmentation_product_expansion():
    g, h = gen(0), gen(1)
    gh = GroupAlgebraElem.group_elem(SHAPE, None, (1, 1))
    assert ((g - ONE) * (h - ONE)).agreement(gh - g - h + ONE) >= N


def test_generator_minus_one_is_the_variable():
    t1 = gen(0) - ONE
    assert set(t1.expand()) == {(((0,), (1, 0)))}
    sq = t1 * t1
    assert set(sq.expand()) == {(((0,), (2, 0)))}


def test_involution_of_one():
    assert ONE.involution().agreement(ONE) >= N


def test_involution_negates_modulo_degree_two():
    # [g]-1 maps to -([g]-1) up to higher filtration steps
    t1 = gen(0) - ONE
    diff = t1.involution() + t1
    assert rel_aug_degree(diff) >= 2


def test_involution_geometric_series():
    t1 = gen(0) - ONE
    expected = {}
    for k in range(1, SHAPE.degree + 1):
        expected[((0,), (k, 0))] = mk((-1) ** k)
    assert t1.involution().agreement(GroupAlgebraElem(SHAPE, expected)) >= N


def test_involution_is_an_involution_and_ring_map():
    rng = random.Random(3)
    for _ in range(10):
        x, y = rand_elem(rng), rand_elem(rng)
        assert x.involution().involution().agreement(x) >= N
        prod = x * y
        assert prod.involution().agreement(x.involution() * y.involution()) >= N


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=["s2D6", "s4D10"])
def test_closed_forms_match_the_expansion(shape):
    rng = random.Random(13)
    for _ in range(6):
        x = rand_oracle_elem(rng, shape)
        closed, ref = x.involution(), reference_involution(x)
        assert set(closed.expand()) == set(ref.expand())
        assert closed.agreement(ref) >= N
    for _ in range(6):
        q = tuple(rng.randrange(d) for d in shape.divisors)
        a = tuple(rng.randrange(-2, 4) for _ in range(shape.s))
        closed, ref = (GroupAlgebraElem.group_elem(shape, q, a),
                       reference_group_elem(shape, q, a))
        assert set(closed.expand()) == set(ref.expand())
        assert closed.agreement(ref) >= N


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=["s2D6", "s4D10"])
def test_negative_exponents(shape):
    rng = random.Random(17)
    one = GroupAlgebraElem.one(shape)
    for _ in range(4):
        q = tuple(rng.randrange(d) for d in shape.divisors)
        a = tuple(rng.randrange(-3, 4) for _ in range(shape.s))
        neg = tuple(-x for x in a)
        g = GroupAlgebraElem.group_elem(shape, q, a)
        g_inv = GroupAlgebraElem.group_elem(shape, shape.q_neg(q), neg)
        assert (g * g_inv).agreement(one) >= N
        assert g.involution().agreement(g_inv) >= N


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("divisors", [(2,), (2, 2), (2, 2, 2)],
                         ids=["Q2", "Q22", "Q222"])
def test_product_matches_the_all_pairs_product(divisors, s):
    rng = random.Random("%r:%d" % (divisors, s))
    dropped = vanished = False
    for degree in (1, 2, 3, 4):
        shape = GroupShape(divisors, s, degree, P, N)
        for _ in range(25):
            x, y = rand_product_operand(rng, shape), rand_product_operand(rng, shape)
            if rng.random() < 0.2:
                x, y = times_order_two(x, 1), times_order_two(y, -1)
            coeffs = reference_product(x, y)
            got = x * y
            assert intervals(got) == intervals(GroupAlgebraElem(shape, coeffs))
            dropped = dropped or any(sum(e1) + sum(e2) > degree
                                     for _, e1 in x.expand()
                                     for _, e2 in y.expand())
            vanished = vanished or any(c.is_zero() for c in coeffs.values())
    assert dropped and vanished


def test_iota_product_is_at_least_as_precise_as_the_dense_product():
    # iota(x) iota(y) multiplies exact factors before a coefficient meets
    # another, so a key may be known to more digits than in the all-pairs
    # product of the substituted involutions; it agrees to the fewer
    tighter = 0
    for shape in (SHAPE, GroupShape((3,), 3, 5, P, N)):
        rng = random.Random("%d:%d" % (shape.s, shape.degree))
        for _ in range(30):
            x = rand_product_operand(rng, shape)
            y = rand_product_operand(rng, shape)
            got = (x.involution() * y.involution()).expand()
            coeffs = reference_product(substituted_involution(x),
                                       substituted_involution(y))
            want = GroupAlgebraElem(shape, coeffs).expand()
            assert set(got) == set(want)
            for k, c in got.items():
                assert c.prec >= want[k].prec
                assert c.agreement(want[k]) >= want[k].prec
                tighter += c.prec > want[k].prec
    assert tighter > 0


def test_group_elem_needs_one_exponent_per_variable():
    with pytest.raises(ShapeMismatch):
        GroupAlgebraElem.group_elem(SHAPE, None, (1,))
    with pytest.raises(ShapeMismatch):
        GroupAlgebraElem.group_elem(SHAPE, None, (1, 0, 0))


def test_rel_aug_degree_basics():
    assert rel_aug_degree(ONE) == 0
    t1, t2 = gen(0) - ONE, gen(1) - ONE
    assert rel_aug_degree(t1 * t2 + t2 * t2 * t2) == 2
    assert rel_aug_degree(t1 * t2) == 2
    assert rel_aug_degree(GroupAlgebraElem.zero(SHAPE)) == SHAPE.degree + 1


def test_degree_is_superadditive():
    rng = random.Random(5)
    for _ in range(20):
        x = rand_elem(rng, min_deg=1)
        y = rand_elem(rng, min_deg=1)
        prod = x * y
        if prod.is_zero():
            continue
        assert rel_aug_degree(prod) >= rel_aug_degree(x) + rel_aug_degree(y)


def test_leading_term_of_generator():
    lt = (gen(0) - ONE).leading_term(1)
    assert set(lt.coeffs) == {((0,), (1, 0))}
    assert lt.coeffs[((0,), (1, 0))].agreement(mk(1)) >= N


def test_leading_term_multiplicative():
    # the class of xy in degree m + n <= D is the product of the classes,
    # a zero class where those multiply to zero
    rng = random.Random(7)
    checked = 0
    for _ in range(20):
        x = rand_elem(rng, min_deg=1)
        y = rand_elem(rng, min_deg=2)
        m, n = rel_aug_degree(x), rel_aug_degree(y)
        if m + n <= SHAPE.degree:
            lhs = (x * y).leading_term(m + n)
            rhs_elem = as_elem(x.leading_term(m)) * as_elem(y.leading_term(n))
            assert lhs.agreement(rhs_elem.leading_term(m + n)) >= N
            checked += 1
    assert checked >= 10


def test_leading_term_requires_membership():
    with pytest.raises(DegreeTooLow):
        ONE.leading_term(1)


def iota_defect(degree):
    """iota(t_1 t_2) - t_1 t_2 = -t_1^2 t_2 - t_1 t_2^2 + ..., mod I^(D+1)."""
    shape = GroupShape((2,), 2, degree, P, N)
    t12 = GroupAlgebraElem.monomial(shape, None, (1, 1), 1)
    return t12.involution() - t12


def test_no_leading_term_reads_past_the_truncation():
    # an element is its class mod I^(D+1): a class of degree <= D is exact,
    # and none past D is read, not even from the zero element
    rng = random.Random(19)
    for shape in (SHAPE, GroupShape((2,), 2, 2, P, N)):
        for x in (GroupAlgebraElem.zero(shape), GroupAlgebraElem.one(shape),
                  variable(shape, 1), rand_elem(rng, shape=shape)):
            for n in (shape.degree + 1, shape.degree + 2):
                with pytest.raises(DegreeTooLow):
                    x.leading_term(n)
    # at D = 2 the defect vanishes, though its degree-3 class does not
    assert iota_defect(2).is_zero()
    with pytest.raises(DegreeTooLow):
        iota_defect(2).leading_term(3)
    x = iota_defect(3)
    want = {((0,), (2, 1)): mk(-1), ((0,), (1, 2)): mk(-1)}
    assert x.leading_term(3).agreement(GradedPiece(x.shape, 3, want)) >= N


def test_truncation_loss_is_sticky_and_loud():
    # t_1^(D+1) is zero in the quotient: its class in degree D is zero, it
    # stays zero under further products, and no class past D is read from it
    t1 = gen(0) - ONE
    high = t1
    for _ in range(SHAPE.degree):
        high = high * t1  # walks past the truncation degree
    assert high.is_zero() and high.leading_term(SHAPE.degree).is_zero()
    assert (high * t1).is_zero() and (high * ONE).is_zero()
    with pytest.raises(DegreeTooLow):
        high.leading_term(SHAPE.degree + 1)


def test_graded_involution_diagram():
    # the involution acts on degree-n classes by (-1)^n and inversion on Q
    rng = random.Random(11)
    for n in range(1, 5):
        for _ in range(25):
            x = rand_elem(rng, min_deg=n)
            lhs = x.involution().leading_term(n)
            rhs = x.leading_term(n).dual()
            assert lhs.agreement(rhs) >= N


def test_shape_mismatch_detected():
    other = GroupShape((2,), 2, 5, P, N)
    with pytest.raises(ShapeMismatch):
        ONE + GroupAlgebraElem.one(other)


def test_injectivity_certificates():
    cases = [
        ((2,), 2, 2, 6),       # dim Sym^2(Z_p^2) * |Z/2| = 3 * 2
        ((2, 2), 2, 3, 16),    # dim Sym^3(Z_p^2) * 4 = 4 * 4
        ((2, 2), 4, 4, 140),   # dim Sym^4(Z_p^4) * 4 = 35 * 4
    ]
    for divisors, s, n, want in cases:
        shape = GroupShape(divisors, s, n + 2, P, N)
        assert check_lemma_free_graded_injectivity(shape, n) == want


def test_monomials_are_the_exponents_of_degree_n_in_lexicographic_order():
    for s in range(9):
        for n in range(7):
            shape = GroupShape((2,), s, max(n, 1), P, N)
            assert shape.monomials(n) == [
                e for e in itertools.product(range(n + 1), repeat=s) if sum(e) == n]


def test_trivial_quotient_rank_one():
    shape = GroupShape((), 1, 3, P, N)
    assert check_lemma_free_graded_injectivity(shape, 1) == 1


@pytest.mark.parametrize("image", [
    lambda x: x.scale(mk(P)),  # a coefficient that is not a unit
    lambda x: x + GroupAlgebraElem(  # a second monomial, t^e reversed
        x.shape, {(q, e[::-1]): c for (q, e), c in x.expand().items()}),
    lambda x: GroupAlgebraElem(  # [q] forgotten: two images meet
        x.shape, {((0,), e): c for (_, e), c in x.expand().items()}),
])
def test_injectivity_certificate_refuses_a_non_permutation(monkeypatch, image):
    product = GroupAlgebraElem.__mul__
    monkeypatch.setattr(GroupAlgebraElem, "__mul__",
                        lambda x, y: image(product(x, y)))
    with pytest.raises(RankDeficient):
        check_lemma_free_graded_injectivity(SHAPE, 2)


def test_work_is_counted_before_it_is_done(monkeypatch):
    # each count is the work itself, so the limit admits exactly that much
    t1 = GroupAlgebraElem.monomial(SHAPE, None, (1, 0), 1)
    x = ONE + t1
    y = GroupAlgebraElem.monomial(SHAPE, None, (5, 0), 1) \
        + GroupAlgebraElem.monomial(SHAPE, None, (0, 1), 1)
    # an expansion counts the monomials it forms, and the leading term
    # forms none past its degree; a product counts the s*(D + 1) factor
    # entries each term pair can hold, and the involution forms no monomial
    z = GroupAlgebraElem(SHAPE, {((0,), e): mk(1)
                                 for e in [(2, 0), (1, 1), (0, 2), (3, 0)]})
    xy = x * y
    monkeypatch.setattr(grpalg, "WORK_LIMIT", 0)
    iota_t1, iota_z = t1.involution(), z.involution()
    cases = [
        (6, iota_t1.expand, 6),  # t_1 -> -t_1 + t_1^2 - ... - t_1^6
        (3, lambda: iota_z.leading_term(2).coeffs, 3),  # one per term of degree 2
        # one separable term per pair, each of s*(D + 1) = 14 entries
        (4 * SHAPE.s * (SHAPE.degree + 1), lambda: (x * y).coeffs, 4),
        (4, xy.expand, 4),  # 1 meets both terms, t_1 meets both up to D
    ]
    for work, op, terms in cases:
        monkeypatch.setattr(grpalg, "WORK_LIMIT", work)
        assert len(op()) == terms
        monkeypatch.setattr(grpalg, "WORK_LIMIT", work - 1)
        with pytest.raises(WorkLimitExceeded):
            op()


def test_a_t3_product_is_refused_before_it_forms_a_term(monkeypatch):
    # at s = 8, D = 18 a 100 x 100-term product has 10,000 pairs, under the
    # limit, but its terms can hold 10,000 * 8 * 19 = 1.52 M factor entries
    shape = tower_shape(3, P, N)
    rng = random.Random(43)

    def hundred_terms():
        out = GroupAlgebraElem.zero(shape)
        while len(out.coeffs) < 100:
            a = tuple(rng.randrange(-3, 4) for _ in range(shape.s))
            out = out + GroupAlgebraElem.group_elem(shape, None, a)
        return out

    x, y = hundred_terms(), hundred_terms()

    def refuse(*args):
        raise AssertionError("a product term was formed")

    monkeypatch.setattr(grpalg, "_times", refuse)
    with pytest.raises(WorkLimitExceeded):
        x * y


def test_the_t3_gz_expansion_needs_no_exact_count(monkeypatch):
    # iota(c t_1...t_8) has 8 factors of 18 coefficients (18^8 is past the
    # limit) but one monomial of degree 8, so the bound clears the limit and
    # the exact count, the one user of `_times` in the gz suite, never runs
    t3 = Path(__file__).resolve().parent.parent / "bench/scenarios/t3-tower.kv"
    sc = load_scenario(t3)

    def refuse(*args):
        raise AssertionError("the exact work count ran")

    monkeypatch.setattr(grpalg, "_times", refuse)
    report = run(sc, suites=("gz",), seed=0)
    assert [(c.name, c.passed) for c in report.checks] == \
        [("gz.leading_term", True)]
