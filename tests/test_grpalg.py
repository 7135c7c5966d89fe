"""Group algebras: augmentation filtration, involution, graded pieces."""

import random

import pytest

from plectic.errors import DegreeTooLow, RankDeficient, ShapeMismatch
from plectic.grpalg import (
    GroupAlgebraElem,
    GroupShape,
    check_lemma_free_graded_injectivity,
)
from plectic.padic import PadicScalar

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
        power.lost = False  # powers of I never wrap below the cut
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
    for (q, e), c in x.coeffs.items():
        term = GroupAlgebraElem.monomial(shape, shape.q_neg(q), None, 1).scale(c)
        for i, a in enumerate(e):
            for _ in range(a):
                term = term * duals[i]
        term.lost = False
        out = out + term
    out.lost = x.lost
    return out


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
    assert set(t1.coeffs) == {(((0,), (1, 0)))}
    sq = t1 * t1
    assert set(sq.coeffs) == {(((0,), (2, 0)))}


def test_involution_of_one():
    assert ONE.involution().agreement(ONE) >= N


def test_involution_negates_modulo_degree_two():
    # [g]-1 maps to -([g]-1) up to higher filtration steps
    t1 = gen(0) - ONE
    diff = t1.involution() + t1
    assert diff.rel_aug_degree() >= 2


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
        if prod.lost:
            continue
        assert prod.involution().agreement(x.involution() * y.involution()) >= N


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=["s2D6", "s4D10"])
def test_closed_forms_match_the_expansion(shape):
    rng = random.Random(13)
    for _ in range(6):
        x = rand_oracle_elem(rng, shape)
        closed, ref = x.involution(), reference_involution(x)
        assert set(closed.coeffs) == set(ref.coeffs)
        assert closed.agreement(ref) >= N
        assert closed.lost == ref.lost == x.lost
    for _ in range(6):
        q = tuple(rng.randrange(d) for d in shape.divisors)
        a = tuple(rng.randrange(-2, 4) for _ in range(shape.s))
        closed, ref = (GroupAlgebraElem.group_elem(shape, q, a),
                       reference_group_elem(shape, q, a))
        assert set(closed.coeffs) == set(ref.coeffs)
        assert closed.agreement(ref) >= N
        assert closed.lost == (min(a) < 0 or ref.lost)


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


def test_group_elem_needs_one_exponent_per_variable():
    with pytest.raises(ShapeMismatch):
        GroupAlgebraElem.group_elem(SHAPE, None, (1,))
    with pytest.raises(ShapeMismatch):
        GroupAlgebraElem.group_elem(SHAPE, None, (1, 0, 0))


def test_rel_aug_degree_basics():
    assert ONE.rel_aug_degree() == 0
    t1, t2 = gen(0) - ONE, gen(1) - ONE
    assert (t1 * t2 + t2 * t2 * t2).rel_aug_degree() == 2
    assert (t1 * t2).rel_aug_degree() == 2
    assert GroupAlgebraElem.zero(SHAPE).rel_aug_degree() == SHAPE.degree + 1


def test_degree_is_superadditive():
    rng = random.Random(5)
    for _ in range(20):
        x = rand_elem(rng, min_deg=1)
        y = rand_elem(rng, min_deg=1)
        prod = x * y
        if prod.is_zero():
            continue
        assert prod.rel_aug_degree() >= x.rel_aug_degree() + y.rel_aug_degree()


def test_leading_term_of_generator():
    lt = (gen(0) - ONE).leading_term(1)
    assert set(lt.coeffs) == {((0,), (1, 0))}
    assert lt.coeffs[((0,), (1, 0))].agreement(mk(1)) >= N


def test_leading_term_multiplicative():
    rng = random.Random(7)
    x = rand_elem(rng, min_deg=1)
    y = rand_elem(rng, min_deg=2)
    m, n = x.rel_aug_degree(), y.rel_aug_degree()
    prod = x * y
    if not prod.lost and prod.rel_aug_degree() == m + n:
        lhs = prod.leading_term(m + n)
        rhs_elem = x.leading_term(m).as_elem() * y.leading_term(n).as_elem()
        assert lhs.agreement(rhs_elem.leading_term(m + n)) >= N


def test_leading_term_requires_membership():
    with pytest.raises(DegreeTooLow):
        ONE.leading_term(1)


def test_graded_involution_diagram():
    # the involution acts on degree-n classes by (-1)^n and inversion on Q
    rng = random.Random(11)
    for n in range(1, 5):
        for _ in range(25):
            x = rand_elem(rng, min_deg=n)
            lhs = x.involution().leading_term(n)
            rhs = x.leading_term(n).dual()
            assert lhs.agreement(rhs) >= N


def test_truncation_loss_is_sticky_and_loud():
    t1 = gen(0) - ONE
    high = t1
    for _ in range(SHAPE.degree):
        high = high * t1  # walks past the truncation degree
    assert high.lost
    with pytest.raises(DegreeTooLow):
        high.leading_term(SHAPE.degree)


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


def test_trivial_quotient_rank_one():
    shape = GroupShape((), 1, 3, P, N)
    assert check_lemma_free_graded_injectivity(shape, 1) == 1
