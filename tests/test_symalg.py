"""Symmetric algebra: canonical maps, collapse, and square-root extraction."""

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from plectic.errors import DivisionByZero, NotProportional
from plectic.padic import PadicScalar
from plectic.symalg import (
    SymTensor,
    collapse,
    linear_form,
    mu,
    sqrt_ratio,
)

P = 5
N = 40
M = 2  # a free module is its rank


def mk(n):
    return PadicScalar.from_int(n, P, N)


def vec(*vals):
    return [mk(v) for v in vals]


def test_mu_sends_pure_tensor_to_monomial():
    out = mu([M, M], [(mk(1), [vec(1, 0), vec(1, 0)])])
    assert set(out.coeffs) == {(1, 0, 1, 0)}


def test_mu_is_bilinear():
    a = mk(7)
    lhs = mu([M, M], [(mk(1), [vec(7, 0), vec(0, 3)])])
    rhs = mu([M, M], [(mk(1), [vec(1, 0), vec(0, 3)])]).scale(a)
    assert lhs.agreement(rhs) >= N


def test_mu_injective_on_rank_two_pair():
    images = []
    for i in range(2):
        for j in range(2):
            vi = vec(1 if i == 0 else 0, 1 if i == 1 else 0)
            vj = vec(1 if j == 0 else 0, 1 if j == 1 else 0)
            images.append(mu([M, M], [(mk(1), [vi, vj])]))
    monos = sorted(set().union(*[set(b.coeffs) for b in images]))
    assert all(c.agreement(mk(1)) >= N for b in images for c in b.coeffs.values())
    matrix = sympy.Matrix([[int(mo in b.coeffs) for b in images] for mo in monos])
    assert matrix.rank() == 4


def test_collapse_is_symmetric():
    a = collapse(M, [(mk(1), [vec(1, 0), vec(0, 1)])])
    b = collapse(M, [(mk(1), [vec(0, 1), vec(1, 0)])])
    assert a.agreement(b) >= N


def test_collapse_of_repeated_vector():
    out = collapse(M, [(mk(1), [vec(1, 0), vec(1, 0)])])
    assert set(out.coeffs) == {(2, 0)}


def test_collapse_factors_through_mu():
    # folding the direct-sum variables pairwise reproduces collapse
    rng = random.Random(13)
    v = vec(rng.randrange(P ** 6), rng.randrange(P ** 6))
    w = vec(rng.randrange(P ** 6), rng.randrange(P ** 6))
    upstairs = mu([M, M], [(mk(1), [v, w])])
    folded = {}
    for (a1, a2, b1, b2), c in upstairs.coeffs.items():
        key = (a1 + b1, a2 + b2)
        folded[key] = folded[key] + c if key in folded else c
    downstairs = collapse(M, [(mk(1), [v, w])])
    assert SymTensor(M, 2, folded).agreement(downstairs) >= N


def test_sqrt_ratio_trivial_cases():
    x = collapse(M, [(mk(1), [vec(1, 0), vec(0, 1)])])
    assert sqrt_ratio(x, x).agreement(mk(1)) >= N
    assert sqrt_ratio(x.scale(mk(2)), x).agreement(mk(2)) >= N


def test_sqrt_ratio_random_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        y = collapse(M, [(mk(rng.randrange(1, P ** 4)),
                          [vec(rng.randrange(P ** 6), rng.randrange(1, P ** 6)),
                           vec(rng.randrange(1, P ** 6), rng.randrange(P ** 6))])])
        a = mk(rng.randrange(1, P ** 8))
        got = sqrt_ratio(y.scale(a), y)
        assert got.agreement(a) >= N - 4
        # squaring oracle: the recovered root squares to the constant
        assert (got * got).agreement(a * a) >= N - 4


def test_sqrt_ratio_rejects_perturbations():
    rng = random.Random(19)
    for _ in range(30):
        y = collapse(M, [(mk(1), [vec(rng.randrange(1, P ** 6), 1),
                                  vec(1, rng.randrange(1, P ** 6))])])
        x = y.scale(mk(rng.randrange(1, P ** 8)))
        bad = x + SymTensor(M, 2, {(2, 0): mk(1 + rng.randrange(P - 1))})
        with pytest.raises(NotProportional):
            sqrt_ratio(bad, y)


def test_sqrt_ratio_forms_no_tensor_product(monkeypatch):
    # the coefficient-wise certificate is the only one: no squares are formed
    rng = random.Random(29)
    ys = [collapse(M, [(mk(rng.randrange(1, P ** 4)),
                        [vec(rng.randrange(P ** 6), rng.randrange(1, P ** 6)),
                         vec(rng.randrange(1, P ** 6), rng.randrange(P ** 6))])])
          for _ in range(10)]

    def refuse(self, other):
        raise AssertionError("sqrt_ratio formed a SymTensor product")

    monkeypatch.setattr(SymTensor, "__mul__", refuse)
    for y in ys:
        a = mk(rng.randrange(1, P ** 8))
        assert sqrt_ratio(y.scale(a), y).agreement(a) >= N - 4
        with pytest.raises(NotProportional):
            sqrt_ratio(y.scale(a) + SymTensor(M, 2, {(2, 0): mk(1)}), y)


def test_sqrt_ratio_zero_denominator():
    x = collapse(M, [(mk(1), [vec(1, 0), vec(0, 1)])])
    with pytest.raises(DivisionByZero):
        sqrt_ratio(x, SymTensor.zero(M, 2))


def test_no_zero_divisors_on_unit_leading_coefficients():
    rng = random.Random(23)
    for _ in range(100):
        a = collapse(M, [(mk(1), [vec(rng.randrange(1, P ** 5), rng.randrange(P ** 5)),
                                  vec(rng.randrange(1, P ** 5), rng.randrange(P ** 5))])])
        b = collapse(M, [(mk(1), [vec(rng.randrange(1, P ** 5), rng.randrange(P ** 5)),
                                  vec(rng.randrange(1, P ** 5), rng.randrange(P ** 5))])])
        assert not (a * b).is_zero()


small = st.integers(min_value=0, max_value=P ** 6 - 1)


@settings(max_examples=40, deadline=None)
@given(small, small, small, small)
def test_linear_form_products_commute(a, b, c, d):
    f = linear_form(M, vec(a, b))
    g = linear_form(M, vec(c, d))
    assert (f * g).agreement(g * f) >= N
