"""The determinant by elimination against the exact Leibniz sum."""

import itertools
import operator
import random

from expansion_oracle import perm_sign
from plectic.linalg import det, eliminate
from plectic.padic import INF, PadicScalar, QuadExtScalar, smallest_nonsquare

P = 5
N = 20
C = smallest_nonsquare(P)


def leibniz(matrix, mul=operator.mul, add=operator.add, zero=0, minus_one=-1):
    """The exact determinant of a matrix of Python ints (or of pairs, with
    the pair operations)."""
    n = len(matrix)
    total = zero
    for perm in itertools.permutations(range(n)):
        term = matrix[perm[0]][0]
        for j in range(1, n):
            term = mul(term, matrix[perm[j]][j])
        total = add(total, term if perm_sign(perm) > 0 else mul(term, minus_one))
    return total


def scalars(matrix, prec=N):
    return [[PadicScalar.from_int(x, P, prec) for x in row] for row in matrix]


def certifies(d, exact):
    """Every digit d certifies is a digit of the exact value."""
    return d.agreement(PadicScalar.from_int(exact, P, INF)) >= d.prec


def rand_int(rng):
    """Zero, or p^v times a unit, v = 0..3."""
    if rng.randrange(6) == 0:
        return 0
    return P ** rng.randrange(4) * (P * rng.randrange(P ** 5) + rng.randrange(1, P))


def test_det_agrees_with_the_leibniz_sum_on_every_certified_digit():
    rng = random.Random(3)
    swapped = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        matrix = [[rand_int(rng) for _ in range(n)] for _ in range(n)]
        d = det(scalars(matrix))
        assert certifies(d, leibniz(matrix)), (matrix, d)
        # as many digits as the entries: minimal-valuation pivots lose none
        assert d.prec >= N
        swapped += eliminate(scalars(matrix))[2] < 0
    assert swapped > 50


def test_det_sign_follows_the_row_swaps():
    # the unit pivots sit below the diagonal: one swap, then a 3-cycle
    assert eliminate(scalars([[P, 1], [1, 0]]))[2] == -1
    d = det(scalars([[P, 1], [1, 0]]))
    assert d.agreement(PadicScalar.from_int(-1, P, INF)) >= N
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert leibniz(cycle) == 1
    assert det(scalars(cycle)).agreement(PadicScalar.one(P, INF)) >= N
    odd = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert det(scalars(odd)).agreement(PadicScalar.from_int(-1, P, INF)) >= N


def test_det_of_a_column_zero_to_precision():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 4)
        col = rng.randrange(n)
        matrix = [[P ** N * rng.randrange(1, P ** 3) if j == col else rand_int(rng)
                   for j in range(n)] for _ in range(n)]
        d = det(scalars(matrix))
        assert d.is_zero()
        assert d.prec >= N
        assert certifies(d, leibniz(matrix))


def test_det_of_dependent_columns_is_zero_to_the_leibniz_bound():
    # the third column is the sum of the first two, so no pivot is left
    # for it; the pivots before it have valuation 0 and 1
    matrix = [[1, P, 1 + P], [2, 3 * P, 2 + 3 * P], [4, 2 * P, 4 + 2 * P]]
    assert leibniz(matrix) == 0
    d = det(scalars(matrix))
    assert d.is_zero() and d.prec >= N + 1


def test_det_over_the_quadratic_extension():
    # (a, b) pairs are a + b*w with w^2 = C
    def mul(x, y):
        return (x[0] * y[0] + C * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        matrix = [[(rand_int(rng), rand_int(rng)) for _ in range(n)]
                  for _ in range(n)]
        a, b = leibniz(matrix, mul, add, (0, 0), (-1, 0))
        d = det([[QuadExtScalar.from_parts(x, y, P, N) for x, y in row]
                 for row in matrix])
        assert certifies(d.a, a) and certifies(d.b, b)
        assert d.prec >= N
