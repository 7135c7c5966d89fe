"""The shared coefficient kernel: one agreement rule and a sticky lost flag."""

import pytest

from expansion_oracle import PlecticTensor
from plectic.errors import ShapeMismatch
from plectic.grpalg import GradedPiece, GroupAlgebraElem, GroupShape
from plectic.padic import INF, PadicScalar
from plectic.symalg import SymTensor

P = 5
N = 30
SHAPE = GroupShape((2,), 2, 4, P, N)
RANK = 2
EXACT_ONE = PadicScalar.one(P, INF)


def _group_elem(first, second):
    return GroupAlgebraElem(SHAPE, {((0,), (1, 0)): first, ((1,), (0, 1)): second})


def _graded_piece(first, second):
    return GradedPiece(SHAPE, 1, {((0,), (1, 0)): first, ((1,), (0, 1)): second})


def _sym_tensor(first, second):
    return SymTensor(RANK, 1, {(1, 0): first, (0, 1): second})


def _plectic_tensor(first, second):
    return PlecticTensor.pure(EXACT_ONE, ((first, second),))


# each builds an element with two coordinates; a zero coordinate is absent
BUILDERS = [_group_elem, _graded_piece, _sym_tensor, _plectic_tensor]
MAPS = [_group_elem, _graded_piece, _sym_tensor]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__[1:])
@pytest.mark.parametrize("extra", [
    PadicScalar(P, 3, 7, N),     # inside the working precision
    PadicScalar(P, 50, 1, INF),  # an exact value beyond shape.prec
], ids=["v3", "v50-exact"])
def test_one_sided_key_agrees_to_its_valuation(build, extra):
    both = build(EXACT_ONE, extra)
    one = build(EXACT_ONE, PadicScalar.zero(P))
    assert both.agreement(one) == extra.valuation
    assert one.agreement(both) == extra.valuation


@pytest.mark.parametrize("build", MAPS, ids=lambda b: b.__name__[1:])
def test_lost_survives_linear_operations(build):
    x = build(PadicScalar.from_int(2, P, N), PadicScalar.from_int(3, P, N))
    y = build(PadicScalar.from_int(5, P, N), PadicScalar.from_int(1, P, N))
    assert not (x + y).lost
    x.lost = True
    for out in (x + y, y + x, x - y, y - x, -x, x.scale(PadicScalar.from_int(4, P, N))):
        assert out.lost
        assert type(out) is type(x) and out._shape() == x._shape()


def test_maps_of_different_kinds_do_not_mix():
    elem = _group_elem(EXACT_ONE, EXACT_ONE)
    piece = _graded_piece(EXACT_ONE, EXACT_ONE)
    with pytest.raises(ShapeMismatch):
        elem + piece
    with pytest.raises(ShapeMismatch):
        piece.agreement(elem)


def test_truncating_product_sets_lost():
    t1 = GroupAlgebraElem.monomial(SHAPE, None, (1, 0), 1)
    t1_cubed = t1 * t1 * t1
    assert not t1_cubed.lost
    beyond = t1_cubed * t1_cubed  # degree 6 > D = 4
    assert beyond.lost and beyond.is_zero()
    assert (beyond * GroupAlgebraElem.one(SHAPE)).lost
    x = _sym_tensor(EXACT_ONE, EXACT_ONE)
    x.lost = True
    assert (x * x).lost and (x * x).degree == 2
