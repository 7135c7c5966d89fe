"""The shared coefficient kernel: one agreement rule, linear operations that
keep a map's kind and shape, and one repr."""

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
def test_linear_operations_keep_kind_and_shape(build):
    x = build(PadicScalar.from_int(2, P, N), PadicScalar.from_int(3, P, N))
    y = build(PadicScalar.from_int(5, P, N), PadicScalar.from_int(1, P, N))
    for out in (x + y, y + x, x - y, y - x, -x, x.scale(PadicScalar.from_int(4, P, N))):
        assert type(out) is type(x) and out._shape() == x._shape()


def test_truncating_product_sets_lost():
    # a product past D = 4 is the zero class of the quotient, and stays zero
    t1 = GroupAlgebraElem.monomial(SHAPE, None, (1, 0), 1)
    t1_cubed = t1 * t1 * t1
    assert not t1_cubed.is_zero()
    assert t1_cubed.leading_term(3).agreement(
        GradedPiece(SHAPE, 3, {((0,), (3, 0)): EXACT_ONE})) >= N
    beyond = t1_cubed * t1_cubed  # degree 6 > D = 4
    assert beyond.is_zero()
    assert (beyond * GroupAlgebraElem.one(SHAPE)).is_zero()
    x = _sym_tensor(EXACT_ONE, EXACT_ONE)
    assert (x * x).degree == 2


def test_maps_of_different_kinds_do_not_mix():
    elem = _group_elem(EXACT_ONE, EXACT_ONE)
    piece = _graded_piece(EXACT_ONE, EXACT_ONE)
    with pytest.raises(ShapeMismatch):
        elem + piece
    with pytest.raises(ShapeMismatch):
        piece.agreement(elem)


def test_one_repr_names_the_kind_the_shape_and_the_term_count():
    x = _sym_tensor(EXACT_ONE, EXACT_ONE)
    assert repr(x) == "SymTensor((2, 1), 2 terms)"
    assert repr(x * x) == "SymTensor((2, 2), 3 terms)"
    assert repr(_group_elem(EXACT_ONE, EXACT_ONE)) \
        == "GroupAlgebraElem(GroupShape(Q=(2,), s=2, D=4), 2 terms)"
    assert repr(_graded_piece(EXACT_ONE, EXACT_ONE)) \
        == "GradedPiece((GroupShape(Q=(2,), s=2, D=4), 1), 2 terms)"
