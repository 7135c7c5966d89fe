"""Verification toolkit for the p-adic algebra of plectic points."""

from .errors import PlecticError
from .padic import INF, PadicScalar, QuadExtScalar, plog
from .units import CompletedPoint, CompletedUnit, PointCompletion, \
    UnitCompletion
from .tate import CurvePoint, TateCurve, j_invariant, tate_coefficients, \
    tate_period_from_j
from .grpalg import GradedPiece, GroupAlgebraElem, GroupShape
from .symalg import SymTensor, collapse, mu, sqrt_ratio
from .plectic_ops import char_table_det, drec, gz_leading_term, \
    tower_shape
from .scenario import Scenario, load_scenario, parse_scenario
from .runner import Report, run

__version__ = "0.1.0"
