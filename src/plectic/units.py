"""Coordinates for the torsion-free pro-p completion of the local units.

A nonzero u in the quadratic extension decomposes as p^v * zeta * u1 with
zeta a Teichmuller root of unity and u1 a principal unit.  The completion
coordinates are (v, log u1) with the logarithm written in the eigenbasis
(1, w) of Frobenius, so sigma acts as diag(1, 1, -1) on coordinates and the
eigenspace projections are exact.
"""

from fractions import Fraction

from .errors import PrecisionExhausted
from .kernel import CoordVector, coordinate
from .padic import (
    INF,
    PadicScalar,
    QuadExtScalar,
    _shift,
    plog,
)


class CompletedUnit(CoordVector):
    """Coordinates (valuation, log_a, log_b) of a completed unit."""

    __slots__ = ()
    val = coordinate(0)
    log_a = coordinate(1)
    log_b = coordinate(2)


class UnitCompletion:
    """The completion of the units of Q_p(w) at a fixed precision."""

    def __init__(self, p, prec):
        if p < 5 or p % 2 == 0:
            raise ValueError("need an odd prime p >= 5")
        self.p = p
        self.prec = prec
        # log_b coordinate of the pinned minus generator u0 = g / sigma(g),
        # g = 1 + p*w: twice the log_b coordinate b0 of g
        b0 = plog(self.ext(1, p)).b
        self.minus_scale = b0 + b0

    # -- element constructors ----------------------------------------------

    def ext(self, a, b):
        """Build a + b*w from integers at working precision."""
        return QuadExtScalar.from_parts(a, b, self.p, self.prec)

    def base(self, n):
        return PadicScalar.from_int(n, self.p, self.prec)

    # -- the coordinate map -------------------------------------------------

    def complete(self, u):
        """Coordinates of a nonzero unit-group element."""
        if u.is_zero():
            raise PrecisionExhausted("cannot complete zero")
        v = u.valuation
        # log(u1 / zeta) = log(u1^(p^2 - 1)) / (p^2 - 1): zeta^(p^2 - 1) = 1
        # for the Teichmuller root zeta of u1, and p^2 - 1 is a p-adic unit;
        # plog raises u1 to that power on integers, at the interval's precision
        m = self.p * self.p - 1
        l = plog(_shift(u, -v), m)
        order = PadicScalar.from_int(m, self.p, INF)
        return CompletedUnit(self.base(v), l.a / order, l.b / order)

    def sigma(self, c):
        """Frobenius on completion coordinates: diag(1, 1, -1)."""
        return CompletedUnit(c.val, c.log_a, -c.log_b)

    def minus_project(self, c):
        """((1 - sigma)/2)(c) as a scalar: its coordinate in the generator
        basis of the minus line."""
        return c.log_b / self.minus_scale

    def norm_one_unit(self):
        """u0 = (1 + p*w) / sigma(1 + p*w), the pinned minus generator."""
        g = self.ext(1, self.p)
        return g / g.frobenius()

    def norm_one_generator(self):
        return self.complete(self.norm_one_unit())


class CompletedPoint(CoordVector):
    """Coordinates (x, y) of a point-group element modulo the period lattice."""

    __slots__ = ()
    x = coordinate(0)
    y = coordinate(1)


class PointCompletion:
    """Completion of the point group of a period-q torus over Q_p(w).

    Coordinates of a unit u are obtained from its unit-completion
    coordinates (v, a, b) by killing the period: (a - (v/v_q)*a_q, b).
    The valuation of q must be prime to p so v/v_q lands in Z_p.
    """

    def __init__(self, units, q):
        if q.is_zero() or q.v < 1:
            raise ValueError("period must have valuation >= 1")
        if q.v % units.p == 0:
            raise ValueError("period valuation must be prime to p")
        self.units = units
        self.q = q
        self._vq_inv = PadicScalar.from_fraction(Fraction(1, q.v), units.p, units.prec)
        q_ext = QuadExtScalar.from_base(q)
        self._alpha_q = units.complete(q_ext).log_a

    def complete(self, u):
        c = self.units.complete(u)
        t = c.val * self._vq_inv
        return CompletedPoint(c.log_a - t * self._alpha_q, c.log_b)
