"""Completions of the local units and points of the quadratic extension.

A nonzero u in Q_p(w) is p^v * zeta * u1 with zeta a Teichmuller root of
unity and u1 a principal unit.  Its completed unit is (v(u), plog u), the
scalar v and the Iwasawa log log u1 = log_a + log_b*w in Q_p(w); its
completed point is that log with the period killed, in Q_p(w).  On both,
sigma is Frobenius w -> -w, so the eigenspace projections are exact.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import ShapeMismatch
from .padic import PadicScalar, QuadExtScalar, plog


class CompletedUnit(namedtuple("CompletedUnit", "val log")):
    """A completed unit: its valuation scalar and its log in Q_p(w)."""

    __slots__ = ()

    def __add__(self, other):
        if type(other) is not CompletedUnit:
            raise ShapeMismatch("mixed completions")
        return CompletedUnit(self.val + other.val, self.log + other.log)

    def agreement(self, other):
        if type(other) is not CompletedUnit:
            raise ShapeMismatch("mixed completions")
        return min(self.val.agreement(other.val), self.log.agreement(other.log))

    def is_zero(self):
        return self.val.is_zero() and self.log.is_zero()


class UnitCompletion:
    """The completion of the units of Q_p(w) at a fixed precision."""

    def __init__(self, p, prec):
        if p < 5 or p % 2 == 0:
            raise ValueError("need an odd prime p >= 5")
        self.p = p
        self.prec = prec
        # log_b of the pinned minus generator u0 = g / sigma(g), g = 1 + p*w:
        # twice the log_b of g
        b0 = plog(self.ext(1, p)).b
        self.minus_scale = b0 + b0

    # -- element constructors ----------------------------------------------

    def ext(self, a, b):
        """Build a + b*w from integers at working precision."""
        return QuadExtScalar.from_parts(a, b, self.p, self.prec)

    def base(self, n):
        return PadicScalar.from_int(n, self.p, self.prec)

    # -- the completion map -------------------------------------------------

    def complete(self, u):
        """The completed unit (v(u), plog u) of a nonzero element."""
        log = plog(u)  # first: it refuses a zero u, of valuation INF
        return CompletedUnit(self.base(u.valuation), log)

    def sigma(self, c):
        """Frobenius on a completed unit: it fixes val and conjugates log."""
        return CompletedUnit(c.val, c.log.frobenius())

    def minus_project(self, c):
        """((1 - sigma)/2)(c) as a scalar: its coordinate in the generator
        basis of the minus line."""
        return c.log.b / self.minus_scale

    def norm_one_unit(self):
        """u0 = (1 + p*w) / sigma(1 + p*w), the pinned minus generator."""
        g = self.ext(1, self.p)
        return g / g.frobenius()

    def norm_one_generator(self):
        return self.complete(self.norm_one_unit())


class PointCompletion:
    """Completion of the point group of a period-q torus over Q_p(w).

    The point of a unit u is its completed unit (v, a + b*w) with the period
    killed: (a - (v/v_q)*a_q) + b*w in Q_p(w), where sigma is Frobenius.
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
        self._alpha_q = units.complete(q_ext).log.a

    def complete(self, u):
        c = self.units.complete(u)
        t = c.val * self._vq_inv
        return QuadExtScalar(c.log.a - t * self._alpha_q, c.log.b)
