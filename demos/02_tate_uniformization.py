"""The Tate curve: from a period q to a curve, and back, and onto points.

A curve with multiplicative reduction is parametrized by K^x / q^Z; this
script builds the curve for q = 5 over Q_5, recovers q from the j-invariant,
and checks the parametrization is a group homomorphism.
"""

from plectic.padic import PadicScalar, QuadExtScalar
from plectic.tate import TateCurve, j_invariant, tate_coefficients, tate_period_from_j

P, N = 5, 30
q = PadicScalar(P, 1, 1, N)  # the period q = 5

a4, a6 = tate_coefficients(q)
print("curve y^2 + xy = x^3 + a4 x + a6 with")
print("  a4 =", a4)
print("  a6 =", a6)

j = j_invariant(q)
print("\nj-invariant:", j, " (pole order = period valuation:", -j.v, ")")
q_back = tate_period_from_j(j)
print("period recovered from j agrees to", q_back.agreement(q), "digits")

curve = TateCurve(q)
u = QuadExtScalar.from_parts(1 + P, 2 * P, P, N)
v = QuadExtScalar.from_parts(3, P, P, N)
pu, pv = curve.phi(u), curve.phi(v)
print("\nphi(u) =", pu)
eq_lhs, eq_rhs = curve.curve_equation(pu)
print("the curve equation holds at phi(u) to", eq_lhs.agreement(eq_rhs), "digits")

lhs = curve.phi(u * v)
rhs = curve.add(pu, pv)
print("phi(u*v) vs phi(u)+phi(v):", lhs.agreement(rhs), "digits")

q_ext = QuadExtScalar.from_base(q)
print("\nperiod powers land at infinity:",
      all(curve.phi(q_ext ** k).is_infinity() for k in (-2, -1, 1, 2)))

print("phi(1/u) is the negative of phi(u):",
      curve.phi(u.inverse()).agreement(curve.negate(pu)), "digits")
print("frobenius on units matches the curve involution:",
      curve.phi(u.frobenius()).agreement(curve.sigma(pu)), "digits")
