"""Tour of the interval p-adic scalar layer.

Every value carries (valuation, unit, precision); arithmetic tracks how many
base-p digits remain certified, so an identity that "holds" always holds to
an explicit number of digits.
"""

from plectic.padic import (
    INF,
    PadicScalar,
    QuadExtScalar,
    is_square,
    plog,
    quad_teichmuller,
    smallest_nonsquare,
)

P, N = 5, 20

x = PadicScalar.from_int(7, P, N)
y = PadicScalar.from_fraction("3/4", P, N)
print("x        =", x)
print("y = 3/4  =", y)
print("x*y      =", x * y)
print("x/y      =", (x / y))
print("agreement of x*y/y with x:", (x * y / y).agreement(x), "digits")

# the logarithm of a principal unit (defined on the quadratic extension)
u = QuadExtScalar.from_base(PadicScalar.from_int(1 + 2 * P, P, N))
print("\nplog(1+2p)       =", plog(u).a)

# by Hensel's lemma x is a square iff v(x) is even and its unit is a
# square mod p, which Euler's criterion decides
for n in (6, 2, 6 * P, 6 * P * P):
    print("is %d a square in Q_5?" % n, is_square(PadicScalar.from_int(n, P, N)))

# the unramified quadratic extension: adjoin a root of the smallest nonsquare,
# which p alone fixes
c = smallest_nonsquare(P)
w = QuadExtScalar.from_parts(1, 1, P, N)
print("\nw = 1 + sqrt(%d):" % c, w)
print("norm(w)  =", w.norm())
print("frobenius fixes the norm:",
      w.frobenius().norm().agreement(w.norm()), "digits")
zeta = quad_teichmuller(w)
order = P * P - 1
print("teichmuller lift has order dividing p^2-1:",
      (zeta ** order).agreement(QuadExtScalar.from_parts(1, 0, P, N)),
      "digits")

# plog is the Iwasawa logarithm: it vanishes on p and on the roots of unity,
# so it reads only the principal part of a unit
p_times_zeta = QuadExtScalar.from_parts(P, 0, P, INF) * zeta  # p exact
print("plog(p*zeta*(1+2p)) agrees with plog(1+2p) to",
      plog(p_times_zeta * u).agreement(plog(u)), "digits")
