"""Truncated completed group algebras and their augmentation filtration.

Elements of Z_p[Q][[t_1..t_s]] are sums of separable terms c [q] prod f_i(t_i),
truncated at a total degree D: an element is its class modulo I^(D+1), which
keeps every leading term of degree <= D and none past it; `expand()` reads
one out as its monomials.  The involution [g] -> [g^{-1}] acts on degree-n
graded pieces by (-1)^n together with inversion on the finite quotient.
"""

from plectic.errors import DegreeTooLow
from plectic.grpalg import (
    GroupAlgebraElem,
    GroupShape,
    check_lemma_free_graded_injectivity,
)

P, N = 5, 20
shape = GroupShape((2,), 2, 6, P, N)  # Q = Z/2, free rank 2, degree cap 6
one = GroupAlgebraElem.one(shape)

g = GroupAlgebraElem.group_elem(shape, None, (1, 0))
h = GroupAlgebraElem.group_elem(shape, None, (0, 1))
print("[g] as one separable term:", sorted(g.coeffs))
print("[g] as a power series in t1:", sorted(g.expand()))
print("([g]-1)([h]-1) lives in filtration degree:",
      min(sum(e) for _, e in ((g - one) * (h - one)).expand()))

inv = g.involution().expand()
print("\ninvolution of [g] (geometric series in t1):")
for key in sorted(inv):
    print("  ", key, "->", inv[key])

x = (g - one) * (h - one)
lt = x.leading_term(2)
print("\nleading term of ([g]-1)([h]-1) in I^2/I^3:", sorted(lt.coeffs))
print("involution acts by (-1)^2 on the class:",
      x.involution().leading_term(2).agreement(lt.dual()), "digits")

# past the truncation degree the quotient keeps nothing: t1^(D+1) is zero,
# and no leading term of degree past D is read
high = g - one
for _ in range(shape.degree):
    high = high * (g - one)
print("\npower past the cap is zero in the quotient:", high.is_zero())
try:
    x.leading_term(shape.degree + 1)
except DegreeTooLow as exc:
    print("leading term past the cap is refused:", exc)

print("\ninjectivity certificates (full column rank of the graded map):")
for divisors, s, n in (((2,), 2, 2), ((2, 2), 2, 3), ((2, 2), 4, 4)):
    sh = GroupShape(divisors, s, n + 2, P, N)
    print("  Q=%r s=%d degree=%d -> rank %d"
          % (divisors, s, n, check_lemma_free_graded_injectivity(sh, n)))
