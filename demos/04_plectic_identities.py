"""End-to-end run of the plectic identity suites on a committed scenario.

Loads the golden t=1 scenario, walks through the individual building blocks
(the twisted determinant evaluated at a point, its y-column determinant,
the plectic point), then runs the full verification report
exactly as the `plectic verify` command would.
"""

import math
from fractions import Fraction
from pathlib import Path

from plectic import plectic_ops as po
from plectic.linalg import det
from plectic.padic import INF, PadicScalar, QuadExtScalar
from plectic.runner import run
from plectic.scenario import load_scenario

scenario_path = Path(__file__).resolve().parent.parent / "scenarios" / "t1-split.kv"
sc = load_scenario(scenario_path)
print("scenario:", sc.name, " p =", sc.p, " r =", sc.r,
      " reduction sign =", sc.reduction_sign)

# the committed family, the completed points x + y*w in Q_p(w) of the units
# u_eta (each completed once, when the scenario is read), and their
# minus-line coordinates
coords = po.minus_coordinates(sc.family, sc.units)
for i, coord in enumerate(coords):
    print("  Q_%d =" % (i + 1), coord)

# step 2 at one point lam = 1 + w: the twisted determinant
# det[chi_i(tau_j) * (x_i + lam*y_i)] is C_G times the product of the values
chi = po.character_table(sc.t)
c_g = po.char_table_det(sc.t)
points = [v for v, _ in sc.family]
values = [QuadExtScalar(v.a + v.b, v.b) for v in points]
twisted = det([[z if s > 0 else -z for s in row] for z, row in zip(values, chi)])
product = math.prod(values, start=QuadExtScalar.from_base(
    PadicScalar.from_int(c_g, sc.p, INF)))
print("\nC_G =", c_g)
print("det at lam = 1 + w:", twisted)
print("agrees with C_G * prod(x_i + lam*y_i) to", twisted.agreement(product),
      "digits")

# step 3: 1 - a*sigma = diag(0, 2) keeps the y^r coefficient of the norm,
# its value at (0, 1): the determinant of the y-coordinates
# times 2^r, rescaled by sqrt(C_chi) / (C_G * prod k_eta) with the root
# recovered as Q_S / prod Q_eta, it is the plectic point Q_S * (2*b0)^r
y_det = det([[v.b.scale_int(s) for s in row] for v, row in zip(points, chi)])
root = sc.invariant / math.prod(coords[1:], start=coords[0])
k_prod = math.prod((k for _, k in sc.family), start=Fraction(1))
minus = y_det.scale_int(2 ** sc.r) * root * PadicScalar.from_fraction(
    Fraction(1, c_g) / k_prod, sc.p, sc.precision)
point = sc.invariant * sc.units.minus_scale ** sc.r
print("y-column determinant:", y_det)
print("its rescaled minus part agrees with the plectic point", point, "to",
      minus.agreement(point), "digits")

# the full report, as `plectic verify scenarios/t1-split.kv` would print it
print("\nfull verification report:")
print(run(sc, floor=30).render_human())
