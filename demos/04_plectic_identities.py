"""End-to-end run of the plectic identity suites on a committed scenario.

Loads the golden t=1 scenario, walks through the closed forms the
algebraicity suite checks (the character-table determinant C_G, the
twisted determinant det W = C_G * prod L(v_i) by multilinearity, the
y-column product and the plectic point), then runs the full verification
report exactly as the `plectic verify` command would.
"""

import math
from fractions import Fraction
from pathlib import Path

from plectic import plectic_ops as po
from plectic.padic import PadicScalar
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

# step 2: W_ij = chi_i(tau_j) * L(v_i) is the character table H with row i
# scaled by L(v_i), so det W = det H * prod L(v_i) for any points; what is
# left to check is the integer det H = C_G
chi = po.character_table(sc.t)
c_g = po.char_table_det(sc.t)
print("\ncharacter table H =", chi)
print("det H =", po.int_det(chi), " C_G = (-2)^(t*2^(t-1)) =", c_g)

# step 3: 1 - a*sigma = diag(0, 2) keeps the y^r coefficient of the norm,
# 2^r times the y-column determinant C_G * prod y_i; the rescaling divides
# by C_G * prod k_eta, so with the root Q_S / prod Q_eta it is
# 2^r * prod y_i * root / prod k_eta against the plectic point Q_S * (2*b0)^r
points = [v for v, _ in sc.family]
y_prod = math.prod((v.b for v in points[1:]), start=points[0].b)
root = sc.invariant / math.prod(coords[1:], start=coords[0])
k_prod = math.prod((k for _, k in sc.family), start=Fraction(1))
minus = y_prod.scale_int(2 ** sc.r) * root * PadicScalar.from_fraction(
    1 / k_prod, sc.p, sc.precision)
point = sc.invariant * sc.units.minus_scale ** sc.r
print("y-column product:", y_prod)
print("its rescaled minus part agrees with the plectic point", point, "to",
      minus.agreement(point), "digits")

# the full report, as `plectic verify scenarios/t1-split.kv` would print it
print("\nfull verification report:")
print(run(sc, floor=30).render_human())
