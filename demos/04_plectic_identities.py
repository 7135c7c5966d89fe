"""End-to-end run of the plectic identity suites on a committed scenario.

Loads the golden t=1 scenario, walks through the individual building blocks
(projectors, determinant and norm maps, the plectic point), then runs the
full verification report exactly as the `plectic verify` command would.
"""

from pathlib import Path

from plectic import plectic_ops as po
from plectic.runner import run
from plectic.scenario import load_scenario
from plectic.symalg import FreeModule

scenario_path = Path(__file__).resolve().parent.parent / "scenarios" / "t1-split.kv"
sc = load_scenario(scenario_path)
print("scenario:", sc.name, " p =", sc.p, " r =", sc.r,
      " reduction sign =", sc.reduction_sign)

# the committed family of units and their minus-line coordinates
coords = po.minus_coordinates(sc.family, sc.units)
for i, coord in enumerate(coords):
    print("  Q_%d =" % (i + 1), coord)

# projectors annihilate each other factor-wise
sigma = po.make_sigma_point(sc.reduction_sign)
vecs = [(sc.points.complete(u).x, sc.points.complete(u).y)
        for u, _ in sc.family]
x = po.PlecticTensor.pure(coords[0], tuple(vecs))
plus = po.projector(x, "+", sc.reduction_sign, sigma)
print("\npr^- pr^+ kills the tensor:",
      po.projector(plus, "-", sc.reduction_sign, sigma).is_zero())

# determinant of the twisted point matrix
entries = [[(v[0].scale_int(sc.config.char_value(i, sc.config.tau[j])),
             v[1].scale_int(sc.config.char_value(i, sc.config.tau[j])))
            for j in range(sc.r)] for i, v in enumerate(vecs)]
w = po.det_map(entries)
print("determinant tensor:", w)

# 1 - a*sigma = diag(0, 2), so the minus projection of the norm keeps 2^r
# times its y^r coefficient: the norm of the factor-wise projector
module = FreeModule(["x", "y"])
after = po.minus_projection(po.norm_map(w, module))
before = po.norm_map(po.projector(w, "-", sc.reduction_sign, sigma), module)
print("projecting after the norm agrees to", after.agreement(before), "digits")

# the committed invariant's image phi^-(Q_S): the plectic point that the
# algebraicity check compares the minus projection of the determinant with
image = po.phi_minus(sc.invariant, sc.r, sc.points)
norm = po.norm_map(image, module)
print("phi^-(Q_S):", image, " its norm is c*y^%d with c =" % sc.r,
      norm.coeffs[(0, sc.r)])

# the full report, as `plectic verify scenarios/t1-split.kv` would print it
print("\nfull verification report:")
print(run(sc, floor=30).render_human())
