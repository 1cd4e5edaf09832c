"""First-order dynamics, the Dirac connection, and the Gram structure.

The four momentum-space relations pair lambda with rho across the S/A
split; the connection matrix rebuilds the lambda stack from the Dirac
(u, v) stack with unit per-row phases; the Gram matrix shows where the
norm lives.
"""

import numpy as np

from selfconj import halfspin
from selfconj.halfspin import FourMomentum, PhaseConvention

np.set_printoptions(precision=6, suppress=True, linewidth=120)

grid = [
    FourMomentum(1.0, mag, th, ph)
    for mag in (0.5, 2.0)
    for th, ph in ((0.0, 0.0), (np.pi / 2, 0.0), (2.0, np.pi))
]

# each relation is an (N, 2) array: momentum, helicity
print("dynamical residuals (max over helicity), one row per momentum of the grid:")
r = halfspin.dynamical_residuals(halfspin.build_spinor_grid(grid))
for i, p in enumerate(grid):
    print(f"  |p|={p.pmag:3.1f} theta={p.theta:4.2f}: " +
          "  ".join(f"{k}={v[i].max():.2e}" for k, v in r.items()))

p = grid[3]
b = halfspin.build_spinor_basis(p)
# a mutant family with rho^S negated: the third relation must miss by 2m |rho^S|
mutant = b.family.copy()
mutant[:, halfspin.RHO_S] *= -1
flip = halfspin.dynamical_residuals(b._replace(family=mutant))["r3"][0].max()
print(f"\nself-test, rho^S negated at |p|={p.pmag}: residual {flip:.6f} "
      "(the checks can fail)")

print("\nconnection matrix (maps the u/v stack to the lambda stack):")
print(halfspin.CONNECTION)
rep = halfspin.connection_check(b)
print(f"raw residual {rep.raw_residual[0]:.2e}, phases {rep.phases[0]}")

print("\nGram matrix at rest (m=1), default phases:")
print(halfspin.biorthonormality_gram(halfspin.build_spinor_basis(FourMomentum(1.0, 0.0)))[0])
print("\nsame, theta1+theta2 = pi/2 (the in-family products vanish and the "
      "S-to-A block turns on):")
print(halfspin.biorthonormality_gram(halfspin.build_spinor_basis(
    FourMomentum(1.0, 0.0), PhaseConvention(np.pi / 4, np.pi / 4)))[0])
