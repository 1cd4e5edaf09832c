"""Gauge transforms, the exchange quadruple, and its group structure.

The gamma^5 gauge maps and the four Xi-built exchange maps all preserve
conjugation-eigenvector status; the momentum-independent parts of the
quadruple close into the order-8 group with central -1.
"""

import numpy as np

from selfconj import halfspin
from selfconj.halfspin import FourMomentum

np.set_printoptions(precision=6, suppress=True)

p = FourMomentum(1.0, 1.0, 1.1, 0.4)
b = halfspin.build_spinor_basis(p)
c = halfspin.charge_conjugation_op()

print("gauge transforms keep the eigenvalue:")
for alpha in (0.3, 1.2):
    g = halfspin.gauge_lambda(alpha)
    worst = max(
        np.linalg.norm(c(g @ psi) - s * (g @ psi))
        for name, psi, s in zip(halfspin.FAMILY, b.family[0], halfspin.FAMILY_SIGNS)
        if name.startswith("lam")
    )
    print(f"  alpha={alpha}: worst residual {worst:.2e}")

print("\nexchange-map aliases at default phases, per helicity:")
for k, v in halfspin.xi_alias_residuals(b).items():
    print(f"  {k}: up {v[0, 0]:.2e}, dn {v[0, 1]:.2e}")

print("\nclosure table of the momentum-independent parts "
      "(entry (j,k) -> sign, index):")
table = halfspin.w_group_table()
for j in range(4):
    row = "  ".join(f"{table[(j, k)][0]:+d}W{table[(j, k)][1]}" for k in range(4))
    print(f"  W{j}:  {row}")
print("squares (+1, -1, -1, -1): the quaternion pattern, -1 central")
