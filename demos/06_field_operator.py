"""The neutral field at one mode: even/odd split, Dirac embedding,
quaternionic phase orbit.

The mode expansion is its own conjugate up to relabeling; splitting it
into conjugation-even and -odd halves reproduces the displayed
coefficients, and (1 +- slash/m) projections land the coefficients in
the Dirac eigenspaces.
"""

import numpy as np

from selfconj import fieldops, halfspin
from selfconj.halfspin import FourMomentum, PhaseConvention

np.set_printoptions(precision=6, suppress=True, linewidth=120)

p = FourMomentum(1.0, 1.0, 1.1, 0.0)
b = halfspin.build_spinor_basis(p)
# the expansion is one (N, 2, 2, 4) array: row, slot (annihilator at
# frequency +1, creator at -1), helicity (up, dn), component
nu = fieldops.majorana_mode(b)
print("mode coefficients (operator, frequency, coefficient):")
for slot, (dag, freq) in enumerate((("    ", +1), ("^dag", -1))):
    for h, tag in enumerate(("up", "dn")):
        print(f"  a_{tag}{dag}  freq {freq:+d}  {nu[0, slot, h]}")

# each residual has one entry per slot and helicity (and half, for the
# split); the demo prints the worst
print(f"\nsplit vs displayed coefficients: {fieldops.ziino_split_residual(b)[0].max():.2e}")
par = fieldops.conjugation_parity_residuals(b)
print(f"halves are conjugation eigen-expansions: even {par['even'][0].max():.1e}, "
      f"odd {par['odd'][0].max():.1e}")

rep = fieldops.dirac_from_majorana(b)
print(f"\nDirac embedding: partner residual {rep['partner_residual'][0].max():.1e}, "
      f"eigenspace residual {rep['eigenspace_residual'][0].max():.1e}")
print(f"positive-image singular values at default phases: "
      f"{rep['positive_singular_values'][0]}  (collinear)")
gen = fieldops.dirac_from_majorana(halfspin.build_spinor_basis(p, PhaseConvention(0.3, 0.4)))
print(f"same at generic phases: "
      f"{gen['positive_singular_values'][0]}  (rank 2)")

print("\nquaternionic phase orbit:")
# a quaternion phase is a row (c0, c1, c2, c3); an orbit is a (K, 4) array
one, qi, qj, qk = fieldops.unit_quaternions(np.eye(4))
print(f"  i*j = {fieldops.quaternion_product(qi, qj)}")
print(f"  group law on matrices: {fieldops.orbit_group_law(qi, qj):.1e}")
print(f"  conjugation status preserved along the orbit 1, i, j, k (worst member): "
      f"{fieldops.orbit_preserves_conjugation(np.eye(4), b)[:, 0].max(axis=-1)}")
