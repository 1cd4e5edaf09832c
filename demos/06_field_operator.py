"""The neutral field at one mode: even/odd split, Dirac embedding,
quaternionic phase orbit.

The mode expansion is its own conjugate up to relabeling; splitting it
into conjugation-even and -odd halves reproduces the displayed
coefficients, and (1 +- slash/m) projections land the coefficients in
the Dirac eigenspaces.
"""

import numpy as np

from selfconj import fieldops, halfspin
from selfconj.fieldops import QuaternionPhase
from selfconj.halfspin import FourMomentum, PhaseConvention

np.set_printoptions(precision=6, suppress=True, linewidth=120)

p = FourMomentum(1.0, 1.0, 1.1, 0.0)
b = halfspin.build_spinor_basis(p)
nu = fieldops.majorana_mode(b)
print("mode terms (symbol, frequency, coefficient):")
for t in nu.terms:
    s = t.symbol
    print(f"  {s.kind}_{s.helicity}{'^dag' if s.dagger else '    '}  "
          f"freq {t.frequency:+d}  {t.coefficient}")

print(f"\nsplit vs displayed coefficients: {fieldops.ziino_split_residual(b):.2e}")
par = fieldops.conjugation_parity_residuals(b)
print(f"halves are conjugation eigen-expansions: even {par['even']:.1e}, "
      f"odd {par['odd']:.1e}")

rep = fieldops.dirac_from_majorana(b)
print(f"\nDirac embedding: partner residual {rep['partner_residual']:.1e}, "
      f"eigenspace residual {rep['eigenspace_residual']:.1e}")
print(f"positive-image singular values at default phases: "
      f"{np.array(rep['positive_singular_values'])}  (collinear)")
gen = fieldops.dirac_from_majorana(halfspin.build_spinor_basis(p, PhaseConvention(0.3, 0.4)))
print(f"same at generic phases: "
      f"{np.array(gen['positive_singular_values'])}  (rank 2)")

print("\nquaternionic phase orbit:")
qi = QuaternionPhase(0.0, (1.0, 0.0, 0.0))
qj = QuaternionPhase(0.0, (0.0, 1.0, 0.0))
print(f"  i*j = {qi.multiply(qj)}")
print(f"  group law on matrices: {fieldops.orbit_group_law(qi, qj):.1e}")
print(f"  conjugation status preserved along the orbit: "
      f"{fieldops.orbit_preserves_conjugation(qi, b):.1e}")
