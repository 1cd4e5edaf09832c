"""Build the eight-member spinor family at one momentum and look at it.

Shows the components, the charge-conjugation eigenvalues, and why the
lambda spinors carry chiral helicity rather than helicity.
"""

import numpy as np

from selfconj import halfspin
from selfconj.halfspin import FAMILY, FAMILY_SIGNS, FourMomentum

np.set_printoptions(precision=6, suppress=True, linewidth=120)

p = FourMomentum(mass=1.0, pmag=1.0, theta=np.pi / 3, phi=0.0)
print(f"momentum: m={p.mass}, |p|={p.pmag}, E={p.energy:.6f}, "
      f"direction=({p.theta:.4f}, {p.phi:.4f})")

# the one-row grid: family[0] holds the eight members in FAMILY order
b = halfspin.build_spinor_basis(p)
print("\nthe family (rows):")
for name, psi, sign in zip(FAMILY, b.family[0], FAMILY_SIGNS):
    print(f"  {name}  (S^c eigenvalue {'%+d' % sign}):  {psi}")

c = halfspin.charge_conjugation_op()
worst = max(
    np.linalg.norm(c(psi) - sign * psi) for psi, sign in zip(b.family[0], FAMILY_SIGNS)
)
print(f"\nworst conjugation-eigenvalue residual: {worst:.2e}")

ops = halfspin.discrete_ops(p.nhat)
lam = b.family[0, FAMILY.index("lam_s_up")]
u = b.uv_stack()[0, 0]  # rows u_up, u_dn, v_up, v_dn
print("\nhelicity operator on dirac u_up:   eigenvalue "
      f"{np.vdot(u, ops.helicity @ u).real / np.vdot(u, u).real:+.3f}")
print("helicity operator on lambda^S_up:  least-squares residual "
      f"{np.linalg.norm(ops.helicity @ lam - (np.vdot(lam, ops.helicity @ lam) / np.vdot(lam, lam)) * lam):.3f}"
      f"  (norm {np.linalg.norm(lam):.3f}; not an eigenvector)")
eta = ops.chiral_helicity
print("chiral helicity on lambda^S_up:    eigenvalue "
      f"{np.vdot(lam, eta @ lam).real / np.vdot(lam, lam).real:+.3f}")

print("\nmassless tail of the up member (N = sqrt(m)):")
for row in halfspin.massless_scan([1e-2, 1e-4, 1e-6, 1e-8]):
    print(f"  m={row['mass']:.0e}  |up|/|dn|={row['ratio']:.3e}  "
          f"|dn|={row['lam_s_dn_norm']:.6f}")
