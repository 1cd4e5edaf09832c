"""The spin-1 story: real matrix family, real-frame spinors, no
self-conjugate spinors.

The frame W = U.S turns the whole covariant family real at once; in the
same frame u and v split into real and imaginary parts that obey exact
identities on the meridian plane.  The plain conjugation squares to -1,
so it has no eigenspinors at all; the chirality-twisted one does.
"""

import numpy as np

from selfconj import spin1
from selfconj.halfspin import FourMomentum

np.set_printoptions(precision=6, suppress=True, linewidth=140)

rep = spin1.majorana_family_report()
print("family report:", {k: f"{v:.2e}" for k, v in rep.items() if isinstance(v, float)})

# the family is one (4, 4, 6, 6) array, so W gamma_{mu nu} W^+ is one product
# for all sixteen (mu, nu) at once
images = spin1.to_majorana_rep(spin1.CHIRAL_GAMMAS)
print(f"all 16 images match the displayed forms to {np.abs(images - spin1.MR_FORMS).max():.1e}")

print("\nreal-frame chirality matrix (imaginary by design):")
print(spin1.MR_FIVE)

p = FourMomentum(1.0, 1.0, np.pi / 3, 0.0)
s = spin1.mr_spinor(p)
up, lg, dn = 0, 1, 2  # helicities +1, 0, -1 along axis -2
print(f"\nat theta={p.theta:.3f} on the meridian plane:")
print(f"  |Re u(+1) - Re u(-1)| = {np.linalg.norm(s.u_re[up] - s.u_re[dn]):.2e}")
print(f"  |Re v(+1) + Re v(-1)| = {np.linalg.norm(s.v_re[up] + s.v_re[dn]):.2e}")
print(f"  |Re u(0)|             = {np.linalg.norm(s.u_re[lg]):.2e}")
print(f"  |Re v(0)|             = {np.linalg.norm(s.v_re[lg]):.3f}  (stays finite)")

off = spin1.transverse_reality_report(FourMomentum(1.0, 1.0, np.pi / 3, np.pi / 5))
print(f"  off the plane the first identity breaks: {off['u_re_match']:.3f}")

print("\nself-conjugacy dichotomy:")
d = spin1.selfconjugacy_analysis()
print(f"  plain conjugation squares to {d['square_sign_plain']:+d}: "
      f"nonexistence margin {d['nonexistence_margin']:.6f} (= sqrt 2)")
print(f"  twisted conjugation squares to {d['square_sign_twisted']:+d}: "
      f"eigenspaces split {d['plus_dim']} + {d['minus_dim']}, worst residual "
      f"{d['eigenvector_residual']:.2e}")
