"""Fock-sector symmetry actions and the joint-eigenvector question.

Two commuting unitaries always share eigenvectors on a finite invariant
space; the interesting statement is sector-dependent.  On the
single-branch sector the branch swap exits the sector and a certificate
shows no joint eigenvector exists; on the rest sector with both branches
an explicit one does.
"""

from selfconj import fock
from selfconj.fock import FockVector


def show(state):
    """A moving state as its nonzero amplitudes on fock.MODES."""
    terms = [
        f"({a:g}) |{'-' if t < 0 else ''}p,{h}>^{'+' if b > 0 else '-'}"
        for a, (t, h, b) in zip(state.amps, fock.MODES)
        if a
    ]
    return " + ".join(terms)


inv = fock.INVERSION
ch = fock.CHARGE
chf = fock.CHARGE_FLIP

print("squares:", fock.squares_report([inv, ch, chf]))
print("inversion vs branch swap:", fock.commutator_report(inv, ch))
print("inversion vs flipping swap:", fock.commutator_report(inv, chf))

start = FockVector.basis(1, "up", +1)
print("\nchains on |p,up>^+:")
print("  swap after inversion: ", show(ch.apply(inv.apply(start))))
print("  inversion after swap: ", show(inv.apply(ch.apply(start))))
print("  flipping swap chains pick up opposite phases:")
print("   ", show(chf.apply(inv.apply(start))))
print("   ", show(inv.apply(chf.apply(start))))

print("\ncharge eigencombinations |p,h>^+ -+ i|p,h>^-:")
for k, v in fock.charge_eigencombos().items():
    print(f"  {k}: eigenvalue {v['eigenvalue']}, residual {v['residual']:.1e}")

cert = fock.simultaneous_eigen_certificate()
la, lb = cert["at"]
print(f"\nsingle-branch joint-eigenvector certificate, smallest at the eigenvalue "
      f"pair ({la:g}, {lb:g}): min singular value {cert['min_singular_value']:.6f} "
      "(sqrt 2: none exists)")

both = fock.both_branch_joint_eigenvector()
print("both-branch rest sector: explicit joint eigenvector with "
      f"inversion residual {both['inversion_residual']:.1e}, charge "
      f"eigenvalue {both['charge_eigenvalue']}")
