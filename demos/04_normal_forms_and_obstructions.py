"""Conjugation normal forms, resonance, and dynamics obstructions.

A non-resonant strict homothety with eps = +1 is conjugate, by an
isometry, to an element with b = 0, beta = 0 and c >= 0.  The linear
system decouples over the eigenspaces of S and becomes singular exactly
at the resonance (s/c)^2 = lambda^2 for a positive eigenvalue on whose
eigenspace A fixes a vector.  On
imaginary-type spaces the conjugate-orbit sequence y_k = g^{-k} phi g^k (0)
collapses onto the t-axis, the obstruction to proper discontinuity.
"""

import numpy as np

from cwgeom import (
    BetaSolution,
    Homothety,
    SymmetricProfile,
    normal_form,
    orbit_obstruction_sequence,
    pd_necessary_report,
)
from cwgeom.dynamics import block_determinant
from cwgeom.errors import ResonanceError

prof = SymmetricProfile(-np.eye(2))
phi = Homothety(prof, b=0.8, beta=BetaSolution(prof, [1.0, 0.0], [0.0, 1.0]),
                c=-1.1, s=0.5)
res = normal_form(phi)
print(f"normal form: c={res.normal.c:.3f} s={res.normal.s:.3f} "
      f"b={res.normal.b} |beta|=0, residual={res.residual:.1e}")

# resonance: S = 1, c = 1, s = 1 sits on (s/c)^2 = lambda^2, and A = 1
try:
    normal_form(Homothety(SymmetricProfile(np.eye(1)), c=1.0, s=1.0,
                          beta=BetaSolution(SymmetricProfile(np.eye(1)),
                                            [1.0], [0.0])))
except ResonanceError as exc:
    print(f"resonant input raises: {exc}")

lam, c = 1.0, 1.0
print("block determinant near the resonance s = lambda c:")
for s in (0.8, 0.99, 1.0, 1.01, 1.2):
    print(f"  s={s:5.2f}  det={block_determinant(lam ** 2, s, c):+.4e}")

# orbit obstruction on an imaginary-type space
gamma = Homothety(prof, c=1.0, s=0.5)
target = Homothety(prof, c=1.3, beta=BetaSolution(prof, [2.0, 0.0], [0.0, 1.0]))
rep = orbit_obstruction_sequence(gamma, target, K=60)
print(f"\norbit sequence converged={rep.converged}, limit t={rep.limit[0]}, "
      f"empirical rate={rep.rate:.4f} vs e^(-s)={np.exp(-0.5):.4f}")

report = pd_necessary_report([gamma], max_length=2)
print(f"pd sweep on imaginary type: {len(report.obstructions)} obstruction(s), "
      f"first kind: {report.obstructions[0].kind}")
