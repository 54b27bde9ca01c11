"""Classification and curvature of the model spaces.

The metric is g_S = 2 dv dt + (x, Sx) dt^2 + dx^2 on R^{n+2}; everything
about its geometry is encoded in the symmetric matrix S.  This script
classifies a few profiles by their spectrum and checks the closed-form
curvature against a brute-force finite-difference computation.
"""

import numpy as np

from cwgeom import (
    SymmetricProfile,
    classify,
    metric_at,
    ricci,
    riemann,
    scalar,
    weyl,
)
from cwgeom.curvature import riemann_finite_difference

profiles = {
    "real (S = I_2)": SymmetricProfile(np.eye(2)),
    "imaginary (S = -I_2)": SymmetricProfile(-np.eye(2)),
    "mixed": SymmetricProfile(np.diag([2.0, -1.0])),
    "degenerate": SymmetricProfile(np.diag([1.0, 0.0])),
}

for name, prof in profiles.items():
    cls = classify(prof)
    print(f"{name:24s} type={cls.type:10s} invertible={cls.invertible} "
          f"conformally_flat={cls.conformally_flat}")

print()
prof = SymmetricProfile(np.diag([2.0, -1.0]))
p = np.array([0.4, 1.0, -0.5, 0.2])  # (t, x, v)
print("metric at p:")
print(metric_at(prof, p))

R = riemann(prof)
R_fd = riemann_finite_difference(prof, p)
print(f"\nmax |R_closed - R_finite_difference| = "
      f"{np.max(np.abs(R.components - R_fd)):.3e}")
print(f"Ricci tt-entry = {ricci(prof)[0, 0]} (= -tr S)")
print(f"scalar curvature = {scalar(prof)}")
print(f"Weyl norm = {weyl(prof).max_abs():.3f} "
      "(vanishes exactly when S is a scalar matrix):")
print(f"  scalar profile: {weyl(SymmetricProfile(3 * np.eye(3))).max_abs():.1e}")
