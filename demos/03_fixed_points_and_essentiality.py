"""Fixed points and essentiality of strict homotheties.

A strict homothety (s != 0) fixes a point exactly when eps = -1 or
c = 0, and is essential exactly when it fixes a point.  In the
remaining branch an explicit rescaling f with f(phi(p)) = f(p) - s makes
phi an isometry of e^{2f} g_S.
"""

import numpy as np

from cwgeom import (
    BetaSolution,
    Homothety,
    SymmetricProfile,
    apply,
    fixed_point,
    inessential_rescaling,
    is_essential,
)

prof = SymmetricProfile(np.diag([1.5, -0.5]))
beta = BetaSolution(prof, [0.4, -0.2], [0.1, 0.6])

cases = {
    "eps=+1, c!=0 (translation-like)": Homothety(prof, beta=beta, c=1.2, s=0.5),
    "eps=+1, c=0": Homothety(prof, beta=beta, c=0.0, s=0.5),
    "eps=-1, c!=0": Homothety(prof, beta=beta, c=1.2, eps=-1, s=0.5),
}

for name, phi in cases.items():
    rep = fixed_point(phi)
    print(f"{name:32s} fixed point: {rep.exists:d} "
          f"reason={rep.reason} residual={rep.residual:.1e}")
    print(f"{'':32s} essential: {is_essential(phi)}")

phi = cases["eps=+1, c!=0 (translation-like)"]
f = inessential_rescaling(phi)
rng = np.random.default_rng(0)
worst = max(
    abs(f(apply(phi, p)) - (f(p) - phi.s))
    for p in rng.normal(size=(200, 4)))
print(f"\nequivariance of the rescaling, max |f(phi p) - f(p) + s| "
      f"over 200 points: {worst:.2e}")
