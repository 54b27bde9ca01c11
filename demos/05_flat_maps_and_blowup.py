"""Conformal maps to Minkowski space and the flatness dichotomy.

The real-type model space maps conformally onto the Minkowski half-space
{u > 0}; the imaginary-type model only maps locally, on the strip
|t| < pi/2, and the Riccati equation y' = y^2 + 1 behind a would-be
global rescaling blows up in finite time.
"""

import numpy as np

from cwgeom import (
    SymmetricProfile,
    flatness_blowup_demo,
    imaginary_local_map,
    metric_at,
    minkowski_map,
    minkowski_metric,
)
from cwgeom.flat import conformal_defect

# Gram arrays of the metrics and conformal factors at (N, n+2) arrays of
# points; conformal_defect is max |F^* g0 - factor * g| over the points
n = 2
g0 = minkowski_metric(n)
flat = lambda a: g0
rng = np.random.default_rng(5)
pts = np.column_stack([rng.uniform(-1.4, 1.4, 20), rng.normal(size=(20, n + 1))])

F = minkowski_map(n)
prof = SymmetricProfile(np.eye(n))
res = conformal_defect(F, flat, lambda a: metric_at(prof, a), lambda a: np.exp(2 * a[..., 0]), pts)
print(f"real type: |F* g0 - e^(2t) g| = {res:.2e}")

prof_im = SymmetricProfile(-np.eye(n))
res = conformal_defect(imaginary_local_map(n), flat, lambda a: metric_at(prof_im, a),
                       lambda a: np.cos(a[..., 0]) ** -2, pts)
print(f"imaginary type (strip): |G* g0 - g/cos^2 t| = {res:.2e}")

out = flatness_blowup_demo(-1, y0=0.0)
print(f"\nimaginary type, y' = y^2 + 1 from 0: blow-up at t = "
      f"{out['blowup_t']:.6f} (pi/2 = {np.pi / 2:.6f})")
