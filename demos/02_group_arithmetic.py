"""Arithmetic in the homothety group.

A group element acts by (t, x, v) -> (eps t + c, e^s A x + beta(t), ...)
with beta a solution of beta'' = S beta.  Composition and inversion are
computed at parameter level and checked pointwise, and the pullback
factor e^{2s} of the metric is verified through the analytic Jacobian.
"""

import numpy as np

from cwgeom import (
    BetaSolution,
    Homothety,
    SymmetricProfile,
    apply,
    compose,
    homothety_factor_check,
    inverse,
)

prof = SymmetricProfile(-np.eye(2))

phi = Homothety(prof, b=0.5, beta=BetaSolution(prof, [1.0, 0.0], [0.0, 1.0]),
                c=0.7, s=0.4)
psi = Homothety(prof, c=-0.3, eps=-1, b=2.0)

p = np.array([0.2, 1.0, -1.0, 0.5])  # (t, x, v)
lhs = apply(compose(phi, psi), p)
rhs = apply(phi, apply(psi, p))
print("compose is pointwise faithful:",
      np.max(np.abs(lhs - rhs)), "(should be ~1e-16)")

rt = apply(inverse(phi), apply(phi, p))
print("inverse round-trips a point:  ", np.max(np.abs(rt - p)))

# the pure homothety h_s: (t, x, v) -> (t, e^s x, e^{2s} v)
h = Homothety(SymmetricProfile(np.eye(1)), s=np.log(2.0))
t, x, v = apply(h, np.array([1.0, 1.0, 3.0]))
print(f"h_(ln 2) sends (1, 1, 3) to ({t}, {x}, {v})")

print(f"pullback deviation from e^(2s) g: "
      f"{homothety_factor_check(phi):.2e} (phi scales by e^{{2s}})")
