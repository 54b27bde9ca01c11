"""cwgeom: numerics for Cahen-Wallach Lorentzian symmetric spaces.

Closed-form curvature and Weyl tensors of the metric
2 dv dt + (x, Sx) dt^2 + dx^2, closed-form arithmetic in its homothety group,
fixed-point and essentiality classification, conjugation normal forms,
obstructions to properly discontinuous cocompact actions, the conformal
charts to Minkowski space with the one pullback check they and the group
share, and machine verification of four explicit quotient constructions.
"""

from .core import (
    BetaSolution,
    Classification,
    SymmetricProfile,
    beta_eval,
    classify,
    symplectic_form,
)
from .curvature import (
    CurvatureTensor4,
    christoffel_at,
    cotton,
    metric_at,
    ricci,
    riemann,
    scalar,
    schouten,
    weyl,
)
from .dynamics import (
    FixedPointReport,
    NormalFormResult,
    fixed_point,
    inessential_rescaling,
    is_essential,
    normal_form,
    orbit_obstruction_sequence,
    pd_necessary_report,
)
from .errors import CWError
from .flat import (
    SmoothMap,
    flatness_blowup_demo,
    imaginary_local_map,
    minkowski_map,
    minkowski_metric,
)
from .group import (
    Homothety,
    apply,
    compose,
    homothety_factor_check,
    identity,
    inverse,
)
from .quotients import (
    ExampleReport,
    self_adjacency,
    verify_example,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
