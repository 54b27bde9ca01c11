"""cwgeom: numerics for Cahen-Wallach Lorentzian symmetric spaces.

Closed-form curvature and Weyl tensors of the metric
2 dv dt + (x, Sx) dt^2 + dx^2, closed-form arithmetic in its homothety group,
fixed-point and essentiality classification, conjugation normal forms,
obstructions to properly discontinuous cocompact actions, the conformal
charts to Minkowski space with the one pullback check they and the group
share, and machine verification of four explicit quotient constructions.

`import cwgeom` loads no submodule: each exported name, and each
submodule, is imported on its first read (PEP 562), so a caller pays only
for the modules it uses.
"""

import importlib

# the exported names of each submodule
_EXPORTS = {
    "core": ("BetaSolution", "Classification", "SymmetricProfile", "beta_eval", "classify",
             "symplectic_form"),
    "curvature": ("CurvatureTensor4", "christoffel_at", "cotton", "metric_at", "ricci",
                  "riemann", "scalar", "schouten", "weyl"),
    "dynamics": ("FixedPointReport", "NormalFormResult", "fixed_point", "inessential_rescaling",
                 "is_essential", "normal_form", "orbit_obstruction_sequence",
                 "pd_necessary_report"),
    "errors": ("CWError",),
    "flat": ("SmoothMap", "flatness_blowup_demo", "imaginary_local_map", "minkowski_map",
             "minkowski_metric"),
    "group": ("Homothety", "apply", "compose", "homothety_factor_check", "identity", "inverse"),
    "quotients": ("ExampleReport", "self_adjacency", "verify_example"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    """The submodule `name`, or the exported name from its submodule,
    imported on first read and then bound here."""
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
