"""reports: the report functions in process, at n = 32 and with long words.

Uses the same group layer as pd-sweep but with large matrices and long
words, and adds the curvature, flat and quotients layers.  Items:
all four verify_example reports, K = 60 orbit obstruction sequences at
n = 8 and 32, normal_form and homothety_factor_check at n = 32, riemann
and weyl at n = 32, flatness_blowup_demo(-1), the round trips
phi^k . phi^-k at k = 5, 10, 20 for each profile type, and one
pd_necessary_report at n = 32 (so pd words are counted here too).
"""

from __future__ import annotations

import numpy as np

import inputs
from harness import Request
from pd_sweep import pd_request

ROUND_TRIP_KS = (5, 10, 20)
ORBIT_K = 60
BIG_N = 32

# Seconds one cycle takes at nominal machine speed at the time of writing;
# a run repeats the cycle ceil(--seconds / NOMINAL_CYCLE_S) times.
NOMINAL_CYCLE_S = 1.05


def _verify(cw, name, kwargs):
    def check(rep):
        failed = [c.name for c in rep.checks if not c.passed]
        if not failed:
            return None
        detail = "failed checks: " + ", ".join(failed)
        if name == "failed-3d" and failed == ["conj_zeta_displayed"]:
            return detail, "failed-3d-abs-tol"
        return detail

    return Request(f"verify_example {name}",
                   lambda: cw.quotients.verify_example(name, **kwargs), check)


def _orbit(cw, rng, n):
    prof = inputs.profile(rng, "imaginary", n)
    P = inputs.build_profile(cw, prof)
    gamma = cw.group.Homothety(P, c=float(rng.uniform(0.5, 1.5)),
                               s=float(rng.uniform(0.4, 0.9)),
                               A=inputs.centraliser_matrix(rng, prof))
    phi = inputs.build_element(cw, P, inputs.element(
        rng, prof, eps=1, c=float(rng.uniform(0.5, 1.5))))

    def check(rep):
        last = rep.points[-1]
        dist = max(abs(last.t - phi.c), float(np.max(np.abs(last.x))), abs(last.v))
        if not rep.converged or dist > 1e-6:
            return f"orbit ends {dist:.3g} from (c, 0, 0)"
        return None

    return Request(f"orbit n={n} K={ORBIT_K}",
                   lambda: cw.dynamics.orbit_obstruction_sequence(gamma, phi, K=ORBIT_K),
                   check)


def _normal_form(cw, rng):
    # imaginary type: no positive eigenvalue, so never resonant
    prof = inputs.profile(rng, "imaginary", BIG_N)
    P = inputs.build_profile(cw, prof)
    phi = inputs.build_element(cw, P, inputs.element(rng, prof, eps=1))
    tol = 1e-8 * inputs.parameter_scale(phi)
    return Request(f"normal_form n={BIG_N}", lambda: cw.dynamics.normal_form(phi),
                   lambda res: None if res.residual <= tol else
                   f"residual {res.residual:.3g} > {tol:.3g}")


def _curvature(cw, prof, P):
    S = prof["S"]
    M = (np.trace(S) / BIG_N) * np.eye(BIG_N) - S
    tol = 1e-12 * max(1.0, float(np.max(np.abs(S))))

    def close(T, expected):
        err = float(np.max(np.abs(T.components - expected)))
        return None if err <= tol else f"max error {err:.3g} > {tol:.3g}"

    return [
        Request(f"riemann n={BIG_N}", lambda: cw.curvature.riemann(P),
                lambda T: close(T, inputs.riemann_oracle(S))),
        Request(f"weyl n={BIG_N}", lambda: cw.curvature.weyl(P),
                lambda T: close(T, -inputs.riemann_oracle(M))),
    ]


def _factor_check(cw, rng, prof, P):
    phi = inputs.build_element(cw, P, inputs.element(rng, prof))
    pts = [cw.core.Point(float(rng.uniform(-0.5, 0.5)), rng.normal(size=BIG_N),
                         float(rng.normal())) for _ in range(10)]
    xmax = max(float(p.x @ p.x) for p in pts)
    grow = np.exp(2 * abs(phi.s))
    tol = 1e-11 * grow * (1.0 + float(np.max(np.abs(prof["w"]))) * xmax * grow)
    return Request(f"homothety_factor_check n={BIG_N}",
                   lambda: cw.group.homothety_factor_check(phi, points=pts),
                   lambda dev: None if dev <= tol else f"deviation {dev:.3g} > {tol:.3g}")


def _blowup(cw):
    # y' = y^2 + 1, y(0) = 0 is tan t; the demo stops where |y| = 1e8
    expected = float(np.arctan(1e8))

    def check(out):
        t = out["blowup_t"]
        if not out["blowup"] or abs(t - expected) > 1e-6:
            return f"blow-up time {t} != {expected:.9f}"
        return None

    return Request("flatness_blowup_demo(-1)",
                   lambda: cw.flat.flatness_blowup_demo(-1), check)


def _round_trip(cw, rng, kind, k):
    prof = inputs.profile(rng, kind, 2)
    P = inputs.build_profile(cw, prof)
    raw = inputs.element(rng, prof, eps=1, c=float(rng.uniform(0.8, 1.2)))
    raw["s"] = float(rng.uniform(0.2, 0.4))
    raw["beta0"], raw["beta1"] = rng.normal(size=2), rng.normal(size=2)
    phi = inputs.build_element(cw, P, raw)
    bound = 1e-12 * k

    def call():
        g = cw.group
        fwd = g.power(phi, k)
        back = g.power(g.inverse(phi), k)
        return fwd, back, g.compose(fwd, back)

    def check(out):
        fwd, back, prod = out
        scale = max(inputs.parameter_scale(fwd), inputs.parameter_scale(back))
        rel = inputs.element_distance_to_identity(prod) / scale
        if rel <= bound:
            return None
        detail = f"relative error {rel:.3g} > {bound:.3g}"
        # The known drift lives in b and beta, and only where the profile
        # has a positive eigenvalue; the quotient part (eps, c, s) adds up
        # to rounding, so any other failure is a new one.
        tol = bound * max(1.0, k * abs(phi.c))
        quotient_ok = (
            fwd.eps == back.eps == prod.eps == 1
            and max(abs(fwd.c - k * phi.c), abs(fwd.s - k * phi.s),
                    abs(back.c + k * phi.c), abs(back.s + k * phi.s),
                    abs(prod.c), abs(prod.s)) <= tol)
        if kind in ("real", "mixed") and quotient_ok:
            return detail, "long-word-conditioning"
        return detail

    return Request(f"round trip {kind} k={k}", call, check)


def build(cw, rng, size):
    seed = int(rng.integers(0, 2**31))
    r = int(rng.integers(3, 7))
    cycle = [
        _verify(cw, "imaginary-torus", {"seed": seed}),
        _verify(cw, "real-lattice", {"r": r, "seed": seed}),
        _verify(cw, "failed-3d", {"seed": seed}),
        _verify(cw, "removed-fixed-points", {}),
        _blowup(cw),
    ]
    ks = ROUND_TRIP_KS if size == "full" else ROUND_TRIP_KS[:1]
    for kind in inputs.PROFILE_TYPES:
        for k in ks:
            cycle.append(_round_trip(cw, rng, kind, k))
    if size == "full":
        big = inputs.profile(rng, "mixed", BIG_N)
        P = inputs.build_profile(cw, big)
        cycle += [_orbit(cw, rng, 8), _orbit(cw, rng, BIG_N), _normal_form(cw, rng),
                  _factor_check(cw, rng, big, P), *_curvature(cw, big, P)]
    cycle.append(pd_request(cw, rng, "mixed", BIG_N, 2, 2))
    order = rng.permutation(len(cycle))
    cycle = [cycle[k] for k in order]
    info = {"n": [2, 8, BIG_N] if size == "full" else [2, BIG_N],
            "orbit_K": ORBIT_K, "round_trip_k": list(ks),
            "real_lattice_r": r, "verify_seed": seed,
            "requests_per_cycle": len(cycle),
            "words_per_cycle": sum(q.words for q in cycle)}
    return cycle, info
