"""Machine verification of four explicit quotient constructions:

1. an imaginary-type space with a group of isometries acting properly
   discontinuously and cocompactly (fourfold covered by a 4-torus),
2. a real-type lattice construction from the roots of x^2 - r x + 1 and
   the failure of its homothety variant (non-discreteness),
3. a failed 3-dimensional real-type attempt (the conjugated element
   cannot act on the remaining direction and decays under conjugation),
4. a properly discontinuous cocompact homothety action on the complement
   of the fixed-point axis, with a finitely-self-adjacent region and an
   explicit inessential rescaling.

Each verification returns a report of named checks with residuals; a
failed check is a failed report, never an exception.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import BetaSolution, Point, SymmetricProfile, beta_eval, beta_reparam, symplectic_form
from .errors import InputError, PreconditionError, UnsupportedCaseError
from .flat import SmoothMap, conformal_defect
from .group import (
    Homothety,
    apply,
    compose,
    differential,
    element_distance,
    homothety_factor_check,
    identity,
    inverse,
    power,
)
from .curvature import metric_at

MEASURE_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class ExampleReport:
    example: str
    checks: List[CheckResult]
    commentary: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, residual: float, tol: float) -> CheckResult:
    return CheckResult(name, bool(residual <= tol), float(residual))


def _param_size(phi: Homothety) -> float:
    """The largest |parameter| of a group element, the scale of
    element_distance."""
    return max(abs(phi.b), float(np.max(np.abs(phi.beta.beta0))),
               float(np.max(np.abs(phi.beta.beta1))), abs(phi.c),
               float(np.max(np.abs(phi.A))), abs(phi.s))


def _map_residual(map_a: Callable, map_b: Callable, points) -> float:
    worst = 0.0
    for p in points:
        worst = max(worst, float(np.max(np.abs(map_a(p) - map_b(p)))))
    return worst


# ---------------------------------------------------------------------------
# Example 1: imaginary-type torus quotient
# ---------------------------------------------------------------------------

def _ex1_f(q: np.ndarray) -> np.ndarray:
    """Conjugating diffeomorphism (u, x, y, v) -> (t, x^1, x^2, v)."""
    u, x, y, v = q
    X = x * np.array([np.cos(u), np.sin(u)]) + y * np.array([-np.sin(u), np.cos(u)])
    return np.array([u, X[0], X[1], -v - x * y])


def _ex1_finv(q: np.ndarray) -> np.ndarray:
    t, x1, x2, v = q
    xr = x1 * np.cos(t) + x2 * np.sin(t)
    yr = -x1 * np.sin(t) + x2 * np.cos(t)
    return np.array([t, xr, yr, -v - xr * yr])


def verify_imaginary_torus_example(samples: int = 50, seed: int = 42) -> ExampleReport:
    """Isometric quotient of the 4-dimensional imaginary-type model space.

    The group is generated by the t-shift gamma by pi/2, the v-shift eta,
    and the Heisenberg isometry zeta with beta = (cos t, sin t).  A
    change of coordinates f makes the action affine with constant linear
    part; the conjugated generators stabilize a cocompact discrete
    subgroup of index 4 (a Heisenberg-type integer lattice).
    """
    prof = SymmetricProfile(-np.eye(2))
    gamma = Homothety(prof, c=np.pi / 2)
    eta = Homothety(prof, b=1.0)
    zeta = Homothety(prof, beta=BetaSolution(prof, [1.0, 0.0], [0.0, 1.0]))
    zeta_hat = compose(inverse(gamma), compose(zeta, gamma))
    gamma4 = power(gamma, 4)

    rng = np.random.default_rng(seed)
    pts = [rng.normal(size=4) * 2.0 for _ in range(samples)]
    checks = []

    # round trips of the conjugating diffeomorphism
    checks.append(_check(
        "f_round_trip",
        _map_residual(lambda q: _ex1_finv(_ex1_f(q)), lambda q: q, pts), 1e-9))

    def conj(elem: Homothety) -> Callable:
        return lambda q: _ex1_finv(apply(elem, Point.from_array(_ex1_f(q))).as_array())

    targets = {
        "conj_gamma": (gamma, lambda q: np.array(
            [q[0] + np.pi / 2, q[2], -q[1], q[3] + 2 * q[1] * q[2]])),
        "conj_eta": (eta, lambda q: np.array([q[0], q[1], q[2], q[3] - 1.0])),
        "conj_zeta": (zeta, lambda q: np.array([q[0], q[1] + 1.0, q[2], q[3]])),
        "conj_zeta_hat": (zeta_hat, lambda q: np.array(
            [q[0], q[1], q[2] + 1.0, q[3] - 2 * q[1]])),
        "conj_gamma4": (gamma4, lambda q: np.array(
            [q[0] + 2 * np.pi, q[1], q[2], q[3]])),
    }
    for name, (elem, target) in targets.items():
        checks.append(_check(name, _map_residual(conj(elem), target, pts), 1e-8))

    # all generators are genuine isometries
    iso_res = max(homothety_factor_check(g, rng=rng)
                  for g in (gamma, eta, zeta, zeta_hat))
    checks.append(_check("generators_are_isometries", iso_res, 1e-8))

    # group arithmetic agrees with pointwise composition for zeta and its
    # gamma-conjugate (the omega-cocycle consistency)
    prod = compose(zeta, zeta_hat)
    res = 0.0
    for q in pts[:20]:
        p = Point(q[0], q[1:3], q[3])
        lhs = apply(prod, p).as_array()
        rhs = apply(zeta, apply(zeta_hat, p)).as_array()
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    checks.append(_check("group_vs_pointwise", res, 1e-9))

    # commutator of the conjugated zeta generators is a central v-shift
    # by 2, i.e. the square of the conjugated eta-inverse: the conjugated
    # group is an integer Heisenberg-type lattice, cocompact and discrete
    comm = compose(zeta, compose(zeta_hat, compose(inverse(zeta), inverse(zeta_hat))))
    comm_conj = conj(comm)
    res = _map_residual(comm_conj,
                        lambda q: np.array([q[0], q[1], q[2], q[3] + 2.0]), pts)
    checks.append(_check("commutator_is_central_v_shift", res, 1e-8))

    # index-4 structure: the conjugated gamma-powers rotate the (x, y)
    # block for k = 1, 2, 3 and become a pure translation at k = 4
    ok = True
    for k in (1, 2, 3):
        gk = conj(power(gamma, k))
        lin = np.array([gk(np.eye(4)[i] * 1.0) - gk(np.zeros(4)) for i in range(4)]).T
        rot_defect = float(np.max(np.abs(lin[1:3, 1:3] - np.eye(2))))
        ok = ok and rot_defect > 0.5
    checks.append(CheckResult("gamma_powers_rotate_until_four", ok, 0.0))

    commentary = ("The conjugated lattice generators are 2 pi e1, e2, e3 with a "
                  "v-shear, and -e4; the group they generate is a discrete "
                  "cocompact integer-Heisenberg-type lattice of index 4.")
    return ExampleReport("imaginary-torus", checks, commentary)


# ---------------------------------------------------------------------------
# Example 2: real-type lattice and the homothety failure
# ---------------------------------------------------------------------------

def verify_real_lattice_example(r: int = 3, k_max: int = 30,
                                seed: int = 42) -> ExampleReport:
    """Real-type lattice built from the roots of x^2 - r x + 1, and the
    non-discreteness of its homothety variant."""
    if r < 3:
        raise PreconditionError("r must be an integer >= 3 for distinct real roots")
    # conjugate_b_is_rho_power divides by rho^(1 - 2k) for k <= k_max, which
    # must stay a normal float; rho < r, so bounding r bounds rho.
    r_max = np.finfo(float).smallest_normal ** (-1.0 / (2 * k_max - 1))
    if r > r_max:
        raise InputError(f"r = {r} is too large: rho^(1 - 2 k_max) underflows "
                         f"for r > {math.floor(r_max)}")
    rho = (r + np.sqrt(r * r - 4.0)) / 2.0
    lr = np.log(rho)
    prof = SymmetricProfile(lr ** 2 * np.eye(2))
    beta = BetaSolution(prof, [1.0, 1.0], [lr, -lr])  # (rho^t, rho^{-t})
    betahat = beta_reparam(beta, 1.0, 1)              # beta(t + 1)

    checks = []
    checks.append(_check("vieta_product", abs(rho * (1.0 / rho) - 1.0), 1e-12))

    # beta grows like rho^t, so the recurrence and shift checks are judged
    # relative to the size of what they compare
    res, size = 0.0, 0.0
    for t in (0.0, 0.3, 1.7):
        terms = np.array([beta_eval(betahat, t + 1.0)[0], r * beta_eval(betahat, t)[0],
                          beta_eval(beta, t)[0]])
        res = max(res, float(np.max(np.abs(terms[0] - terms[1] + terms[2]))))
        size = max(size, float(np.max(np.abs(terms))))
    checks.append(_check("recurrence", res, 1e-9 * max(1.0, size)))

    checks.append(_check("lagrangian_omega",
                         abs(symplectic_form(beta, betahat)), 1e-9))

    eta = Homothety(prof, beta=beta)
    etahat = Homothety(prof, beta=betahat)
    gamma = Homothety(prof, c=1.0)

    # shift stability of the lattice: conjugation by the t-shift maps
    # eta -> etahat and etahat -> eta^{-1} etahat^r
    tau_eta = compose(inverse(gamma), compose(eta, gamma))
    checks.append(_check("shift_eta", element_distance(tau_eta, etahat), 1e-8))
    tau_etahat = compose(inverse(gamma), compose(etahat, gamma))
    target = compose(inverse(eta), power(etahat, r))
    size = max(_param_size(tau_etahat), _param_size(target))
    checks.append(_check("shift_etahat", element_distance(tau_etahat, target),
                         1e-6 * max(1.0, size)))

    # homothety variant: gammahat scales by rho per unit time; conjugating
    # the v-translation by rho gives central parameter rho^{1-2k}
    gammahat = Homothety(prof, c=1.0, s=lr)
    alpha = Homothety(prof, b=rho)
    origin = Point(0.0, np.zeros(2), 0.0)
    res_b = 0.0
    min_dist = np.inf
    orbit_norm = None
    current = alpha
    ghi, gh = inverse(gammahat), gammahat
    for k in range(1, k_max + 1):
        current = compose(ghi, compose(current, gh))
        res_b = max(res_b, abs(current.b - rho ** (1 - 2 * k)) / rho ** (1 - 2 * k))
        min_dist = min(min_dist, element_distance(current, identity(prof)))
        orbit_norm = float(np.linalg.norm(apply(current, origin).as_array()))
    checks.append(_check("conjugate_b_is_rho_power", res_b, 1e-8))
    checks.append(_check("non_discreteness", min_dist, 1e-3))
    checks.append(_check("orbit_converges_to_zero", orbit_norm, 1e-6))

    commentary = (f"rho = {rho:.6f}; the isometric lattice is shift-stable, "
                  "while the homothety variant conjugates the v-translation "
                  "arbitrarily close to the identity.")
    return ExampleReport("real-lattice", checks, commentary)


# ---------------------------------------------------------------------------
# Example 3: failed 3-dimensional real-type attempt
# ---------------------------------------------------------------------------

def _ex3_f(q: np.ndarray) -> np.ndarray:
    t, y, z = q
    return np.array([t, np.exp(t) * y, np.exp(2 * t) * (z - y * y / 2.0)])


def _ex3_finv(q: np.ndarray) -> np.ndarray:
    t, x, v = q
    return np.array([t, np.exp(-t) * x, np.exp(-2 * t) * (v + x * x / 2.0)])


def verify_failed_3d_example(samples: int = 50, seed: int = 42) -> ExampleReport:
    """Failed homothetic quotient attempt on the 3-dimensional real-type
    space: the conjugated Heisenberg element with decaying beta acts
    trivially on the direction left to compactify and its conjugates by
    the homothety collapse to the identity."""
    prof = SymmetricProfile(np.eye(1))
    gamma = Homothety(prof, c=1.0, s=1.0)
    eta = Homothety(prof, beta=BetaSolution(prof, [1.0], [1.0]))    # e^t
    zeta = Homothety(prof, beta=BetaSolution(prof, [1.0], [-1.0]))  # e^{-t}

    rng = np.random.default_rng(seed)
    pts = [rng.normal(size=3) * 1.5 for _ in range(samples)]
    checks = []

    checks.append(_check(
        "f_round_trip",
        _map_residual(lambda q: _ex3_finv(_ex3_f(q)), lambda q: q, pts), 1e-8))

    def conj_elem(elem: Homothety) -> Callable:
        return lambda q: _ex3_finv(apply(elem, Point.from_array(_ex3_f(q))).as_array())

    checks.append(_check(
        "conj_gamma",
        _map_residual(conj_elem(gamma),
                      lambda q: np.array([q[0] + 1.0, q[1], q[2]]), pts), 1e-8))
    checks.append(_check(
        "conj_eta",
        _map_residual(conj_elem(eta),
                      lambda q: np.array([q[0], q[1] + 1.0, q[2]]), pts), 1e-8))

    # the displayed zeta uses the sign-flipped v-part; as a plain map it
    # conjugates to a pure shear in the middle coordinate
    def zeta_displayed(q):
        t, x, v = q
        b = np.exp(-t)
        return np.array([t, x + b, v - b * (x + b / 2.0)])

    def conj_displayed(q):
        return _ex3_finv(zeta_displayed(_ex3_f(q)))

    # the shear grows like e^{-2t}, so the check is judged relative to the
    # size of what it compares
    res, size = 0.0, 0.0
    for q in pts:
        got, want = conj_displayed(q), np.array([q[0], q[1] + np.exp(-2 * q[0]), q[2]])
        res = max(res, float(np.max(np.abs(got - want))))
        size = max(size, float(np.max(np.abs(got))), float(np.max(np.abs(want))))
    checks.append(_check("conj_zeta_displayed", res, 1e-7 * max(1.0, size)))

    checks.append(_check("eta_is_isometry",
                         homothety_factor_check(eta, rng=rng), 1e-8))
    checks.append(_check("zeta_is_isometry",
                         homothety_factor_check(zeta, rng=rng), 1e-8))
    checks.append(_check("gamma_is_homothety",
                         homothety_factor_check(gamma, rng=rng), 1e-8))

    # decay mode: gamma^{-i} zeta gamma^i (0) collapses like e^{-2i}
    origin = Point(0.0, np.zeros(1), 0.0)
    norms = []
    current = zeta
    gi, g = inverse(gamma), gamma
    for i in range(1, 21):
        current = compose(gi, compose(current, g))
        norms.append(float(np.linalg.norm(apply(current, origin).as_array())))
    fit = np.polyfit(np.arange(1, 21), np.log(norms), 1)
    rate = np.exp(fit[0])
    checks.append(_check("decay_rate_e_minus_2",
                         abs(rate - np.exp(-2.0)) / np.exp(-2.0), 0.1))
    checks.append(_check("decay_terminal", norms[-1], 1e-6))

    commentary = ("Only the e^{+t} solution survives conjugation by the "
                  "homothety; the e^{-t} direction decays at rate e^{-2} "
                  "per step, so no cocompact properly discontinuous group "
                  "arises this way.")
    return ExampleReport("failed-3d", checks, commentary)


# ---------------------------------------------------------------------------
# Example 4: removed fixed points, finite self-adjacency, rescale on U
# ---------------------------------------------------------------------------

Box = Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box minus a list of axis-aligned holes."""

    outer: Box
    holes: Tuple[Box, ...] = ()

    def __post_init__(self):
        for lo, hi in self.outer:
            if lo >= hi:
                raise ValueError("outer intervals must be nondegenerate")
        object.__setattr__(self, "outer", tuple(tuple(map(float, iv)) for iv in self.outer))
        object.__setattr__(self, "holes",
                           tuple(tuple(tuple(map(float, iv)) for iv in h)
                                 for h in self.holes))

    @property
    def dim(self) -> int:
        return len(self.outer)


def _box_intersect(a: Box, b: Box) -> Optional[Box]:
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if hi - lo <= MEASURE_TOL:
            return None
        out.append((lo, hi))
    return tuple(out)


def _box_minus_holes_nonempty(box: Box, holes: Sequence[Box]) -> bool:
    """Whether the box minus the union of holes has positive measure,
    by recursive splitting along hole boundaries."""
    live = [h for h in (_box_intersect(box, h) for h in holes) if h is not None]
    if not live:
        return True
    h = live[0]
    # if the first hole covers the whole box, recurse into nothing
    covers = all(hlo <= blo + MEASURE_TOL and bhi <= hhi + MEASURE_TOL
                 for (blo, bhi), (hlo, hhi) in zip(box, h))
    if covers:
        return False
    # split the box along one face of the hole that cuts its interior
    for axis, ((blo, bhi), (hlo, hhi)) in enumerate(zip(box, h)):
        for cut in (hlo, hhi):
            if blo + MEASURE_TOL < cut < bhi - MEASURE_TOL:
                left = tuple((blo, cut) if i == axis else iv
                             for i, iv in enumerate(box))
                right = tuple((cut, bhi) if i == axis else iv
                              for i, iv in enumerate(box))
                rest = live
                return (_box_minus_holes_nonempty(left, rest)
                        or _box_minus_holes_nonempty(right, rest))
    # no face cuts the interior, so the hole covers the box on every axis
    return False


def _require_axis_map(phi: Homothety) -> None:
    A = phi.A
    if phi.eps != 1 or not phi.beta.is_zero():
        raise UnsupportedCaseError("generator must preserve axis boxes "
                                   "(eps = +1, beta = 0)")
    pattern = np.abs(A)
    if not (np.allclose(pattern @ np.ones(A.shape[0]), 1.0, atol=1e-9)
            and np.allclose(np.ones(A.shape[0]) @ pattern, 1.0, atol=1e-9)
            and np.allclose(pattern * (1 - pattern), 0.0, atol=1e-9)):
        raise UnsupportedCaseError("generator matrix must be a signed permutation")


def _transform_box(phi: Homothety, box: Box) -> Box:
    """Image of an axis box under an axis-preserving group element."""
    n = phi.profile.n
    t_lo, t_hi = box[0]
    v_lo, v_hi = box[-1]
    new = [(t_lo + phi.c, t_hi + phi.c)]
    scale = np.exp(phi.s)
    xin = box[1:-1]
    xout = [None] * n
    for j in range(n):
        i = int(np.argmax(np.abs(phi.A[:, j])))
        sgn = np.sign(phi.A[i, j])
        lo, hi = xin[j]
        a, b = sgn * scale * lo, sgn * scale * hi
        xout[i] = (min(a, b), max(a, b))
    new.extend(xout)
    vs = sorted((np.exp(2 * phi.s) * v_lo + phi.b, np.exp(2 * phi.s) * v_hi + phi.b))
    new.append(tuple(vs))
    return tuple(new)


def self_adjacency(region: BoxRegion, generators: Sequence[Homothety],
                   exponent_range: int = 3) -> set:
    """Exponent tuples (i_1, ..., i_k) with |i_j| <= exponent_range for
    which the image of the region under g_1^{i_1} ... g_k^{i_k} meets the
    region in a set of positive measure."""
    for g in generators:
        _require_axis_map(g)
    out = set()
    exps = range(-exponent_range, exponent_range + 1)
    for combo in itertools.product(exps, repeat=len(generators)):
        word = None
        for g, e in zip(generators, combo):
            factor = power(g, e)
            word = factor if word is None else compose(word, factor)
        img_outer = _transform_box(word, region.outer)
        overlap = _box_intersect(img_outer, region.outer)
        if overlap is None:
            continue
        img_holes = [_transform_box(word, h) for h in region.holes]
        if _box_minus_holes_nonempty(overlap, list(region.holes) + img_holes):
            out.add(combo)
    return out


def example4_regions(n: int = 1) -> Tuple[BoxRegion, BoxRegion]:
    """The fundamental region R and the neighbourhood V of its closure for
    the removed-fixed-points quotient on R^{n+2} minus the t-axis."""
    R = BoxRegion(
        outer=((0.0, 1.0),) + ((-2.0, 2.0),) * n + ((-4.0, 4.0),),
        holes=(((0.0, 1.0),) + ((-1.0, 1.0),) * n + ((-1.0, 1.0),),),
    )
    V = BoxRegion(
        outer=((-1.0, 2.0),) + ((-4.0, 4.0),) * n + ((-16.0, 16.0),),
        holes=(((-1.0, 2.0),) + ((-0.5, 0.5),) * n + ((-0.25, 0.25),),),
    )
    return R, V


def example4_generators(n: int = 1) -> Tuple[Homothety, Homothety]:
    """gamma = unit t-shift, eta = pure homothety with factor 2."""
    prof = SymmetricProfile(-np.eye(n))
    return Homothety(prof, c=1.0), Homothety(prof, s=np.log(2.0))


def rescale_field(p: Point) -> float:
    """f(t, x, v) = (|x|^4 + v^2)^{-1/2}, defined off the t-axis."""
    q = float(p.x @ p.x) ** 2 + p.v * p.v
    if q <= 1e-300:
        raise PreconditionError("f is undefined on the axis {x = 0, v = 0}")
    return 1.0 / np.sqrt(q)


def verify_inessential_rescale_U(n: int = 2, samples: int = 30,
                                 seed: int = 42) -> ExampleReport:
    """On U = R^{n+2} minus the t-axis, f = (|x|^4 + v^2)^{-1/2} makes
    every element of E(1) x C_O(n)(S) x R an isometry of f g_S."""
    from .core import random_centralising_orthogonal

    prof = SymmetricProfile(-np.eye(n))
    rng = np.random.default_rng(seed)
    fg = lambda q: rescale_field(q) * metric_at(prof, q).components
    worst = 0.0
    for _ in range(samples):
        phi = Homothety(prof,
                        c=rng.normal(),
                        eps=int(rng.choice([-1, 1])),
                        A=random_centralising_orthogonal(prof, rng),
                        s=rng.normal())
        p = Point(rng.normal(), rng.normal(size=n) + 0.5, rng.normal() + 0.5)
        action = SmoothMap(n, partial(apply, phi), partial(differential, phi))
        worst = max(worst, conformal_defect(action, fg, fg, lambda p: 1.0, [p]))
    checks = [_check("rescale_equivariance", worst, 1e-8)]

    # the t-translation leaves f untouched outright
    gamma = Homothety(prof, c=1.0)
    p = Point(0.3, np.ones(n), 1.2)
    checks.append(_check("t_translation_invariance",
                         abs(rescale_field(apply(gamma, p)) - rescale_field(p)),
                         1e-12))
    commentary = ("This makes the centraliser inessential on U; it is not a "
                  "proof that the quotient's conformal structure is "
                  "inessential, since transformations of the quotient need "
                  "not lift to the verified class.")
    return ExampleReport("inessential-rescale-U", checks, commentary)


def verify_removed_fixed_points_example(n: int = 1) -> ExampleReport:
    """Full report for the removed-fixed-points quotient: the fundamental
    region meets no nontrivial translate, the neighbourhood V is finitely
    self adjacent with exponent window {-2..2}^2, and the inessential
    rescale identity holds on U."""
    R, V = example4_regions(n)
    gamma, eta = example4_generators(n)
    checks = []
    adj_R = self_adjacency(R, [gamma, eta], exponent_range=3)
    checks.append(CheckResult("fundamental_region_disjoint",
                              adj_R == {(0, 0)}, 0.0))
    adj_V = self_adjacency(V, [gamma, eta], exponent_range=3)
    expected = {(i, j) for i in range(-2, 3) for j in range(-2, 3)}
    checks.append(CheckResult("V_self_adjacency_window", adj_V == expected, 0.0))
    sym = all((-i, -j) in adj_V for (i, j) in adj_V)
    checks.append(CheckResult("adjacency_symmetric", sym, 0.0))
    sub = verify_inessential_rescale_U(n=max(n, 1))
    checks.extend(sub.checks)
    return ExampleReport("removed-fixed-points", checks, sub.commentary)


EXAMPLES = {
    "imaginary-torus": verify_imaginary_torus_example,
    "real-lattice": verify_real_lattice_example,
    "failed-3d": verify_failed_3d_example,
    "removed-fixed-points": verify_removed_fixed_points_example,
}


def verify_example(name: str, **kwargs) -> ExampleReport:
    if name not in EXAMPLES:
        raise KeyError(f"unknown example '{name}'; choose from {sorted(EXAMPLES)}")
    return EXAMPLES[name](**kwargs)
