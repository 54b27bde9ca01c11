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
failed check is a failed report, never an exception.  The verifiers
share their parts: `_check` judges a residual against a tolerance
relative to the size of what it compares, `_chart_checks` compares
f^-1 . g . f with its target on the sample points for a chart f, and
the real lattice reads its conjugates off `orbit_obstruction_sequence`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (APPROACH_TOL, COMPOSED_TOL, DIVISOR_FLOOR, EXACT_TOL, GROWTH_TOL,
                   MEASURE_TOL, ORBIT_TOL, PARAM_TOL, RATE_TOL, ROUNDOFF_TOL, WORD_TOL,
                   BetaSolution, SymmetricProfile, beta_eval, coords,
                   random_centralising_orthogonal, symplectic_form, within)
from .dynamics import orbit_obstruction_sequence
from .errors import InputError, PreconditionError, UnsupportedCaseError
from .flat import SmoothMap, conformal_defect
from .group import (
    Homothety,
    _element,
    _stack,
    _take,
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

# the orbit length of the real-lattice example's homothety variant
LATTICE_K_MAX = 30
# the largest |exponent| of each generator in self_adjacency's words
ADJACENCY_RANGE = 3


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


def _check(name: str, residual: float, tol: float, size: float = 1.0) -> CheckResult:
    """The check that core.within passes the residual: an identity between
    quantities larger than 1 is judged relative to their size."""
    return CheckResult(name, bool(within(residual, tol, size)), float(residual))


def _param_size(phi: Homothety) -> float:
    """The largest |parameter| of a group element, the scale of
    element_distance."""
    return float(np.max(np.abs(np.r_[phi.b, phi.beta.beta0, phi.beta.beta1,
                                     phi.c, phi.A.ravel(), phi.s])))


def _residual(got: np.ndarray, want: np.ndarray) -> float:
    """Max entrywise |got - want| over arrays of points."""
    return float(np.max(np.abs(got - want)))


def _chart_checks(f, finv, pts: np.ndarray, identities) -> List[CheckResult]:
    """One COMPOSED_TOL check per (name, element, target) in identities: the
    largest deviation of f^-1 . element . f from target on the points."""
    f_pts = f(pts)
    return [_check(name, _residual(finv(apply(elem, f_pts)), target), COMPOSED_TOL)
            for name, elem, target in identities]


# ---------------------------------------------------------------------------
# Example 1: imaginary-type torus quotient
# ---------------------------------------------------------------------------

def _ex1_f(q: np.ndarray) -> np.ndarray:
    """Conjugating diffeomorphism (u, x, y, v) -> (t, x^1, x^2, v)."""
    u, x, y, v = np.moveaxis(q, -1, 0)
    c, s = np.cos(u), np.sin(u)
    return np.stack([u, x * c - y * s, x * s + y * c, -v - x * y], axis=-1)


def _ex1_finv(q: np.ndarray) -> np.ndarray:
    t, x1, x2, v = np.moveaxis(q, -1, 0)
    xr = x1 * np.cos(t) + x2 * np.sin(t)
    yr = -x1 * np.sin(t) + x2 * np.cos(t)
    return np.stack([t, xr, yr, -v - xr * yr], axis=-1)


def verify_imaginary_torus_example(seed: int = 42) -> ExampleReport:
    """Isometric quotient of the 4-dimensional imaginary-type model space.

    The group is generated by the t-shift gamma by pi/2, the v-shift eta,
    and the Heisenberg isometry zeta with beta = (cos t, sin t).  A
    change of coordinates f makes the action affine with constant linear
    part; the conjugated generators stabilize a cocompact discrete
    subgroup of index 4 (a Heisenberg-type integer lattice).  The
    identities are checked at 50 points drawn with `seed`.
    """
    prof = SymmetricProfile(-np.eye(2))
    gamma = Homothety(prof, c=np.pi / 2)
    eta = Homothety(prof, b=1.0)
    zeta = Homothety(prof, beta=BetaSolution(prof, [1.0, 0.0], [0.0, 1.0]))
    zeta_hat = compose(inverse(gamma), compose(zeta, gamma))

    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(50, 4)) * 2.0
    q0, q1, q2, q3 = pts.T

    # round trips of the conjugating diffeomorphism
    checks = [_check("f_round_trip", _residual(_ex1_finv(_ex1_f(pts)), pts), ROUNDOFF_TOL)]
    checks += _chart_checks(_ex1_f, _ex1_finv, pts, [
        ("conj_gamma", gamma, np.stack([q0 + np.pi / 2, q2, -q1, q3 + 2 * q1 * q2], axis=-1)),
        ("conj_eta", eta, pts + [0.0, 0.0, 0.0, -1.0]),
        ("conj_zeta", zeta, pts + [0.0, 1.0, 0.0, 0.0]),
        ("conj_zeta_hat", zeta_hat, np.stack([q0, q1, q2 + 1.0, q3 - 2 * q1], axis=-1)),
        ("conj_gamma4", power(gamma, 4), pts + [2 * np.pi, 0.0, 0.0, 0.0]),
    ])

    # all generators are genuine isometries
    iso_res = max(homothety_factor_check(g, rng=rng)
                  for g in (gamma, eta, zeta, zeta_hat))
    checks.append(_check("generators_are_isometries", iso_res, COMPOSED_TOL))

    # group arithmetic agrees with pointwise composition for zeta and its
    # gamma-conjugate (the omega-cocycle consistency)
    few = pts[:20]
    checks.append(_check("group_vs_pointwise",
                         _residual(apply(compose(zeta, zeta_hat), few),
                                   apply(zeta, apply(zeta_hat, few))), ROUNDOFF_TOL))

    # commutator of the conjugated zeta generators is a central v-shift
    # by 2, i.e. the square of the conjugated eta-inverse: the conjugated
    # group is an integer Heisenberg-type lattice, cocompact and discrete
    comm = compose(zeta, compose(zeta_hat, compose(inverse(zeta), inverse(zeta_hat))))
    checks += _chart_checks(_ex1_f, _ex1_finv, pts, [
        ("commutator_is_central_v_shift", comm, pts + [0.0, 0.0, 0.0, 2.0])])

    # index-4 structure: the conjugated gamma-powers rotate the (x, y)
    # block for k = 1, 2, 3 and become a pure translation at k = 4; the
    # linear part is read off the images of the unit vectors and the origin
    probe = np.vstack([np.eye(4), np.zeros(4)])
    ok = True
    for k in (1, 2, 3):
        img = _ex1_finv(apply(power(gamma, k), _ex1_f(probe)))
        lin = (img[:4] - img[4]).T
        ok = ok and float(np.max(np.abs(lin[1:3, 1:3] - np.eye(2)))) > 0.5
    checks.append(CheckResult("gamma_powers_rotate_until_four", ok, 0.0))

    commentary = ("The conjugated lattice generators are 2 pi e1, e2, e3 with a "
                  "v-shear, and -e4; the group they generate is a discrete "
                  "cocompact integer-Heisenberg-type lattice of index 4.")
    return ExampleReport("imaginary-torus", checks, commentary)


# ---------------------------------------------------------------------------
# Example 2: real-type lattice and the homothety failure
# ---------------------------------------------------------------------------

def verify_real_lattice_example(r: int = 3, seed: int = 42) -> ExampleReport:
    """Real-type lattice built from the roots of x^2 - r x + 1, and the
    non-discreteness of its homothety variant.  `seed` draws nothing:
    every check reads fixed elements, with no random samples."""
    if r < 3:
        raise PreconditionError("r must be an integer >= 3 for distinct real roots")
    # conjugate_b_is_rho_power divides by rho^(1 - 2k) for k <= LATTICE_K_MAX,
    # which must stay a normal float; rho < r, so bounding r bounds rho.
    r_max = np.finfo(float).smallest_normal ** (-1.0 / (2 * LATTICE_K_MAX - 1))
    if r > r_max:
        raise InputError(f"r = {r} is too large: rho^(1 - 2 k_max) underflows "
                         f"for r > {math.floor(r_max)}")
    rho = (r + np.sqrt(r * r - 4.0)) / 2.0
    lr = np.log(rho)
    prof = SymmetricProfile(lr ** 2 * np.eye(2))
    beta = BetaSolution(prof, [1.0, 1.0], [lr, -lr])  # (rho^t, rho^{-t})
    betahat = BetaSolution(prof, *beta_eval(beta, 1.0))  # beta(t + 1)

    checks = [_check("vieta_product", abs(rho * (1.0 / rho) - 1.0), EXACT_TOL)]

    # beta grows like rho^t, so the recurrence and shift checks are judged
    # relative to the size of what they compare
    t = np.array([0.0, 0.3, 1.7])
    terms = np.array([beta_eval(betahat, t + 1.0)[0], r * beta_eval(betahat, t)[0],
                      beta_eval(beta, t)[0]])
    checks.append(_check("recurrence", float(np.max(np.abs(terms[0] - terms[1] + terms[2]))),
                         ROUNDOFF_TOL, float(np.max(np.abs(terms)))))

    checks.append(_check("lagrangian_omega",
                         abs(symplectic_form(beta, betahat)), ROUNDOFF_TOL))

    eta = Homothety(prof, beta=beta)
    etahat = Homothety(prof, beta=betahat)
    gamma = Homothety(prof, c=1.0)

    # shift stability of the lattice: conjugation by the t-shift maps
    # eta -> etahat and etahat -> eta^{-1} etahat^r
    tau_eta = compose(inverse(gamma), compose(eta, gamma))
    checks.append(_check("shift_eta", element_distance(tau_eta, etahat), COMPOSED_TOL))
    tau_etahat = compose(inverse(gamma), compose(etahat, gamma))
    target = compose(inverse(eta), power(etahat, r))
    checks.append(_check("shift_etahat", element_distance(tau_etahat, target), WORD_TOL,
                         max(_param_size(tau_etahat), _param_size(target))))

    # homothety variant: gammahat scales by rho per unit time; conjugating
    # the v-translation by rho gives central parameter rho^{1-2k}
    gammahat = Homothety(prof, c=1.0, s=lr)
    alpha = Homothety(prof, b=rho)  # the v-translation by rho
    orbit = orbit_obstruction_sequence(gammahat, alpha, K=LATTICE_K_MAX)
    res_b = max(abs(phi.b - rho ** (1 - 2 * k)) / rho ** (1 - 2 * k)
                for k, phi in enumerate(orbit.conjugates, 1))
    checks.append(_check("conjugate_b_is_rho_power", res_b, COMPOSED_TOL))
    checks.append(_check("non_discreteness", min(element_distance(phi, identity(prof))
                                                 for phi in orbit.conjugates), APPROACH_TOL))
    checks.append(_check("orbit_converges_to_zero",
                         float(np.linalg.norm(orbit.points[-1].as_array())), ORBIT_TOL))

    commentary = (f"rho = {rho:.6f}; the isometric lattice is shift-stable, "
                  "while the homothety variant conjugates the v-translation "
                  "arbitrarily close to the identity.")
    return ExampleReport("real-lattice", checks, commentary)


# ---------------------------------------------------------------------------
# Example 3: failed 3-dimensional real-type attempt
# ---------------------------------------------------------------------------

def _ex3_f(q: np.ndarray) -> np.ndarray:
    t, y, z = np.moveaxis(q, -1, 0)
    return np.stack([t, np.exp(t) * y, np.exp(2 * t) * (z - y * y / 2.0)], axis=-1)


def _ex3_finv(q: np.ndarray) -> np.ndarray:
    t, x, v = np.moveaxis(q, -1, 0)
    return np.stack([t, np.exp(-t) * x, np.exp(-2 * t) * (v + x * x / 2.0)], axis=-1)


def verify_failed_3d_example(seed: int = 42) -> ExampleReport:
    """Failed homothetic quotient attempt on the 3-dimensional real-type
    space: the conjugated Heisenberg element with decaying beta acts
    trivially on the direction left to compactify and its conjugates by
    the homothety collapse to the identity.  The chart checks sample 50
    points."""
    prof = SymmetricProfile(np.eye(1))
    gamma = Homothety(prof, c=1.0, s=1.0)
    eta = Homothety(prof, beta=BetaSolution(prof, [1.0], [1.0]))    # e^t
    zeta = Homothety(prof, beta=BetaSolution(prof, [1.0], [-1.0]))  # e^{-t}

    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(50, 3)) * 1.5

    f_pts = _ex3_f(pts)
    checks = [_check("f_round_trip", _residual(_ex3_finv(f_pts), pts), COMPOSED_TOL)]
    checks += _chart_checks(_ex3_f, _ex3_finv, pts, [
        ("conj_gamma", gamma, pts + [1.0, 0.0, 0.0]),
        ("conj_eta", eta, pts + [0.0, 1.0, 0.0])])

    # the displayed zeta uses the sign-flipped v-part; as a plain map it
    # conjugates to a pure shear in the middle coordinate
    t, x, v = np.moveaxis(f_pts, -1, 0)
    b = np.exp(-t)
    got = _ex3_finv(np.stack([t, x + b, v - b * (x + b / 2.0)], axis=-1))
    want = pts.copy()
    want[:, 1] += np.exp(-2 * pts[:, 0])
    # the shear grows like e^{-2t}, so the check is judged relative to the
    # size of what it compares
    checks.append(_check("conj_zeta_displayed", _residual(got, want), GROWTH_TOL,
                         max(float(np.max(np.abs(got))), float(np.max(np.abs(want))))))

    for name, g in (("eta_is_isometry", eta), ("zeta_is_isometry", zeta),
                    ("gamma_is_homothety", gamma)):
        checks.append(_check(name, homothety_factor_check(g, rng=rng), COMPOSED_TOL))

    # decay mode: gamma^{-i} zeta gamma^i (0) collapses like e^{-2i}
    norms = np.linalg.norm(coords(orbit_obstruction_sequence(gamma, zeta, K=20).points),
                           axis=-1)
    fit = np.polyfit(np.arange(1, 21), np.log(norms), 1)
    rate = np.exp(fit[0])
    checks.append(_check("decay_rate_e_minus_2",
                         abs(rate - np.exp(-2.0)) / np.exp(-2.0), RATE_TOL))
    checks.append(_check("decay_terminal", norms[-1], ORBIT_TOL))

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
                left = box[:axis] + ((blo, cut),) + box[axis + 1:]
                right = box[:axis] + ((cut, bhi),) + box[axis + 1:]
                return (_box_minus_holes_nonempty(left, live)
                        or _box_minus_holes_nonempty(right, live))
    # no face cuts the interior, so the hole covers the box on every axis
    return False


def _require_axis_map(phi: Homothety) -> None:
    if phi.eps != 1 or not phi.beta.is_zero():
        raise UnsupportedCaseError("generator must preserve axis boxes "
                                   "(eps = +1, beta = 0)")
    # each |entry| of A is 0 or 1 within PARAM_TOL, and rounded they are
    # one 1 per row and per column
    pattern = np.abs(phi.A)
    ones = np.rint(pattern)
    if not (within(np.max(pattern * np.abs(1 - pattern)), PARAM_TOL)
            and (ones.sum(axis=0) == 1).all() and (ones.sum(axis=1) == 1).all()):
        raise UnsupportedCaseError("generator matrix must be a signed permutation")


def self_adjacency(region: BoxRegion, generators: Sequence[Homothety]) -> set:
    """Exponent tuples (i_1, ..., i_k) with |i_j| <= ADJACENCY_RANGE for
    which the image of the region under g_1^{i_1} ... g_k^{i_k} meets the
    region in a set of positive measure.  The words are one batch, folded
    by one compose per generator after the first; each generator maps each
    coordinate monotonely, so one apply of the lowest and highest corner of
    every box under every word spans the image boxes."""
    if not generators:
        raise PreconditionError("self_adjacency needs at least one generator")
    for g in generators:
        _require_axis_map(g)
    exps = range(-ADJACENCY_RANGE, ADJACENCY_RANGE + 1)
    combos = list(itertools.product(exps, repeat=len(generators)))
    columns = (np.array(combos) + ADJACENCY_RANGE).T  # each word's row in each generator's powers
    words = reduce(compose, (_take(_stack([power(g, e) for e in exps]), col)
                             for g, col in zip(generators, columns)))
    corners = np.array([region.outer, *region.holes]).transpose(0, 2, 1)  # (box, corner, n+2)
    img = apply(_take(words, np.s_[:, None, None]), corners)  # (word, box, corner, n+2)
    lo, hi = img.min(axis=-2).tolist(), img.max(axis=-2).tolist()
    out = set()
    for combo, word_lo, word_hi in zip(combos, lo, hi):
        img_outer, *img_holes = [tuple(zip(*pair)) for pair in zip(word_lo, word_hi)]
        overlap = _box_intersect(img_outer, region.outer)
        if overlap is None:
            continue
        if _box_minus_holes_nonempty(overlap, list(region.holes) + img_holes):
            out.add(combo)
    return out


def example4_regions() -> Tuple[BoxRegion, BoxRegion]:
    """The fundamental region R and the neighbourhood V of its closure for
    the removed-fixed-points quotient on R^3 minus the t-axis."""
    R = BoxRegion(
        outer=((0.0, 1.0), (-2.0, 2.0), (-4.0, 4.0)),
        holes=(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),),
    )
    V = BoxRegion(
        outer=((-1.0, 2.0), (-4.0, 4.0), (-16.0, 16.0)),
        holes=(((-1.0, 2.0), (-0.5, 0.5), (-0.25, 0.25)),),
    )
    return R, V


def example4_generators() -> Tuple[Homothety, Homothety]:
    """gamma = unit t-shift, eta = pure homothety with factor 2, on R^3."""
    prof = SymmetricProfile(-np.eye(1))
    return Homothety(prof, c=1.0), Homothety(prof, s=np.log(2.0))


def rescale_field(p):
    """f(t, x, v) = (|x|^4 + v^2)^{-1/2} at an (..., n+2) array of points,
    defined off the t-axis."""
    a = coords(p)
    x, v = a[..., 1:-1], a[..., -1]
    q = np.sum(x * x, axis=-1) ** 2 + v * v
    if np.min(q, initial=np.inf) <= DIVISOR_FLOOR:
        raise PreconditionError("f is undefined on the axis {x = 0, v = 0}")
    return 1.0 / np.sqrt(q)


def verify_inessential_rescale_U() -> ExampleReport:
    """On U = R^3 minus the t-axis, f = (x^4 + v^2)^{-1/2} makes
    every element of E(1) x C_O(1)(S) x R an isometry of f g_S: 30
    sampled elements, drawn with seed 42, form a (30, 1) batch, and one
    pullback judges each of them at each of 30 sample points.  The draws
    are valid by construction, so the batch is built unchecked."""
    prof = SymmetricProfile(-np.eye(1))
    rng = np.random.default_rng(42)
    draws, rows = [], []
    for _ in range(30):
        c, eps = rng.normal(), rng.choice([-1.0, 1.0])
        draws.append((c, eps, random_centralising_orthogonal(prof, rng), rng.normal()))
        rows.append([rng.normal(), rng.normal() + 0.5, rng.normal() + 0.5])
    pts = np.array(rows)
    c, eps, A, s = map(np.array, zip(*draws))
    zero = np.zeros((30, 1))
    batch = _take(_element(prof, np.zeros(30), zero, zero, c, eps, A, s), np.s_[:, None])
    fg = lambda a: rescale_field(a)[..., None, None] * metric_at(prof, a)
    worst = conformal_defect(SmoothMap(1, partial(apply, batch), partial(differential, batch)),
                             fg, fg, lambda a: 1.0, pts)
    checks = [_check("rescale_equivariance", worst, COMPOSED_TOL)]

    # the t-translation leaves f untouched outright
    gamma = Homothety(prof, c=1.0)
    p = np.array([0.3, 1.0, 1.2])
    checks.append(_check("t_translation_invariance",
                         abs(rescale_field(apply(gamma, p)) - rescale_field(p)),
                         EXACT_TOL))
    commentary = ("This makes the centraliser inessential on U; it is not a "
                  "proof that the quotient's conformal structure is "
                  "inessential, since transformations of the quotient need "
                  "not lift to the verified class.")
    return ExampleReport("inessential-rescale-U", checks, commentary)


def verify_removed_fixed_points_example() -> ExampleReport:
    """Full report for the removed-fixed-points quotient on R^3 minus the
    t-axis: the fundamental region meets no nontrivial translate, the
    neighbourhood V is finitely self adjacent with exponent window
    {-2..2}^2, and the inessential rescale identity holds on U."""
    R, V = example4_regions()
    gamma, eta = example4_generators()
    checks = []
    adj_R = self_adjacency(R, [gamma, eta])
    checks.append(CheckResult("fundamental_region_disjoint",
                              adj_R == {(0, 0)}, 0.0))
    adj_V = self_adjacency(V, [gamma, eta])
    expected = {(i, j) for i in range(-2, 3) for j in range(-2, 3)}
    checks.append(CheckResult("V_self_adjacency_window", adj_V == expected, 0.0))
    sym = all((-i, -j) in adj_V for (i, j) in adj_V)
    checks.append(CheckResult("adjacency_symmetric", sym, 0.0))
    sub = verify_inessential_rescale_U()
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
