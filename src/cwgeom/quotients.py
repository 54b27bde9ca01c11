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
relative to the size of what it compares, and `_chart_checks` compares
rows of f^-1 . g . f with their targets.  Each example acts on a point
set once, with one (B, 1) batch; the orbits are read off the (K, n+2)
sequence of `orbit_obstruction_sequence`, and example 4 judges both of
its regions, (1 + h, 2, n+2) arrays of boxes, on one batch of words.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import List, Sequence, Tuple

import numpy as np

from .core import (COMPOSED_TOL, DIVISOR_FLOOR, EXACT_TOL, GROWTH_TOL, MEASURE_TOL,
                   ORBIT_TOL, PARAM_TOL, ROUNDOFF_TOL, WORD_TOL, BetaSolution,
                   SymmetricProfile, beta_eval, coords, symplectic_form, within)
from .dynamics import orbit_obstruction_sequence
from .errors import InputError, PreconditionError, UnsupportedCaseError
from .flat import SmoothMap, conformal_defect
from .group import (Homothety, _element, _stack, _take, _with_inverses, apply, compose,
                    differential, element_distance, homothety_factor_check, identity, inverse,
                    power)
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
    return float(max(abs(phi.b), abs(phi.c), abs(phi.s), np.abs(phi.beta.beta0).max(),
                     np.abs(phi.beta.beta1).max(), np.abs(phi.A).max()))


def _residual(got: np.ndarray, want: np.ndarray) -> float:
    """Max entrywise |got - want| over arrays of points."""
    return float(np.max(np.abs(got - want)))


def _chart_checks(names, got: np.ndarray, targets) -> List[CheckResult]:
    """One COMPOSED_TOL check per name, of row i of got against targets[i]."""
    residuals = np.max(np.abs(got - np.stack(targets)), axis=(1, 2))
    return [_check(name, res, COMPOSED_TOL) for name, res in zip(names, residuals)]


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
    powers = [gamma]  # gamma^1..gamma^4, one compose a step
    for _ in range(3):
        powers.append(compose(powers[-1], gamma))
    zeta_zeta_hat = compose(zeta, zeta_hat)
    # the commutator zeta zeta_hat zeta^-1 zeta_hat^-1 = (zeta zeta_hat) (zeta_hat zeta)^-1
    comm = compose(zeta_zeta_hat, inverse(compose(zeta_hat, zeta)))

    pts = np.random.default_rng(seed).normal(size=(50, 4)) * 2.0
    q0, q1, q2, q3 = pts.T
    # one batch acts on f of the samples, f of the probe (the unit vectors
    # and the origin, whose images give a linear part) and 20 samples
    f_all = _ex1_f(np.vstack([pts, np.eye(4), np.zeros(4)]))
    batch = _take(_stack([gamma, eta, zeta, zeta_hat, powers[3], comm, powers[1], powers[2],
                          zeta_zeta_hat]), np.s_[:, None])
    images = apply(batch, np.vstack([f_all, pts[:20]]))
    back = _ex1_finv(np.concatenate([images[:, :55], f_all[None]]))  # and f^-1 . f

    # round trips of the conjugating diffeomorphism
    checks = [_check("f_round_trip", _residual(back[-1, :50], pts), ROUNDOFF_TOL)]
    checks += _chart_checks(
        ["conj_gamma", "conj_eta", "conj_zeta", "conj_zeta_hat", "conj_gamma4"], back[:5, :50],
        [np.stack([q0 + np.pi / 2, q2, -q1, q3 + 2 * q1 * q2], axis=-1),
         pts + [0.0, 0.0, 0.0, -1.0],
         pts + [0.0, 1.0, 0.0, 0.0],
         np.stack([q0, q1, q2 + 1.0, q3 - 2 * q1], axis=-1),
         pts + [2 * np.pi, 0.0, 0.0, 0.0]])

    # all generators are genuine isometries
    checks.append(_check("generators_are_isometries",
                         np.max(homothety_factor_check(_take(batch, np.s_[:4]), pts)),
                         COMPOSED_TOL))

    # group arithmetic agrees with pointwise composition for zeta and its
    # gamma-conjugate (the omega-cocycle consistency)
    checks.append(_check("group_vs_pointwise",
                         _residual(images[8, 55:], apply(zeta, images[3, 55:])), ROUNDOFF_TOL))

    # commutator of the conjugated zeta generators is a central v-shift
    # by 2, i.e. the square of the conjugated eta-inverse: the conjugated
    # group is an integer Heisenberg-type lattice, cocompact and discrete
    checks += _chart_checks(["commutator_is_central_v_shift"], back[5:6, :50],
                            [pts + [0.0, 0.0, 0.0, 2.0]])

    # index-4 structure: the conjugated gamma-powers rotate the (x, y)
    # block for k = 1, 2, 3 and become a pure translation at k = 4
    img = back[[0, 6, 7], 50:]
    lin = (img[:, :4] - img[:, 4:]).swapaxes(-1, -2)
    ok = bool(np.all(np.max(np.abs(lin[:, 1:3, 1:3] - np.eye(2)), axis=(1, 2)) > 0.5))
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
    if not isinstance(r, (int, np.integer)) or r < 3:
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
    # betahat(t + 1), r betahat(t) and beta(t), one solution per row
    rows = BetaSolution(prof, *(np.array([hat, hat, plain])[:, None] for hat, plain in
                                ((betahat.beta0, beta.beta0), (betahat.beta1, beta.beta1))))
    terms = np.array([[1], [r], [1]])[..., None] * beta_eval(rows, t + [[1.0], [0.0], [0.0]])[0]
    checks.append(_check("recurrence", float(np.max(np.abs(terms[0] - terms[1] + terms[2]))),
                         ROUNDOFF_TOL, float(np.max(np.abs(terms)))))

    checks.append(_check("lagrangian_omega", abs(symplectic_form(beta, betahat)), ROUNDOFF_TOL,
                         0.5 * max(abs(beta.beta0 @ betahat.beta1),
                                   abs(beta.beta1 @ betahat.beta0))))

    eta = Homothety(prof, beta=beta)
    etahat = Homothety(prof, beta=betahat)
    gamma = Homothety(prof, c=1.0)

    # shift stability of the lattice: conjugation by the t-shift maps
    # eta -> etahat and etahat -> eta^{-1} etahat^r
    tau = compose(inverse(gamma), compose(_stack([eta, etahat]), gamma))
    target = compose(inverse(eta), power(etahat, r))
    dist = element_distance(tau, _stack([etahat, target]))
    checks.append(_check("shift_eta", dist[0], COMPOSED_TOL))
    checks.append(_check("shift_etahat", dist[1], WORD_TOL,
                         max(_param_size(_take(tau, 1)), _param_size(target))))

    # homothety variant: gammahat scales by rho per unit time; conjugating
    # the v-translation by rho gives the v-translation by b = rho^{1-2k},
    # which maps the origin to (0, 0, 0, b) and lies |b| from the identity
    gammahat = Homothety(prof, c=1.0, s=lr)
    alpha = Homothety(prof, b=rho)  # the v-translation by rho
    orbit = orbit_obstruction_sequence(gammahat, alpha, K=LATTICE_K_MAX)
    b = orbit.sequence[:, -1]
    want_b = rho ** (1 - 2 * np.arange(1, LATTICE_K_MAX + 1))
    checks.append(_check("conjugate_b_is_rho_power",
                         np.max(np.abs(b - want_b) / want_b), COMPOSED_TOL))
    checks.append(_check("non_discreteness", np.min(np.abs(b)), ORBIT_TOL))
    checks.append(_check("orbit_converges_to_zero",
                         float(np.linalg.norm(orbit.sequence[-1])), ORBIT_TOL))

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

    pts = np.random.default_rng(seed).normal(size=(50, 3)) * 1.5

    f_pts = _ex3_f(pts)
    checks = [_check("f_round_trip", _residual(_ex3_finv(f_pts), pts), COMPOSED_TOL)]
    batch = _take(_stack([eta, zeta, gamma]), np.s_[:, None])
    checks += _chart_checks(["conj_gamma", "conj_eta"],
                            _ex3_finv(apply(_take(batch, [2, 0]), f_pts)),
                            [pts + [1.0, 0.0, 0.0], pts + [0.0, 1.0, 0.0]])

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

    checks += [_check(name, res, COMPOSED_TOL) for name, res in zip(
        ("eta_is_isometry", "zeta_is_isometry", "gamma_is_homothety"),
        homothety_factor_check(batch, pts))]

    # decay mode: gamma^{-i} zeta gamma^i (0) collapses like e^{-2i}
    orbit = orbit_obstruction_sequence(gamma, zeta, K=20)
    checks.append(_check("decay_rate_e_minus_2",
                         abs(orbit.rate - np.exp(-2.0)) / np.exp(-2.0), COMPOSED_TOL))
    checks.append(_check("decay_terminal", np.linalg.norm(orbit.sequence[-1]), ORBIT_TOL))

    commentary = ("Only the e^{+t} solution survives conjugation by the "
                  "homothety; the e^{-t} direction decays at rate e^{-2} "
                  "per step, so no cocompact properly discontinuous group "
                  "arises this way.")
    return ExampleReport("failed-3d", checks, commentary)


# ---------------------------------------------------------------------------
# Example 4: removed fixed points, finite self-adjacency, rescale on U
# ---------------------------------------------------------------------------

def _grid(a: np.ndarray) -> np.ndarray:
    """The cells of the grid a (..., C, m) spans, one axis of C per
    coordinate: cell (i_0, ..., i_m-1) holds a[..., i_0, 0] & ... & a[..., i_m-1, m-1]."""
    *lead, C, m = a.shape
    return reduce(np.logical_and, (a[..., d].reshape(*lead, *(1,) * d, C, *(1,) * (m - d - 1))
                                   for d in range(m)))


def _positive_measure(lo, hi, holes) -> np.ndarray:
    """Whether the box [lo, hi] minus the union of the holes has positive
    measure, over leading word axes: lo and hi (..., m), holes (..., K, 2, m)
    as the lowest and highest corner of each.  The faces of the box and of
    the holes, clipped to the box, cut it into (2K+1)^m cells per word, each
    inside some hole or outside all of them; a cell or overlap no wider than
    MEASURE_TOL on some axis has zero measure."""
    hi = np.maximum(lo, hi)  # an empty overlap is a box of zero width
    faces = np.clip(holes.reshape(*holes.shape[:-3], -1, holes.shape[-1]),
                    lo[..., None, :], hi[..., None, :])
    cuts = np.sort(np.concatenate([lo[..., None, :], hi[..., None, :], faces], axis=-2), axis=-2)
    mid = (cuts[..., 1:, :] + cuts[..., :-1, :]) / 2  # (..., 2K+1, m)
    inside = ((holes[..., :1, :] < mid[..., None, :, :])
              & (mid[..., None, :, :] < holes[..., 1:, :]))  # (..., K, 2K+1, m)
    m = lo.shape[-1]
    covered = _grid(inside).any(axis=-m - 1)
    return (_grid(np.diff(cuts, axis=-2) > MEASURE_TOL) & ~covered).any(axis=tuple(range(-m, 0)))


def _require_axis_map(phi: Homothety) -> None:
    if np.any(phi.eps != 1) or not phi.beta.is_zero():
        raise UnsupportedCaseError("generator must preserve axis boxes "
                                   "(eps = +1, beta = 0)")
    # each |entry| of A is 0 or 1 within PARAM_TOL, and rounded they are
    # one 1 per row and per column
    pattern = np.abs(phi.A)
    ones = np.rint(pattern)
    if not (within(np.max(pattern * np.abs(1 - pattern)), PARAM_TOL)
            and (ones.sum(axis=-2) == 1).all() and (ones.sum(axis=-1) == 1).all()):
        raise UnsupportedCaseError("generator matrix must be a signed permutation")


def self_adjacency(regions: Sequence[np.ndarray], generators: Sequence[Homothety]) -> List[set]:
    """For each region, the exponent tuples (i_1, ..., i_k) with |i_j| <=
    ADJACENCY_RANGE for which the image of the region under g_1^{i_1} ...
    g_k^{i_k} meets the region in a set of positive measure.  A region is
    a (1 + h, 2, n+2) array of boxes by their lowest and highest corners:
    the outer box, nondegenerate on every axis, then h holes, as many in
    every region; one batch of words judges them all.  The powers come
    from one walk of ADJACENCY_RANGE - 1 composes from the letters, every
    g and g^-1 at once, and the words from one compose per generator
    after the first.  Each generator maps each coordinate monotonely, so
    the images of the corners span the image boxes, and one
    _positive_measure call judges every word on every region:
    (4h+1)^(n+2) cells per word, 125 for example 4 (h = 1, n = 1), whose
    regions are the largest the library, the CLI or perfbench/ judges."""
    if not generators:
        raise PreconditionError("self_adjacency needs at least one generator")
    if not len(regions):
        raise PreconditionError("self_adjacency needs at least one region")
    if len({np.shape(reg) for reg in regions}) != 1:
        raise PreconditionError("regions judged together need equally many holes")
    corners = np.array(regions, dtype=float)  # (region, box, [lo, hi], n+2), box 0 the outer one
    if not (corners[:, 0, 0] < corners[:, 0, 1]).all():
        raise PreconditionError("an outer box must be nondegenerate on every axis")
    letters = _with_inverses(generators)
    _require_axis_map(letters)
    steps = [_stack([identity(letters.profile)] * len(letters.c)), letters]
    for _ in range(ADJACENCY_RANGE - 1):
        steps.append(compose(steps[-1], letters))
    walk = _stack(steps)  # row (e, 2j) is g_j^e and row (e, 2j + 1) is g_j^-e
    exps = range(-ADJACENCY_RANGE, ADJACENCY_RANGE + 1)
    combos = list(itertools.product(exps, repeat=len(generators)))
    words = reduce(compose, (_take(walk, (np.abs(col), 2 * j + (col < 0)))
                             for j, col in enumerate(np.array(combos).T)))
    lo, hi = np.moveaxis(apply(_take(words, np.s_[:, None, None, None]), corners), -2, 0)
    # (word, region, box, [lo, hi], n+2)
    img = np.stack([np.minimum(lo, hi), np.maximum(lo, hi)], axis=-2)
    holes = np.concatenate([np.broadcast_to(corners[:, 1:], img[:, :, 1:].shape),
                            img[:, :, 1:]], axis=2)
    meets = _positive_measure(np.maximum(img[:, :, 0, 0], corners[:, 0, 0]),
                              np.minimum(img[:, :, 0, 1], corners[:, 0, 1]), holes)
    return [{combo for combo, hit in zip(combos, col) if hit} for col in meets.T]


def example4_regions() -> Tuple[np.ndarray, np.ndarray]:
    """The fundamental region R and the neighbourhood V of its closure for
    the removed-fixed-points quotient on R^3 minus the t-axis, as
    self_adjacency reads them: the outer box, then the hole about the
    t-axis, each as its lowest and highest (t, x, v) corner."""
    R = np.array([[[0.0, -2.0, -4.0], [1.0, 2.0, 4.0]],
                  [[0.0, -1.0, -1.0], [1.0, 1.0, 1.0]]])
    V = np.array([[[-1.0, -4.0, -16.0], [2.0, 4.0, 16.0]],
                  [[-1.0, -0.5, -0.25], [2.0, 0.5, 0.25]]])
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


def verify_removed_fixed_points_example() -> ExampleReport:
    """Full report for the removed-fixed-points quotient on R^3 minus the
    t-axis: the fundamental region meets no nontrivial translate, the
    neighbourhood V is finitely self adjacent with exponent window
    {-2..2}^2, and on U, f = (x^4 + v^2)^{-1/2} makes every element of
    E(1) x C_O(1)(S) x R an isometry of f g_S: one pullback judges 30
    sampled elements, drawn with seed 42 as a (30, 1) batch, at each of 30
    sample points.  C_O(1)(S) is {+1, -1}, drawn as the sign of a normal
    sample, so the batch is valid by construction and built unchecked."""
    R, V = example4_regions()
    gamma, eta = example4_generators()
    adj_R, adj_V = self_adjacency((R, V), (gamma, eta))
    checks = [CheckResult("fundamental_region_disjoint", adj_R == {(0, 0)}, 0.0)]
    expected = {(i, j) for i in range(-2, 3) for j in range(-2, 3)}
    checks.append(CheckResult("V_self_adjacency_window", adj_V == expected, 0.0))
    sym = all((-i, -j) in adj_V for (i, j) in adj_V)
    checks.append(CheckResult("adjacency_symmetric", sym, 0.0))

    prof, rng = gamma.profile, np.random.default_rng(42)
    eps = rng.choice([-1.0, 1.0], size=30)
    c, sign, s = rng.normal(size=(3, 30))
    pts = rng.normal(size=(30, 3)) + [0.0, 0.5, 0.5]
    A = np.sign(sign)[:, None, None]
    zero = np.zeros((30, 1))
    batch = _take(_element(prof, np.zeros(30), zero, zero, c, eps, A, s), np.s_[:, None])
    fg = lambda a: rescale_field(a)[..., None, None] * metric_at(prof, a)
    worst = np.max(conformal_defect(SmoothMap(1, partial(apply, batch),
                                              partial(differential, batch)),
                                    fg, fg, lambda a: 1.0, pts))
    checks.append(_check("rescale_equivariance", worst, COMPOSED_TOL))

    # the t-translation leaves f untouched outright
    p = np.array([0.3, 1.0, 1.2])
    checks.append(_check("t_translation_invariance",
                         abs(rescale_field(apply(gamma, p)) - rescale_field(p)),
                         EXACT_TOL))
    commentary = ("This makes the centraliser inessential on U; it is not a "
                  "proof that the quotient's conformal structure is "
                  "inessential, since transformations of the quotient need "
                  "not lift to the verified class.")
    return ExampleReport("removed-fixed-points", checks, commentary)


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
