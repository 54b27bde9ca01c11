"""Fixed points, essentiality, conjugation normal forms and the
obstructions to properly discontinuous cocompact actions.

Fixed points take one path: at the fixed time t* of t -> eps t + c, solve
(e^s A - I) x = -beta(t*) on the x-block, then the affine v-equation.  So
a strict homothety fixes a point iff eps = -1 or c = 0, which is also
when it is essential; otherwise f = -s t / c has f(phi(p)) = f(p) - s,
so phi is an isometry of e^{2f} g_S.  The conjugation equation
e^s A beta(t + c) - beta(t) = betahat(t) is one 2n x 2n solve in the
eigenbasis of S, on SymmetricProfile.flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DIVISOR_FLOOR,
    FIXED_POINT_TOL,
    ORBIT_TOL,
    PARAM_TOL,
    PD_SLACK,
    RESONANCE_TOL,
    BetaSolution,
    Point,
    SymmetricProfile,
    beta_eval,
    classify,
    coords,
    require_finite,
    require_phase,
    within,
)
from .errors import (
    IncompatibleProfileError,
    OverflowingValueError,
    PreconditionError,
    ResonanceError,
    UnsupportedCaseError,
)
from .group import (
    Homothety,
    _dot,
    _element,
    _stack,
    _take,
    apply,
    compose,
    conjugate,
    identity,
    inverse,
)

# the most entries, rows * (n+2)^2, that the PD sweep composes in one call
PD_BLOCK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class FixedPointReport:
    exists: bool
    point: Optional[np.ndarray]  # (n+2,)
    reason: str  # strict_eps_minus1 | strict_c_zero | isometry_euclidean_fp
    #             | none_translation
    residual: float = 0.0


def _fixed_time(phi: Homothety):
    """The time fixed by t -> eps t + c, per row of a batch: c/2 for
    eps = -1, 0 when c = 0, and NaN when the t-part is a translation."""
    return np.where(phi.eps == -1, phi.c / 2.0,
                    np.where(within(np.abs(phi.c), PARAM_TOL), 0.0, np.nan))


def fixed_point(phi: Homothety) -> FixedPointReport:
    """Fixed-point classification of a homothety.

    A fixed point lies at the fixed time t* of the t-part, on the x-block
    solution of (e^s A - I) x = -beta(t*) and the solution v* of
    v = eps(e^{2s} v + b - <beta'(t*), e^s A x* + beta(t*)/2>).  Strict case:
    it exists iff eps = -1 or c = 0.  Isometry case: the x-block system
    (A - I) x = -beta(t*) must be consistent, and for eps = +1 the v-shift
    must vanish.  Each gate judges by FIXED_POINT_TOL relative to the terms
    its residual subtracts: beta(t*) on the x-block, b, <beta', e^s A x*>
    and <beta', beta>/2 on the v-shift, all of them on the fixed point.
    """
    none = FixedPointReport(False, None, "none_translation")
    t_star = float(_fixed_time(phi))
    if np.isnan(t_star):
        return none
    strict = phi.is_strict
    val, der = beta_eval(phi.beta, t_star)
    x_size = float(np.max(np.abs(val)))
    # an isometry's s, within PARAM_TOL of 0, is read as 0
    M = (np.exp(phi.s) if strict else 1.0) * phi.A - np.eye(phi.profile.n)
    if strict:
        x_star = np.linalg.solve(M, -val)
    else:
        x_star = np.linalg.lstsq(M, -val, rcond=None)[0]
        if not within(float(np.max(np.abs(M @ x_star + val))), FIXED_POINT_TOL, x_size):
            return none
    esAx = np.exp(phi.s) * (phi.A @ x_star)
    d = phi.eps * (phi.b - float(der @ (esAx + 0.5 * val)))
    v_size = max(abs(phi.b), abs(float(der @ esAx)), 0.5 * abs(float(der @ val)))
    slope = phi.eps * np.exp(2 * phi.s)
    shift = within(abs(1.0 - slope), PARAM_TOL)  # v -> v + d, fixed only where d = 0
    if shift and not within(abs(d), FIXED_POINT_TOL, v_size):
        return none
    v_star = 0.0 if shift else d / (1.0 - slope)
    p = require_finite(np.concatenate(([t_star], x_star, [v_star])))
    res = float(np.max(np.abs(apply(phi, p) - p)))
    if not strict and phi.eps == 1 and not within(res, FIXED_POINT_TOL, max(x_size, v_size)):
        return none
    reason = ("isometry_euclidean_fp" if not strict
              else "strict_eps_minus1" if phi.eps == -1 else "strict_c_zero")
    return FixedPointReport(True, p, reason, res)


def essential_fixed_point(phi: Homothety) -> FixedPointReport:
    """The fixed-point report of a strict homothety, which is essential iff
    it fixes a point; an isometry raises PreconditionError."""
    if not phi.is_strict:
        raise PreconditionError("essentiality criterion applies to strict homotheties only")
    return fixed_point(phi)


def is_essential(phi: Homothety) -> bool:
    """A strict homothety is essential iff it fixes a point."""
    return essential_fixed_point(phi).exists


def inessential_rescaling(phi: Homothety) -> Callable:
    """Rescaling function for a fixed-point-free strict homothety.

    Returns f(p) = -s t / c, so f(apply(phi, p)) = f(p) - s for all p and
    phi is an isometry of e^{2f} g_S; f takes an (..., n+2) array of points
    to (...) values.
    """
    if not phi.is_strict:
        raise PreconditionError("rescaling applies to strict homotheties only")
    if not np.isnan(_fixed_time(phi)):
        raise PreconditionError("phi has a fixed point; no equivariant rescaling exists")
    slope = -phi.s / phi.c
    return lambda p: slope * coords(p, phi.profile.n)[..., 0]


def _conjugation_matrix(profile: SymmetricProfile, At: np.ndarray, c: float) -> np.ndarray:
    """The 2n x 2n matrix, in the eigenbasis of S, taking the initial data
    (y(0), y'(0)) of beta to those of e^s A beta(t + c) - beta(t), where
    At = e^s Q^T A Q."""
    ch, sh, d0 = profile.flow(c)
    return np.block([[At * ch, At * sh], [At * d0, At * ch]]) - np.eye(2 * profile.n)


def block_determinant(eigenvalue: float, s: float, c: float) -> float:
    """Determinant of the scalar (d = 1) conjugation block at A = 1, which
    vanishes exactly at the resonance s = +-lambda c for positive eigenvalues."""
    M = _conjugation_matrix(SymmetricProfile([[eigenvalue]]),
                            np.full((1, 1), np.exp(s)), c)
    return float(np.linalg.det(M))


def solve_conjugation_beta(profile: SymmetricProfile, A, s: float, c: float,
                           betahat: BetaSolution) -> BetaSolution:
    """Solve e^s A beta(t + c) - beta(t) = betahat(t) for beta.

    One linear solve for the initial data of beta in the eigenbasis of S.
    For s != 0 it is singular only where (s/c)^2 hits a positive eigenvalue
    r^2 and A fixes a vector of its eigenspace (e^{s +- rc} mu = 1 with
    |mu| = 1 forces mu = 1), both judged by RESONANCE_TOL: a ResonanceError.
    """
    A = profile.require_centraliser(A)
    if within(abs(s), PARAM_TOL):
        raise PreconditionError("conjugation solve requires a strict homothety (s != 0)")
    if not within(abs(c), PARAM_TOL):
        ratio_sq = (s / c) ** 2
        lam_sq = np.array([blk.eigenvalue for blk in profile.spectrum])
        hits = (lam_sq > 0) & within(np.abs(ratio_sq - lam_sq), RESONANCE_TOL, lam_sq)
        for k in np.flatnonzero(hits):
            basis = profile.spectrum[k].basis
            if within(np.abs(np.linalg.eigvals(basis.T @ A @ basis) - 1).min(), RESONANCE_TOL):
                raise ResonanceError(f"(s/c)^2 = {ratio_sq:.6g} hits the eigenvalue "
                                     f"{lam_sq[k]:.6g} of S, on which A fixes a vector")
    Q = profile.eigenvectors
    y0, y1 = betahat.beta0 @ Q, betahat.beta1 @ Q
    # the shift by c reads betahat's columns at phase r c, as beta_eval does
    require_phase(profile, c, y0, y1)
    M = _conjugation_matrix(profile, np.exp(s) * (Q.T @ A @ Q), c)
    try:
        sol = np.linalg.solve(M, np.concatenate([y0, y1]))
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"singular conjugation block: {exc}") from exc
    n = profile.n
    return BetaSolution(profile, Q @ sol[:n], Q @ sol[n:])


@dataclass(frozen=True)
class NormalFormResult:
    conjugator: Homothety
    normal: Homothety
    residual: float


def normal_form(phi: Homothety) -> NormalFormResult:
    """Conjugate a non-resonant strict homothety with eps = +1 into
    E(1) x C_O(n)(S) x R, by an isometry from Hei_n extended by the
    reflection (t, x, v) -> (-t, x, -v) to force c >= 0.

    The beta-part is removed by solving the conjugation linear system,
    the central parameter in closed form: conjugation by the central
    element with parameter b0 adds b0 (1 - e^{2s}) to it.
    """
    prof = phi.profile
    if not phi.is_strict:
        raise PreconditionError("normal form applies to strict homotheties")
    if phi.eps != 1:
        raise UnsupportedCaseError("normal form requires eps = +1")
    # chi has x-part x + beta_chi(t); chi^{-1} phi chi removes beta when
    # beta_chi(t + c) - e^s A beta_chi(t) = beta(t), i.e. the solver
    # equation with shift -c and right-hand side -beta(. - c)
    val, der = beta_eval(phi.beta, -phi.c)
    beta_chi = solve_conjugation_beta(prof, phi.A, phi.s, -phi.c,
                                      BetaSolution(prof, -val, -der))
    chi = Homothety(prof, beta=beta_chi)
    g = inverse(chi)
    current = conjugate(g, phi)
    z = Homothety(prof, b=-current.b / (1.0 - np.exp(2 * phi.s)))
    g = compose(z, g)
    current = conjugate(z, current)
    if current.c < 0:
        refl = Homothety(prof, eps=-1)
        g = compose(refl, g)
        current = conjugate(refl, current)
    residual = max(abs(current.b),
                   float(np.max(np.abs(current.beta.beta0))),
                   float(np.max(np.abs(current.beta.beta1))))
    zero = np.zeros(prof.n)
    clean = _element(prof, 0.0, zero, zero, current.c, current.eps, current.A, current.s)
    return NormalFormResult(g, clean, residual)


@dataclass(frozen=True)
class OrbitReport:
    # Points, not an array: perfbench/reports.py:53-54 reads rep.points[-1].t/.x/.v
    points: List[Point]
    limit: np.ndarray  # (n+2,)
    converged: bool
    rate: Optional[float]
    conjugates: List[Homothety]  # gamma^{-k} phi gamma^k, k = 1..K


def orbit_obstruction_sequence(gamma: Homothety, phi: Homothety, K: int = 60) -> OrbitReport:
    """The sequence y_k = gamma^{-k} phi gamma^k (0) and its convergence
    to (c_phi, 0, 0), the obstruction to proper discontinuity: converged
    when y_K lies within ORBIT_TOL of the limit in every coordinate.

    gamma must lie in E(1) x C_O(n)(S) x R (no Heisenberg part, eps = +1).
    The K conjugates act on the origin as one batch, and the report fits a
    geometric decay rate to the x-block norms.
    """
    if K < 1:
        raise PreconditionError("the orbit needs K >= 1 steps")
    if gamma.eps != 1 or not within(abs(gamma.b), PARAM_TOL) or not gamma.beta.is_zero():
        raise PreconditionError("gamma must lie in E(1) x C_O(n)(S) x R")
    n = phi.profile.n
    ginv = inverse(gamma)
    current, conjugates = phi, []
    for _ in range(K):
        current = compose(ginv, compose(current, gamma))
        conjugates.append(current)
    # row k is conjugate k's image of the origin
    pts = apply(_take(_stack(conjugates), np.s_[:, None]), np.zeros((1, n + 2)))[:, 0]
    limit = np.concatenate(([phi.c], np.zeros(n + 1)))
    converged = bool(within(float(np.max(np.abs(pts[-1] - limit))), ORBIT_TOL))
    x = pts[:, 1:-1]
    norms = np.sqrt(_dot(x, x))  # per row the sum np.linalg.norm makes of one vector
    rate = None
    # estimate the decay rate on the tail only, past any transient; the
    # x-norms oscillate under the rotational part, so compare arithmetic
    # means of two windows rather than fitting the noisy log-norms
    tail = norms[K // 3:]
    if tail.size >= 10:
        half = tail.size // 2
        m1, m2 = float(np.mean(tail[:half])), float(np.mean(tail[half:]))
        if min(m1, m2) > DIVISOR_FLOOR:
            rate = float((m2 / m1) ** (1.0 / half))
    return OrbitReport(list(map(Point.from_array, pts)), limit, converged, rate, conjugates)


@dataclass(frozen=True)
class PDObstruction:
    word: Tuple[int, ...]
    kind: str  # fixed-point | inequality | imaginary-strict
    detail: str


@dataclass(frozen=True)
class PDReport:
    space_type: str
    lambda_max_sq: Optional[float]
    obstructions: List[PDObstruction]
    words_checked: int

    @property
    def clean(self) -> bool:
        return not self.obstructions


def pd_necessary_report(generators: Sequence[Homothety],
                        max_length: int = 3) -> PDReport:
    """Necessary-condition sweep for a properly discontinuous cocompact
    action of the group generated by the given elements.

    Each reduced word up to the given length (letters are generators and
    their inverses, no letter next to its own inverse) is checked: a
    strict element with eps = -1 or c = 0 has a fixed point; on a space
    with positive eigenvalues a strict element must satisfy
    (s/c)^2 <= lambda_max^2; on an imaginary-type space every strict
    element is an obstruction outright.

    Words come by length, then in the lexicographic order of the letters
    g_1, g_1^-1, g_2, g_2^-1, ....  Each word's element is its
    one-letter-shorter prefix's element composed with its last letter, the
    left fold ((id g_1) g_2) g_3 ....  A level, the words of one length, is
    extended in blocks of at most PD_BLOCK_ENTRIES rows * (n+2)^2, with one
    batched compose per block; the checks run on the block's (eps, c, s)
    arrays, and only obstructing rows are formatted.  So the sweep holds
    the blocks of the previous level not yet extended, those of the next
    level (none at the last) and one block's temporaries.  An error is the
    one of the first failing word, within it a lost phase before an
    overflow, as composing word by word would raise.
    """
    if not generators:
        raise PreconditionError("the sweep needs at least one generator")
    prof = generators[0].profile
    if any(g.profile != prof for g in generators):
        raise IncompatibleProfileError("the generators are over different profiles")
    cls = classify(prof)
    # letter j is g_{j//2+1} for even j and its inverse for odd j: j ^ 1 cancels j
    letters = _stack([h for g in generators for h in (g, inverse(g))])
    labels = [(j // 2 + 1) * (-1) ** j for j in range(2 * len(generators))]
    k, rows = len(labels), max(1, PD_BLOCK_ENTRIES // (prof.n + 2) ** 2)
    # a level is a list of (elements, words) blocks, each dropped once it is
    # extended; words are rows of letter indices after a first column -1
    level = [(_stack([identity(prof)]), np.full((1, 1), -1))]
    obstructions, seen = [], 0
    for length in range(1, max_length + 1):
        grown = []
        while level:
            elems, words = level.pop(0)
            for start in range(0, len(words) * k, rows):
                # the (prefix, letter) pairs of this block, without cancelling ones
                p, j = np.divmod(np.arange(start, min(start + rows, len(words) * k)), k)
                keep = j != words[p, -1] ^ 1
                p, j = p[keep], j[keep]
                if not len(p):
                    continue
                try:
                    elem = compose(_take(elems, p), _take(letters, j))
                except (PreconditionError, OverflowingValueError):
                    # the first failing word raises, as a word-by-word sweep would
                    for one_p, one_j in zip(p, j):
                        compose(_take(elems, one_p), _take(letters, one_j))
                    raise
                block = np.column_stack((words[p], j))
                obstructions += _pd_obstructions(cls, elem, block, labels)
                seen += len(p)
                if length < max_length:
                    grown.append((elem, block))
        level = grown
    return PDReport(cls.type, cls.lambda_max_sq, obstructions, seen)


def _pd_obstructions(cls, elem: Homothety, words: np.ndarray, labels) -> List[PDObstruction]:
    """The obstructions among a batch of word elements, in row order; row i
    is the word of letter indices words[i, 1:]."""
    strict = elem.is_strict
    fixed = strict & ~np.isnan(_fixed_time(elem))
    free = strict & ~fixed
    if cls.type != "imaginary":
        # only a positive eigenvalue bounds (s/c)^2; an overflowing ratio exceeds it
        bound = np.inf if cls.lambda_max_sq is None else cls.lambda_max_sq + PD_SLACK
        with np.errstate(over="ignore"):
            free &= (elem.s / np.where(free, elem.c, 1.0)) ** 2 > bound
    rows, out = np.flatnonzero(fixed | free), []
    for word, fix, eps, c, s in zip(np.asarray(labels)[words[rows, 1:]].tolist(),
                                    fixed[rows].tolist(), elem.eps[rows].astype(int).tolist(),
                                    elem.c[rows].tolist(), elem.s[rows].tolist()):
        kind, detail = (
            ("fixed-point", f"strict element with eps={eps}, c={c:.3g} fixes a point") if fix
            else ("imaginary-strict", "imaginary type admits no strict homothety in a PD "
                  "cocompact group") if cls.type == "imaginary"
            else ("inequality", f"(s/c)^2 = {(s / c) ** 2:.6g} exceeds lambda_max^2 = "
                  f"{cls.lambda_max_sq:.6g}"))
        out.append(PDObstruction(tuple(word), kind, detail))
    return out
