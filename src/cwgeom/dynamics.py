"""Fixed points, essentiality, conjugation normal forms and the
obstructions to properly discontinuous cocompact actions.

Fixed points take one path: at the fixed time t* of t -> eps t + c, solve
(e^s A - I) x = -beta(t*) on the x-block by one SVD per eigenspace of S,
then the affine v-equation, and judge an isometry's point by what its cut
singular values leave of beta(t*) and by its v-shift.  So a strict
homothety fixes a point iff eps = -1 or c = 0, which is also when it is
essential; otherwise f = -s t / c has f(phi(p)) = f(p) - s, so phi is an
isometry of e^{2f} g_S.  The conjugation equation e^s A beta(t + c) -
beta(t) = betahat(t) is one 2d x 2d solve per eigenspace of S, of
dimension d, on SymmetricProfile.flow, and its resonance gate reads the
same blocks of A.
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
    beta_eval,
    classify,
    coords,
    require_finite,
    require_phase,
    within,
)
from .errors import (
    IncompatibleProfileError,
    PreconditionError,
    ResonanceError,
    UnsupportedCaseError,
)
from .group import (
    Homothety,
    _element,
    _take,
    _with_inverses,
    apply,
    compose,
    conjugate,
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


def _fixed_time(eps, c):
    """The time fixed by t -> eps t + c, per row of arrays: c/2 for
    eps = -1, 0 when c = 0, and NaN when the t-part is a translation."""
    return np.where(eps == -1, c / 2.0, np.where(within(np.abs(c), PARAM_TOL), 0.0, np.nan))


def _eigenspace_blocks(profile, A):
    """Per eigenspace dimension d of S, ascending: the (K, d) columns of the
    K eigenspaces, runs of equal profile.eigenvalues, and their (K, d, d)
    blocks Ahat_k = Q_k^T A Q_k from the one product A Q (Q^T A Q's entries
    between two eigenvalues are dropped)."""
    Q, lam = profile.eigenvectors, profile.eigenvalues
    AQ = Q.T @ A.T  # the one product A Q, row j (A q_j)^T
    dim = np.searchsorted(lam, lam, "right") - np.searchsorted(lam, lam)  # eigenspace sizes
    for d in sorted(set(dim.tolist())):
        cols = np.flatnonzero(dim == d).reshape(-1, d)
        yield cols, Q.T[cols] @ AQ[cols].transpose(0, 2, 1)


@np.errstate(over="ignore", invalid="ignore")
def fixed_point(phi: Homothety) -> FixedPointReport:
    """Fixed-point classification of a homothety.

    A fixed point lies at the fixed time t* of the t-part, on the x-block
    solution of (e^s A - I) x = -beta(t*) and the solution v* of
    v = eps(e^{2s} v + b - <beta'(t*), e^s A x* + beta(t*)/2>).  Strict case:
    it exists iff eps = -1 or c = 0.  Per eigenspace dimension, one batched
    SVD U diag(sigma) V^T of the blocks e^s Ahat_k - I of _eigenspace_blocks
    gives xhat_k = V diag(1/sigma) U^T (-yhat_k) over the kept sigma, with
    yhat = Q^T beta(t*) and x* = Q xhat.  An isometry cuts the sigma at or
    below PARAM_TOL, as the entry gate reads A, and v* = 0 where
    eps e^{2s} = 1; a point exists iff each part of yhat_k on a cut
    left-singular vector, and the v-shift, is within FIXED_POINT_TOL of the
    terms it subtracts: |beta(t*)| on x; b, <beta', e^s A x*>,
    <beta', beta>/2 on v.  A strict element cuts none.  The residual is
    max |phi(p) - p| by apply.
    """
    none = FixedPointReport(False, None, "none_translation")
    t_star = float(_fixed_time(phi.eps, phi.c))
    if np.isnan(t_star):
        return none
    strict, prof = phi.is_strict, phi.profile
    val, der = beta_eval(phi.beta, t_star)
    y, x_hat, cut = prof.eigenvectors.T @ val, np.empty(prof.n), np.zeros(prof.n)
    for cols, Ahat in _eigenspace_blocks(prof, phi.A):
        U, sv, Vt = np.linalg.svd(np.exp(phi.s) * Ahat - np.eye(cols.shape[1]))
        on_u, kept = -np.vecmat(y[cols], U), (sv > PARAM_TOL) | strict  # -U^T y per block
        x_hat[cols] = np.vecmat(np.divide(on_u, sv, out=np.zeros_like(on_u), where=kept), Vt)
        cut[cols] = np.where(kept, 0.0, on_u)
    x_star = prof.eigenvectors @ x_hat
    esAx = np.exp(phi.s) * (phi.A @ x_star)
    d = phi.eps * (phi.b - float(der @ (esAx + 0.5 * val)))
    slope = phi.eps * np.exp(2 * phi.s)
    # v -> v + d where the slope is 1, fixed only where d = 0
    v_star = 0.0 if within(abs(1.0 - slope), PARAM_TOL) else d / (1.0 - slope)
    p = require_finite(np.concatenate(([t_star], x_star, [v_star])))
    gap = np.abs(np.r_[cut, d - (1.0 - slope) * v_star])
    size = np.r_[np.full(prof.n, np.max(np.abs(val))),
                 max(abs(phi.b), abs(der @ esAx), 0.5 * abs(der @ val))]
    if not strict and not within(gap, FIXED_POINT_TOL, size).all():
        return none
    reason = ("isometry_euclidean_fp" if not strict
              else "strict_eps_minus1" if phi.eps == -1 else "strict_c_zero")
    return FixedPointReport(True, p, reason, float(np.max(np.abs(apply(phi, p) - p))))


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
    if not np.isnan(_fixed_time(phi.eps, phi.c)):
        raise PreconditionError("phi has a fixed point; no equivariant rescaling exists")
    slope = -phi.s / phi.c
    return lambda p: slope * coords(p, phi.profile.n)[..., 0]


def _conjugation_beta(A, s: float, c: float, betahat: BetaSolution) -> BetaSolution:
    """Solve e^s A beta(t + c) - beta(t) = betahat(t) for beta, over betahat's profile.

    On an eigenspace of S, of dimension d, the flow over c is one
    F = [[ch, sh], [d0, ch]] and A is its block Ahat of _eigenspace_blocks:
    beta's eigenbasis data (y, y') solve (e^s Ahat (x) F - I)
    (y, y') = (yhat, yhat'), one batched 2d x 2d solve per d.  A was gated
    where phi entered and s != 0.  ResonanceError where (s/c)^2 is within
    RESONANCE_TOL r^2 of a positive eigenvalue r^2 and its Ahat fixes a
    vector (e^{s +- rc} mu = 1 with |mu| = 1 forces mu = 1, by RESONANCE_TOL).
    """
    profile = betahat.profile
    Q, lam = profile.eigenvectors, profile.eigenvalues
    y = Q.T @ np.array((betahat.beta0, betahat.beta1)).T  # row j: (y_j, y_j')
    require_phase(profile, c, *y.T)  # the shift by c reads phase r c, as beta_eval does
    ch, sh, d0 = profile.flow(c)
    F = np.moveaxis(np.array(((ch, sh), (d0, ch))), -1, 0)  # a 2 x 2 flow per column
    sol = np.empty_like(y)
    ratio_sq = np.nan if within(abs(c), PARAM_TOL) else (s / c) ** 2  # NaN hits nothing
    for cols, Ahat in _eigenspace_blocks(profile, A):
        d, ev = cols.shape[1], lam[cols[:, 0]]
        for k in np.flatnonzero(ev > 0):
            if (within(abs(ratio_sq - ev[k]) / ev[k], RESONANCE_TOL)
                    and within(np.abs(np.linalg.eigvals(Ahat[k]) - 1), RESONANCE_TOL).any()):
                raise ResonanceError(f"(s/c)^2 = {ratio_sq:.6g} hits the eigenvalue "
                                     f"{ev[k]:.6g} of S, on which A fixes a vector")
        M = (np.exp(s) * Ahat)[:, :, None, :, None] * F[cols[:, 0], None, :, None, :]
        try:
            x = np.linalg.solve(M.reshape(len(cols), 2 * d, 2 * d) - np.eye(2 * d),
                                y[cols].reshape(len(cols), 2 * d, 1))
        except np.linalg.LinAlgError as exc:
            raise ResonanceError(f"singular conjugation block: {exc}") from exc
        sol[cols] = x.reshape(len(cols), d, 2)
    return BetaSolution(profile, *(Q @ sol).T)


@dataclass(frozen=True)
class NormalFormResult:
    """N = g phi g^{-1} = (0, 0, c, +1, A, s) with c >= 0, and the residual:
    the largest |b|, |beta(0)|, |beta'(0)| of the computed g phi g^{-1}."""

    conjugator: Homothety
    normal: Homothety
    residual: float


@np.errstate(over="ignore", invalid="ignore")
def normal_form(phi: Homothety) -> NormalFormResult:
    """Conjugate a non-resonant strict homothety with eps = +1 into
    E(1) x C_O(n)(S) x R, by an isometry from Hei_n extended by the
    reflection (t, x, v) -> (-t, x, -v) to force c >= 0.

    The conjugator g = (b_g, beta_g, 0, +1, I, 0) solves g phi = N g with
    N = (0, 0, c, +1, A, s): e^s A beta_g(t) - beta_g(t + c) = beta(t) is
    one conjugation solve, and b_g (e^{2s} - 1) = b + (<beta'(0),
    beta_g(c)> - <beta_g'(c), beta(0)>) / 2.  For c < 0 the reflection is
    composed on the left; N is read off one product g phi g^{-1}.
    """
    prof = phi.profile
    if not phi.is_strict:
        raise PreconditionError("normal form applies to strict homotheties")
    if phi.eps != 1:
        raise UnsupportedCaseError("normal form requires eps = +1")
    # the solver equation with shift -c and right-hand side beta(. - c)
    val, der = beta_eval(phi.beta, -phi.c)
    beta_g = _conjugation_beta(phi.A, phi.s, -phi.c, BetaSolution(prof, val, der))
    Y, Yd = beta_eval(beta_g, phi.c)
    cross = float(phi.beta.beta1 @ Y - Yd @ phi.beta.beta0)
    g = Homothety(prof, b=(phi.b + 0.5 * cross) / np.expm1(2 * phi.s), beta=beta_g)
    if phi.c < 0:
        g = compose(Homothety(prof, eps=-1), g)
    current = conjugate(g, phi)
    residual = float(np.max(np.abs(np.r_[current.b, current.beta.beta0, current.beta.beta1])))
    zero = np.zeros(prof.n)
    clean = _element(prof, 0.0, zero, zero, current.c, current.eps, current.A, current.s)
    return NormalFormResult(g, clean, residual)


@dataclass(frozen=True)
class OrbitReport:
    """The images of the origin under gamma^{-k} phi gamma^k, k = 1..K, as
    one (K, n+2) array, their limit (None where the t-coordinate
    diverges), convergence and fitted decay rate."""

    sequence: np.ndarray  # (K, n+2), row k - 1 the image under conjugate k
    limit: Optional[np.ndarray]  # (n+2,)
    converged: bool
    rate: Optional[float]

    @property
    def points(self) -> List[Point]:
        """The sequence as Points, built on read (perfbench/reports.py:53)."""
        return list(map(Point.from_array, self.sequence))


@np.errstate(over="ignore", invalid="ignore")
def orbit_obstruction_sequence(gamma: Homothety, phi: Homothety, K: int = 60) -> OrbitReport:
    """The sequence y_k = gamma^{-k} phi gamma^k (0) and its convergence
    to (c_phi, 0, 0), the obstruction to proper discontinuity: converged
    when y_K lies within ORBIT_TOL of the limit in every coordinate.  The
    t-coordinate of y_k is c_phi + (eps_phi - 1) k c_gamma, so for
    eps_phi = -1 and |c_gamma| > PARAM_TOL it diverges: the limit is None
    and the sequence does not converge.

    gamma = (0, 0, c_g, +1, A_g, s_g) must lie in E(1) x C_O(n)(S) x R (no
    Heisenberg part, eps = +1).  Then psi -> gamma^{-1} psi gamma takes b
    to e^{-2 s_g} b, c to c + (eps - 1) c_g and beta to e^{-s_g} A_g^T
    beta(. + c_g), and keeps eps and s; its A never acts on the origin, so
    is not formed.  The K steps run this recurrence with no group-law
    call: beta's data (y, y') stays in the eigenbasis of S, where the shift
    by c_g is the elementwise flow of SymmetricProfile.flow (so a decaying
    mode keeps its relative precision), and is mapped back once at the
    end.  A step is three numpy calls: the product of F = [[ch, sh],
    [d0, ch]] with the rows (y, y'), its sum over the inner axis, and the
    product by M = e^{-s_g} Q^T A_g Q into the next row.  Conjugate k sends the
    origin to (c, beta(0), eps (b - <beta'(0), beta(0)>/2)) in closed form,
    and the report fits a geometric decay rate to the x-block norms.
    """
    if K < 1:
        raise PreconditionError("the orbit needs K >= 1 steps")
    if gamma.eps != 1 or not within(abs(gamma.b), PARAM_TOL) or not gamma.beta.is_zero():
        raise PreconditionError("gamma must lie in E(1) x C_O(n)(S) x R")
    prof = phi.profile
    if gamma.profile != prof:
        raise IncompatibleProfileError("gamma and phi are over different profiles")
    n, Q, c_g = prof.n, prof.eigenvectors, gamma.c
    ch, sh, d0 = prof.flow(c_g)
    F = np.array(((ch, sh), (d0, ch)))
    # y -> y M on eigenbasis rows is beta -> e^{-s_g} A_g^T beta
    M = np.exp(-gamma.s) * (Q.T @ gamma.A @ Q)
    e2s = np.exp(-2 * gamma.s)
    y, b = np.empty((K + 1, 2, n)), np.empty(K)
    y[0], bk = (phi.beta.beta0 @ Q, phi.beta.beta1 @ Q), phi.b
    for k in range(K):
        np.matmul(np.add.reduce(F * y[k], axis=1), M, out=y[k + 1])
        bk = b[k] = e2s * bk
    c = phi.c + (phi.eps - 1) * c_g * np.arange(1, K + 1)
    # step k shifted row k, reading the columns at phase r c_g as beta_eval does
    require_phase(prof, c_g, y[:-1, 0], y[:-1, 1])
    beta = y[1:] @ Q.T
    v = phi.eps * (b - np.vecdot(beta[:, 1], beta[:, 0]) / 2)
    # an overflow, in the flow or a step, leaves a non-finite point (v carries b and beta')
    pts = require_finite(np.column_stack((c, beta[:, 0], v)))
    limit = (None if phi.eps == -1 and not within(abs(c_g), PARAM_TOL)
             else np.concatenate(([phi.c], np.zeros(n + 1))))
    converged = limit is not None and bool(within(float(np.max(np.abs(pts[-1] - limit))),
                                                  ORBIT_TOL))
    x = pts[:, 1:-1]
    norms = np.sqrt(np.vecdot(x, x))  # per row the sum np.linalg.norm makes of one vector
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
    return OrbitReport(pts, limit, converged, rate)


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
    g_1, g_1^-1, g_2, g_2^-1, ..., the inverses from one batched inverse
    of the generators.  That batch is level 1, the words of length 1; a
    word of level l > 1 is its prefix's element composed with its last
    letter, the left fold (g_1 g_2) g_3 ..., one batched compose per block
    of at most PD_BLOCK_ENTRIES rows * (n+2)^2.  The checks run once, on
    every word's (eps, c, s), and format only obstructing words.  So the
    sweep holds every word's eps, c, s, strictness and letter row, the
    blocks of level l - 1 not yet extended, those of level l (none at the
    last) and one block's temporaries.  By the row rule of compose, an
    error is the one of the first failing word, within it a lost phase
    before an overflow, as composing word by word would raise.
    """
    if not generators:
        raise PreconditionError("the sweep needs at least one generator")
    if max_length < 1:
        raise PreconditionError("the sweep needs max_length >= 1")
    prof = generators[0].profile
    cls = classify(prof)
    # letter j is g_{j//2+1} for even j and its inverse for odd j: j ^ 1 cancels j
    letters = _with_inverses(generators)
    labels = np.array([(j // 2 + 1) * (-1) ** j for j in range(2 * len(generators))])
    k, rows = len(labels), max(1, PD_BLOCK_ENTRIES // (prof.n + 2) ** 2)
    # a level is a list of (elements, words) blocks, each dropped once it is
    # extended, words rows of letter indices; checked keeps each block's
    # strictness, eps, c, s and words
    level = [(letters, np.arange(k)[:, None])]
    checked = [(letters.is_strict, letters.eps, letters.c, letters.s, level[0][1])]
    for length in range(2, max_length + 1):
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
                elem = compose(_take(elems, p), _take(letters, j))
                block = np.column_stack((words[p], j))
                checked.append((elem.is_strict, elem.eps, elem.c, elem.s, block))
                if length < max_length:
                    grown.append((elem, block))
        level = grown
    return PDReport(cls.type, cls.lambda_max_sq, _pd_obstructions(cls, checked, labels),
                    sum(len(block[-1]) for block in checked))


def _pd_obstructions(cls, checked, labels) -> List[PDObstruction]:
    """The obstructions among the words of the blocks (strict, eps, c, s,
    words) in checked, in order; a row of words is a word's letter indices."""
    *columns, words = zip(*checked)
    strict, eps, c, s = map(np.concatenate, columns)
    fixed = strict & ~np.isnan(_fixed_time(eps, c))
    free = strict & ~fixed
    if cls.type != "imaginary":
        # only a positive eigenvalue bounds (s/c)^2; an overflowing ratio exceeds it
        bound = np.inf if cls.lambda_max_sq is None else cls.lambda_max_sq + PD_SLACK
        with np.errstate(over="ignore"):
            free &= (s / np.where(free, c, 1.0)) ** 2 > bound
    rows, out = np.flatnonzero(fixed | free), []
    starts = np.cumsum([0] + [len(w) for w in words]).tolist()
    cut = np.searchsorted(rows, starts).tolist()
    found = [word for w, start, i, j in zip(words, starts, cut, cut[1:])
             for word in labels[w[rows[i:j] - start]].tolist()]
    # + 0.0: a letter's c may be -0, where a word folded from the identity has 0
    for word, fix, eps, c, s in zip(found, fixed[rows].tolist(), eps[rows].astype(int).tolist(),
                                    (c[rows] + 0.0).tolist(), s[rows].tolist()):
        out.append(PDObstruction(tuple(word), *(
            ("fixed-point", f"strict element with eps={eps}, c={c:.3g} fixes a point") if fix
            else ("imaginary-strict", "imaginary type admits no strict homothety in a PD "
                  "cocompact group") if cls.type == "imaginary"
            else ("inequality", f"(s/c)^2 = {(s / c) ** 2:.6g} exceeds lambda_max^2 = "
                  f"{cls.lambda_max_sq:.6g}"))))
    return out
