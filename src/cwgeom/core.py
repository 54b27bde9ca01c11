"""Foundational types: the defining symmetric matrix with its spectral data,
points of R^{n+2}, closed-form solutions of the linear ODE system
beta'' = S beta, and the symplectic form on its solution space.

Coordinate convention throughout the package: a point of R^{n+2} is
(t, x^1..x^n, v) with frame order (d_t, d_1..d_n, d_v).  Maps take and
return (..., n+2) arrays, one point per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CentraliserViolationError,
    IncompatibleProfileError,
    MalformedProfileError,
    OverflowingValueError,
    PreconditionError,
)

# numpy mallocs its per-thread state (46 KB, mostly the big-integer
# scratch of its float printer) the first time a thread needs it, e.g. on
# the first negation of a large temporary array.  Under glibc, if that
# happens while a dense (n+2)^4 tensor sits at the top of the heap, the
# block lands just above it; once the tensor is freed its 10 MB at n = 32
# can be neither trimmed nor reused for the next one, and peak memory
# grows by a whole tensor.  Printing one float here, in the first module
# every path of the package imports, allocates the block while the heap
# holds nothing large; a module imported on first use may load too late.
np.format_float_positional(0.5)

# The tolerance policy: every threshold of the package, named once by what
# it judges.  `within` is the one judge, residual <= tol * max(1, size); a
# threshold whose verdicts name a size is relative to it (past size 1), and
# absolute otherwise.  Thresholds on S and its eigenvalues are relative to
# max |S| or max |eigenvalue| with no floor: k^2 S is isometric to S.
PROFILE_TOL = 1e-9      # SymmetricProfile's default: |S - S^T|, spectral gaps, zero eigenvalues
PROFILE_SLACK = 10      # the profile tolerance's factor on A^T A - I, Q^T A Q off the blocks, gaps
PARAM_TOL = 1e-9        # a group parameter read as 0: c, s, b, an entry of A^T A - I (else an
#                         entering A is projected) or of |A|(1 - |A|), a singular value of an
#                         isometry's block e^s Q_k^T A Q_k - I in fixed_point; in the PD sweep too
FIXED_POINT_TOL = 1e-8  # an isometry's fixed point: the parts of Q_k^T beta(t*) on the cut
#                         singular vectors and the v-shift, relative to the terms they subtract
RESONANCE_TOL = 1e-7    # (s/c)^2 on a positive eigenvalue of S, relative to the eigenvalue;
#                         and |mu - 1| for the eigenvalues mu of A on that eigenspace
ORBIT_TOL = 1e-6        # an orbit's last point from its limit, in every coordinate
PD_SLACK = 1e-12        # (s/c)^2 past lambda_max^2 by more is a PD obstruction, in exact arithmetic
PULLBACK_TOL = 1e-9     # pullback-check's default largest conformal defect of a flat chart
DOMAIN_TOL = 1e-12      # margin inside the open domain of a flat chart
MEASURE_TOL = 1e-9      # an interval of zero measure, in the box regions of the quotients
DIVISOR_FLOOR = 1e-300  # a positive norm too small to divide by
# the example checks of the quotients, by what lies between the values they compare
EXACT_TOL = 1e-12       # a few float operations
ROUNDOFF_TOL = 1e-9     # one closed-form evaluation or group product against another
COMPOSED_TOL = 1e-8     # composed maps, exponential charts or Jacobians
GROWTH_TOL = 1e-7       # a displayed formula growing like e^{-2t}, relative to its values
WORD_TOL = 1e-6         # a word of several group products, relative to its parameters


def within(residual, tol: float, size=1.0):
    """The one judge: whether residual <= tol * max(1, size), elementwise
    over arrays, so a NaN residual fails."""
    return np.less_equal(residual, tol * np.maximum(1.0, size))


class SymmetricProfile:
    """The symmetric n x n matrix S defining the metric, with a cached
    eigendecomposition.

    S is stored dense; |S - S^T| <= tolerance * max |S|.  Its eigh eigenvalues
    form blocks: those within PROFILE_SLACK * z of the block's first one, z =
    tolerance * max |eigenvalue|; a block whose mean is within z of zero is 0.0.
    ``eigenvalues`` holds each ``eigenvectors`` column's block eigenvalue,
    in ascending order, and the columns of one value span an eigenspace:
    the only spectral data, read by the flow, ``classify``, ``in_centraliser``
    and the per-eigenspace solves dynamics._conjugation_beta (with its
    resonance gate) and dynamics.fixed_point.  The flow, which only
    beta_in_eigenbasis calls, reads them through tables built once here,
    per column: the rate r, the derivative factor, each sign's slice of
    columns and the phase limit, so a call runs each function once over all times.
    A finite S whose trace or eigenvalues overflow is an
    OverflowingValueError.
    """

    def __init__(self, S, tolerance: float = PROFILE_TOL):
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] < 1:
            raise MalformedProfileError(f"S must be a square matrix, got shape {S.shape}")
        if not np.all(np.isfinite(S)):
            raise MalformedProfileError("S has non-finite entries")
        if not 0 < tolerance < np.inf:  # NaN fails both comparisons
            raise MalformedProfileError(f"tolerance must be finite and positive, got {tolerance}")
        # entries near the float maximum overflow below: an error, or an
        # infinite gap between eigenvalues, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            sym_defect, scale = float(np.max(np.abs(S - S.T))), float(np.max(np.abs(S)))
            if sym_defect > tolerance * scale:
                raise MalformedProfileError(f"S is not symmetric: max |S - S^T| = "
                                            f"{sym_defect:.3e} > {tolerance * scale:.3e}")
            self.n = S.shape[0]
            # halved before the sum, which cannot overflow for a finite S
            self.S = 0.5 * S + 0.5 * S.T
            if not np.isfinite(np.trace(self.S)):
                raise OverflowingValueError("the trace of S overflows")
            self.tolerance = float(tolerance)
            w, Q = np.linalg.eigh(self.S)
            if not np.all(np.isfinite(w)):
                raise OverflowingValueError("the eigenvalues of S overflow")
            zero = self.tolerance * float(np.max(np.abs(w)))
            self.eigenvalues = np.empty(self.n)
            i = 0
            while i < self.n:
                j = i + 1
                while j < self.n and abs(w[j] - w[i]) <= PROFILE_SLACK * zero:
                    j += 1
                ev = np.mean(w[i:j])
                self.eigenvalues[i:j] = 0.0 if abs(ev) <= zero else ev
                i = j
        self.eigenvectors = Q  # columns
        # the bound for equality of profiles, relative to max |S|
        self._scale_tol = self.tolerance * scale * PROFILE_SLACK
        self._flow_tables()

    def _flow_tables(self):
        """The flow's per-column tables, built once.  r = sqrt|eigenvalue|
        is a column's rate (1 on a zero column, where no function reads
        it, so that an infinite t makes no inf * 0) and sign * r its
        derivative factor.  eigh sorts ascending, so the negative columns
        come first and the positive ones last: a branch with columns is
        its even and odd function, (cos, sin) or (cosh, sinh), with the
        slice of its columns.  Only a zero column keeps the fills (1, 0)
        of ch and odd; with none, the nonzero mask is True and both start
        empty."""
        lam = self.eigenvalues
        neg, pos = int(np.sum(lam < 0)), int(np.sum(lam > 0))
        self._rate = np.where(lam == 0, 1.0, np.sqrt(np.abs(lam)))
        self._signed_rate = np.where(lam < 0, -self._rate, self._rate)
        self._branches = [(even, odd, cols) for even, odd, cols in (
            (np.cos, np.sin, slice(0, neg)), (np.cosh, np.sinh, slice(self.n - pos, self.n)))
            if cols.start < cols.stop]
        self._nonzero = True if neg + pos == self.n else lam != 0
        self._fills = (np.empty, np.empty) if self._nonzero is True else (np.ones, np.zeros)
        # an ulp of the phase r t of a column with eigenvalue -r^2 is a radian
        # from |t| = 2^52 / r on: beta_in_eigenbasis refuses data there
        self._phase_limit = np.divide(2.0 ** 52, self._rate, out=np.full(self.n, np.inf),
                                      where=lam < 0)
        self._min_phase_limit = float(self._phase_limit[0])  # column 0 oscillates fastest

    def flow(self, t):
        """Per eigenvector column, the closed-form flow (ch, sh, d0) of
        beta'' = S beta over time t: in the eigenbasis y = Q^T beta,
        y(t) = ch y(0) + sh y'(0) and y'(t) = d0 y(0) + ch y'(0), with
        (ch, sh, d0) = (cosh, sinh/r, r sinh)(r t) for a positive eigenvalue
        r^2, (cos, sin/r, -r sin)(r t) for a negative one -r^2, and
        (1, t, 0) for a zero one.  t may be an array of times: each part
        has its shape with a trailing axis of n columns.  Each function runs
        once, on its branch's columns of all the times."""
        t = np.asarray(t, dtype=float)[..., None]
        rt = t * self._rate
        fill_ch, fill_odd = self._fills
        ch, odd = fill_ch(rt.shape), fill_odd(rt.shape)
        for f_even, f_odd, cols in self._branches:
            r = rt[..., cols]
            f_even(r, out=ch[..., cols])
            f_odd(r, out=odd[..., cols])
        # rt is t on a zero column, whose sh is t
        sh = np.divide(odd, self._rate, out=rt, where=self._nonzero)
        return ch, sh, self._signed_rate * odd

    def in_centraliser(self, A) -> bool:
        """Whether A is orthogonal and commutes with S: A^T A - I, and Q^T A Q
        wherever two columns' eigenvalues differ, are within tolerance *
        PROFILE_SLACK of 0."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.n, self.n):
            return False
        tol, Q, w = self.tolerance * PROFILE_SLACK, self.eigenvectors, self.eigenvalues
        ortho = float(np.max(np.abs(A.T @ A - np.eye(self.n)))) <= tol
        mixing = np.abs(Q.T @ A @ Q)[w[:, None] != w]
        return ortho and float(np.max(mixing, initial=0.0)) <= tol

    def require_centraliser(self, A) -> np.ndarray:
        """The one gate for A, where an element enters, in C order: A if
        in_centraliser and orthogonal within PARAM_TOL, its polar factor UV^T if only the first."""
        A = np.ascontiguousarray(A, dtype=float)
        if not self.in_centraliser(A):
            raise CentraliserViolationError(
                "matrix is not an orthogonal matrix commuting with S"
            )
        if within(np.max(np.abs(A.T @ A - np.eye(self.n))), PARAM_TOL):
            return A
        U, _, Vt = np.linalg.svd(A)
        return U @ Vt

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SymmetricProfile)
            and self.n == other.n
            and float(np.max(np.abs(self.S - other.S)))
            <= min(self._scale_tol, other._scale_tol)
        )

    def __repr__(self):
        return f"SymmetricProfile(n={self.n}, eigenvalues={self.eigenvalues})"


@dataclass(frozen=True)
class Classification:
    type: str  # "real" | "imaginary" | "mixed" | "degenerate"
    invertible: bool
    conformally_flat: bool
    lambda_max_sq: Optional[float] = None


def classify(profile: SymmetricProfile) -> Classification:
    """Spectral classification of the space defined by S, read off the
    profile's eigenvalues: any 0 -> degenerate, else all negative ->
    imaginary, all positive -> real, both -> mixed.  Conformal flatness
    means a single eigenvalue (S is scalar); lambda_max^2 is the largest
    eigenvalue if it is positive.
    """
    w = profile.eigenvalues
    if np.any(w == 0):
        kind = "degenerate"
    elif np.all(w < 0):
        kind = "imaginary"
    elif np.all(w > 0):
        kind = "real"
    else:
        kind = "mixed"
    lam = float(w[-1]) if w[-1] > 0 else None
    return Classification(kind, kind != "degenerate", bool(np.all(w == w[0])), lam)


# Kept for the benchmark's reads: perfbench/reports.py:94-100 passes Points
# to homothety_factor_check, and :53-54 reads rep.points[-1].t/.x/.v (built on read).
@dataclass(frozen=True)
class Point:
    """Coordinates (t, x, v) of a point of R^{n+2}."""

    t: float
    x: np.ndarray
    v: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        require_finite(self.as_array())

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.t], self.x, [self.v]))

    @staticmethod
    def from_array(a) -> "Point":
        a = np.asarray(a, dtype=float)
        return Point(float(a[0]), a[1:-1].copy(), float(a[-1]))


def coords(points, n: Optional[int] = None) -> np.ndarray:
    """The (..., n+2) float array of an array of points or of a list of
    points, each a Point (perfbench/reports.py:94-100 passes them to
    homothety_factor_check) or an array; IncompatibleProfileError if its
    last axis is not n + 2."""
    if isinstance(points, (list, tuple)):
        a = (np.array([p.as_array() if isinstance(p, Point) else p for p in points], dtype=float)
             if points else np.empty((0, n + 2)))
    else:
        a = np.asarray(points, dtype=float)
    if n is not None and a.shape[-1:] != (n + 2,):
        raise IncompatibleProfileError(f"points need {n + 2} coordinates, got shape {a.shape}")
    return a


def join(t, x, v) -> np.ndarray:
    """The points with parts t, v of shape (...) and x of shape (..., n)."""
    return np.concatenate((t[..., None], x, v[..., None]), axis=-1)


def require_finite(a: np.ndarray) -> np.ndarray:
    """The computed array a; OverflowingValueError if an entry is not finite."""
    if not np.isfinite(a).all():
        raise OverflowingValueError("a computed value is not finite")
    return a


@dataclass(frozen=True)
class BetaSolution:
    """A solution of beta'' = S beta, stored as initial data
    (beta(0), beta'(0)) and evaluated in closed form per eigenvalue sign;
    data of shape (..., n) is one solution per row."""

    profile: SymmetricProfile
    beta0: np.ndarray = field(default=None)
    beta1: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.profile.n
        b0 = np.zeros(n) if self.beta0 is None else np.atleast_1d(np.asarray(self.beta0, float))
        b1 = np.zeros(n) if self.beta1 is None else np.atleast_1d(np.asarray(self.beta1, float))
        if b0.shape[-1:] != (n,) or b1.shape[-1:] != (n,):
            raise IncompatibleProfileError("initial data dimension does not match profile")
        object.__setattr__(self, "beta0", b0)
        object.__setattr__(self, "beta1", b1)

    def is_zero(self) -> bool:
        """Whether beta(0) and beta'(0) read as 0 by PARAM_TOL, as a group
        element's other parameters do."""
        return bool(within(np.max(np.abs(self.beta0)), PARAM_TOL)
                    and within(np.max(np.abs(self.beta1)), PARAM_TOL))


def beta_in_eigenbasis(beta: BetaSolution, t):
    """The one place beta enters the eigenbasis of S: its data (Q^T beta(0),
    Q^T beta'(0)), row by row for (..., n) data, and the flow (ch, sh, d0)
    of SymmetricProfile.flow over a time or an array of times.
    PreconditionError if a time, or a row of times, has lost the phase of a
    column where the data is nonzero, naming the largest such |t|; a float
    time (Python or numpy) below every column's limit passes at once."""
    p = beta.profile
    y0, y1 = beta.beta0 @ p.eigenvectors, beta.beta1 @ p.eigenvectors
    if not (isinstance(t, float) and abs(t) < p._min_phase_limit):
        a = np.abs(np.asarray(t, dtype=float))
        if (float(a) if a.ndim == 0 else a.max(initial=0.0)) >= p._min_phase_limit:
            lost = ((a[..., None] >= p._phase_limit) & ((y0 != 0) | (y1 != 0))).any(axis=-1)
            if lost.any():
                t_lost = float(np.broadcast_to(a, lost.shape)[lost].max())
                raise PreconditionError(f"the phase of beta at |t| = {t_lost} is lost "
                                        "to round-off")
    return (y0, y1), p.flow(t)


@np.errstate(over="ignore", invalid="ignore")
def beta_eval(beta: BetaSolution, t):
    """Evaluate (beta(t), beta'(t)) in closed form, column by column in the
    eigenbasis of S (see beta_in_eigenbasis), for a time or an array of
    times, and row by row for (..., n) data; an overflow raises, with no
    warning, seen first as a non-finite <beta, beta'>."""
    (y0, y1), (ch, sh, d0) = beta_in_eigenbasis(beta, t)
    Q = beta.profile.eigenvectors
    val, der = (ch * y0 + sh * y1) @ Q.T, (d0 * y0 + ch * y1) @ Q.T
    return (val, der) if np.isfinite(np.vdot(val, der)) else tuple(map(require_finite, (val, der)))


def symplectic_form(beta: BetaSolution, betahat: BetaSolution) -> float:
    """omega(beta, betahat) = ((beta(0), betahat'(0)) - (beta'(0), betahat(0)))/2."""
    if beta.profile != betahat.profile:
        raise IncompatibleProfileError("symplectic form needs a common profile")
    return 0.5 * (float(beta.beta0 @ betahat.beta1) - float(beta.beta1 @ betahat.beta0))
