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

# The tolerance policy: every threshold of the package, named once by what
# it judges.  `within` is the one judge, residual <= tol * max(1, size); a
# threshold whose verdicts name a size is relative to it (past size 1), and
# absolute otherwise.
PROFILE_TOL = 1e-9      # SymmetricProfile's default: |S - S^T|, spectral gaps, zero eigenvalues
PROFILE_SLACK = 10      # the profile tolerance's factor on A^T A - I, AS - SA, gaps, flatness
PARAM_TOL = 1e-9        # a group parameter read as 0: c, s, b, an entry of A^T A - I, or of
#                         |A|(1 - |A|); in the PD sweep too, on c and s in exact arithmetic
FIXED_POINT_TOL = 1e-8  # a fixed point's consistency, relative to the terms its residual subtracts
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
APPROACH_TOL = 1e-3     # how near conjugates come to the identity
RATE_TOL = 0.1          # a fitted geometric rate, relative to the expected one


def within(residual, tol: float, size=1.0):
    """The one judge: whether residual <= tol * max(1, size), elementwise
    over arrays, so a NaN residual fails."""
    return np.less_equal(residual, tol * np.maximum(1.0, size))


@dataclass(frozen=True)
class SpectralBlock:
    """One eigenvalue of S with its multiplicity and an orthonormal basis
    of the eigenspace (columns of ``basis``, an n x d matrix)."""

    eigenvalue: float
    multiplicity: int
    basis: np.ndarray


class SymmetricProfile:
    """The symmetric n x n matrix S defining the metric, with a cached
    eigendecomposition.

    S is stored dense; eigenvalues within ``zero_threshold`` = tolerance *
    max(1, max |eigenvalue|) of zero are treated as exactly zero, here and
    in ``classify``, and those within PROFILE_SLACK * zero_threshold of each
    other are grouped into a single spectral block.  A finite S whose trace
    or eigenvalues overflow is rejected with an OverflowingValueError.
    """

    def __init__(self, S, tolerance: float = PROFILE_TOL):
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] < 1:
            raise MalformedProfileError(f"S must be a square matrix, got shape {S.shape}")
        if not np.all(np.isfinite(S)):
            raise MalformedProfileError("S has non-finite entries")
        if tolerance <= 0:
            raise MalformedProfileError("tolerance must be positive")
        # entries near the float maximum overflow below: an error, not a
        # numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            sym_defect = float(np.max(np.abs(S - S.T)))
            if sym_defect > tolerance:
                raise MalformedProfileError(
                    f"S is not symmetric: max |S - S^T| = {sym_defect:.3e} > {tolerance:.3e}"
                )
            self.n = S.shape[0]
            # halved before the sum, which cannot overflow for a finite S
            self.S = 0.5 * S + 0.5 * S.T
            if not np.isfinite(np.trace(self.S)):
                raise OverflowingValueError("the trace of S overflows")
            self.tolerance = float(tolerance)
            w, Q = np.linalg.eigh(self.S)
            if not np.all(np.isfinite(w)):
                raise OverflowingValueError("the eigenvalues of S overflow")
        self.eigenvalues = w
        self.eigenvectors = Q  # columns
        self.zero_threshold = self.tolerance * max(1.0, float(np.max(np.abs(w))))
        # absolute bound, on the scale of S, for commuting with S and for
        # equality of profiles
        self._scale_tol = self.tolerance * max(1.0, float(np.max(np.abs(self.S)))) * PROFILE_SLACK
        self.spectrum = self._group_spectrum(w, Q)
        self._branches = self._column_branches()

    def _group_spectrum(self, w, Q):
        blocks = []
        i = 0
        while i < self.n:
            j = i + 1
            while j < self.n and abs(w[j] - w[i]) <= PROFILE_SLACK * self.zero_threshold:
                j += 1
            ev = float(np.mean(w[i:j]))
            if abs(ev) <= self.zero_threshold:
                ev = 0.0
            blocks.append(SpectralBlock(ev, j - i, Q[:, i:j].copy()))
            i = j
        return blocks

    def _column_branches(self):
        """Per eigenvector column, the grouped eigenvalue decides the closed
        form of beta'' = S beta.  eigh sorts ascending, so the negative
        columns come first and the positive ones last: each branch is a
        slice of columns with r = sqrt|eigenvalue|, the derivative sign
        times r, and the even and odd function.  Zero columns are in no
        branch (the affine solution)."""
        lam = np.repeat([b.eigenvalue for b in self.spectrum],
                        [b.multiplicity for b in self.spectrum])
        root = np.sqrt(np.abs(lam))
        # an ulp of the phase r t of a column with eigenvalue -r^2 is a radian
        # from |t| = 2^52 / r on: beta_eval refuses data there
        self._phase_limit = np.divide(2.0 ** 52, root, out=np.full(self.n, np.inf), where=lam < 0)
        neg = slice(0, int(np.sum(lam < 0)))
        pos = slice(self.n - int(np.sum(lam > 0)), self.n)
        return [(sl, root[sl], sign * root[sl], even, odd)
                for sl, even, odd, sign in ((neg, np.cos, np.sin, -1.0),
                                            (pos, np.cosh, np.sinh, 1.0))
                if sl.start < sl.stop]

    def flow(self, t):
        """Per eigenvector column, the closed-form flow (ch, sh, d0) of
        beta'' = S beta over time t: in the eigenbasis y = Q^T beta,
        y(t) = ch y(0) + sh y'(0) and y'(t) = d0 y(0) + ch y'(0), with
        (ch, sh, d0) = (cosh, sinh/r, r sinh)(r t) for a positive eigenvalue
        r^2, (cos, sin/r, -r sin)(r t) for a negative one -r^2, and
        (1, t, 0) for a zero one.  t may be an array of times: each part
        has its shape with a trailing axis of n columns."""
        t = np.asarray(t, dtype=float)[..., None]
        d0 = np.zeros(t.shape[:-1] + (self.n,))
        ch = d0 + 1.0
        sh = ch * t
        for cols, r, sr, even, odd in self._branches:
            rt = t * r
            ch[..., cols] = even(rt)
            o = odd(rt)
            sh[..., cols] = o / r
            d0[..., cols] = sr * o
        return ch, sh, d0

    def in_centraliser(self, A) -> bool:
        """Whether A is orthogonal and commutes with S, within tolerance."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.n, self.n):
            return False
        ortho = float(np.max(np.abs(A.T @ A - np.eye(self.n)))) <= self.tolerance * PROFILE_SLACK
        commutes = float(np.max(np.abs(A @ self.S - self.S @ A))) <= self._scale_tol
        return ortho and commutes

    def require_centraliser(self, A) -> np.ndarray:
        A = np.asarray(A, dtype=float)
        if not self.in_centraliser(A):
            raise CentraliserViolationError(
                "matrix is not an orthogonal matrix commuting with S"
            )
        return A

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
    """Spectral classification of the space defined by S.

    Type is read off the eigenvalue signs: all negative -> imaginary,
    all positive -> real, both -> mixed, any eigenvalue within tolerance
    of zero -> degenerate.  Conformal flatness means S is (within
    tolerance) a scalar matrix.
    """
    w = profile.eigenvalues
    zero_tol = profile.zero_threshold
    near_zero = np.abs(w) <= zero_tol
    invertible = not bool(np.any(near_zero))
    if np.any(near_zero):
        kind = "degenerate"
    elif np.all(w < 0):
        kind = "imaginary"
    elif np.all(w > 0):
        kind = "real"
    else:
        kind = "mixed"
    mean = float(np.trace(profile.S)) / profile.n
    flat = float(np.max(np.abs(profile.S - mean * np.eye(profile.n)))) <= zero_tol * PROFILE_SLACK
    positive = w[w > zero_tol]
    lam = float(np.max(positive)) if positive.size else None
    return Classification(kind, invertible, flat, lam)


# Kept for the benchmark's reads: perfbench/reports.py:94-100 passes Points
# to homothety_factor_check, and :53-54 reads rep.points[-1].t/.x/.v.
@dataclass(frozen=True)
class Point:
    """Coordinates (t, x, v) of a point of R^{n+2}."""

    t: float
    x: np.ndarray
    v: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        if not (np.isfinite(self.t) and np.isfinite(self.v) and np.all(np.isfinite(self.x))):
            raise OverflowingValueError("point has non-finite coordinates")

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.t], self.x, [self.v]))

    @staticmethod
    def from_array(a) -> "Point":
        a = np.asarray(a, dtype=float)
        return Point(float(a[0]), a[1:-1].copy(), float(a[-1]))


def coords(points, n: Optional[int] = None) -> np.ndarray:
    """The (..., n+2) float array of an array of points or of a list of
    Points (perfbench/reports.py:94-100 passes one to homothety_factor_check);
    IncompatibleProfileError if its last axis is not n + 2."""
    if isinstance(points, (list, tuple)):
        a = np.array([p.as_array() for p in points]) if points else np.empty((0, n + 2))
    else:
        a = np.asarray(points, dtype=float)
    if n is not None and a.shape[-1:] != (n + 2,):
        raise IncompatibleProfileError(f"points need {n + 2} coordinates, got shape {a.shape}")
    return a


def join(t, x, v) -> np.ndarray:
    """The points with parts t, v of shape (...) and x of shape (..., n)."""
    return np.concatenate((t[..., None], x, v[..., None]), axis=-1)


def require_finite(a: np.ndarray) -> np.ndarray:
    """The points a; OverflowingValueError if a coordinate is not finite."""
    if not np.isfinite(a).all():
        raise OverflowingValueError("point has non-finite coordinates")
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


def require_phase(profile: SymmetricProfile, t, y0, y1) -> None:
    """PreconditionError if a time, or a row of an array of times, has lost
    the phase of an eigenvector column in which its eigenbasis data y0 or
    y1 (shape (n,), or one row per time) is nonzero; the message names the
    largest such |t|."""
    t = np.abs(np.asarray(t, dtype=float))
    t_max = float(t) if t.ndim == 0 else t.max(initial=0.0)
    if t_max >= profile._phase_limit[0]:  # column 0 oscillates fastest
        lost = ((t[..., None] >= profile._phase_limit) & ((y0 != 0) | (y1 != 0))).any(axis=-1)
        if lost.any():
            t_lost = float(np.broadcast_to(t, lost.shape)[lost].max())
            raise PreconditionError(f"the phase of beta at |t| = {t_lost} is lost to round-off")


def beta_eval(beta: BetaSolution, t):
    """Evaluate (beta(t), beta'(t)) in closed form, column by column in the
    eigenbasis of S (see SymmetricProfile.flow), for a time or an array of
    times, and row by row for (..., n) data; data in a column whose phase
    its time has lost is refused."""
    p = beta.profile
    Q = p.eigenvectors
    y0 = beta.beta0 @ Q
    y1 = beta.beta1 @ Q
    require_phase(p, t, y0, y1)
    ch, sh, d0 = p.flow(t)
    return (ch * y0 + sh * y1) @ Q.T, (d0 * y0 + ch * y1) @ Q.T


def symplectic_form(beta: BetaSolution, betahat: BetaSolution) -> float:
    """omega(beta, betahat) = ((beta(0), betahat'(0)) - (beta'(0), betahat(0)))/2."""
    if beta.profile != betahat.profile:
        raise IncompatibleProfileError("symplectic form needs a common profile")
    return 0.5 * (float(beta.beta0 @ betahat.beta1) - float(beta.beta1 @ betahat.beta0))


def random_centralising_orthogonal(profile: SymmetricProfile, rng) -> np.ndarray:
    """A random element of C_O(n)(S): on each eigenspace of S a Haar block
    Q sign(diag R) from the QR factors of a Gaussian matrix (Q alone would
    always have determinant (-1)^(d-1))."""
    A = np.zeros((profile.n, profile.n))
    for blk in profile.spectrum:
        d = blk.multiplicity
        Qb, R = np.linalg.qr(rng.normal(size=(d, d)))
        A += blk.basis @ (Qb * np.sign(np.diag(R))) @ blk.basis.T
    return A
