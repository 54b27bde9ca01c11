"""Foundational types: the defining symmetric matrix with its spectral data,
points and tangent vectors of R^{n+2}, closed-form solutions of the linear
ODE system beta'' = S beta, and the symplectic form on its solution space.

Coordinate convention throughout the package: a point of R^{n+2} is
(t, x^1..x^n, v) with frame order (d_t, d_1..d_n, d_v).
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

DEFAULT_TOL = 1e-9


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

    S is stored dense; eigenvalues within ``tolerance`` of each other are
    grouped into a single spectral block, and eigenvalues within
    ``zero_threshold`` = tolerance * max(1, max |eigenvalue|) of zero are
    treated as exactly zero, here and in ``classify``.  A finite S whose
    symmetrisation, trace or eigenvalues overflow is rejected with an
    OverflowingValueError.
    """

    def __init__(self, S, tolerance: float = DEFAULT_TOL):
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
            self.S = 0.5 * (S + S.T)
            if not np.all(np.isfinite(self.S)):
                raise OverflowingValueError("S overflows when symmetrised")
            if not np.isfinite(np.trace(self.S)):
                raise OverflowingValueError("the trace of S overflows")
            self.tolerance = float(tolerance)
            w, Q = np.linalg.eigh(self.S)
            if not np.all(np.isfinite(w)):
                raise OverflowingValueError("the eigenvalues of S overflow")
        self.eigenvalues = w
        self.eigenvectors = Q  # columns
        self.zero_threshold = self.tolerance * max(1.0, float(np.max(np.abs(w))))
        self.spectrum = self._group_spectrum(w, Q)
        self._branches = self._column_branches()

    def _group_spectrum(self, w, Q):
        blocks = []
        i = 0
        while i < self.n:
            j = i + 1
            while j < self.n and abs(w[j] - w[i]) <= 10 * self.zero_threshold:
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
        slice of columns with sqrt|eigenvalue|, its even and odd function
        and the sign of the derivative of the even one.  Zero columns are
        in no branch (the affine solution)."""
        lam = np.repeat([b.eigenvalue for b in self.spectrum],
                        [b.multiplicity for b in self.spectrum])
        # an ulp of the phase r t of a column with eigenvalue -r^2 is a radian
        # from |t| = 2^52 / r on: beta_eval refuses data there
        r = np.sqrt(np.maximum(-lam, 0.0))
        self._phase_limit = np.divide(2.0 ** 52, r, out=np.full(self.n, np.inf), where=r > 0)
        neg = slice(0, int(np.sum(lam < 0)))
        pos = slice(self.n - int(np.sum(lam > 0)), self.n)
        return [(sl, np.sqrt(np.abs(lam[sl])), even, odd, sign)
                for sl, even, odd, sign in ((neg, np.cos, np.sin, -1.0),
                                            (pos, np.cosh, np.sinh, 1.0))
                if sl.start < sl.stop]

    def flow(self, t: float):
        """Per eigenvector column, the closed-form flow (ch, sh, d0) of
        beta'' = S beta over time t: in the eigenbasis y = Q^T beta,
        y(t) = ch y(0) + sh y'(0) and y'(t) = d0 y(0) + ch y'(0), with
        (ch, sh, d0) = (cosh, sinh/r, r sinh)(r t) for a positive eigenvalue
        r^2, (cos, sin/r, -r sin)(r t) for a negative one -r^2, and
        (1, t, 0) for a zero one."""
        ch = np.ones(self.n)
        sh = np.full(self.n, float(t))
        d0 = np.zeros(self.n)
        for cols, r, even, odd, sign in self._branches:
            rt = r * t
            ch[cols] = even(rt)
            o = odd(rt)
            sh[cols] = o / r
            d0[cols] = sign * r * o
        return ch, sh, d0

    def reassemble(self) -> np.ndarray:
        """Rebuild S from the spectral blocks (round-trip check)."""
        out = np.zeros((self.n, self.n))
        for b in self.spectrum:
            out += b.eigenvalue * (b.basis @ b.basis.T)
        return out

    def in_centraliser(self, A) -> bool:
        """Whether A is orthogonal and commutes with S, within tolerance."""
        A = np.asarray(A, dtype=float)
        if A.shape != (self.n, self.n):
            return False
        tol = self.tolerance * max(1.0, float(np.max(np.abs(self.S))))
        ortho = float(np.max(np.abs(A.T @ A - np.eye(self.n)))) <= self.tolerance * 10
        commutes = float(np.max(np.abs(A @ self.S - self.S @ A))) <= tol * 10
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
            and np.allclose(self.S, other.S, atol=10 * self.tolerance)
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
    zero = profile.zero_threshold
    near_zero = np.abs(w) <= zero
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
    flat = float(np.max(np.abs(profile.S - mean * np.eye(profile.n)))) <= zero * 10
    positive = w[w > zero]
    lam = float(np.max(positive)) if positive.size else None
    return Classification(kind, invertible, flat, lam)


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

    def __sub__(self, other: "Point") -> np.ndarray:
        return self.as_array() - other.as_array()


@dataclass(frozen=True)
class TangentVector:
    """Components of a tangent vector in the coordinate frame."""

    dt: float
    dx: np.ndarray
    dv: float

    def __post_init__(self):
        object.__setattr__(self, "dx", np.atleast_1d(np.asarray(self.dx, dtype=float)))

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.dt], self.dx, [self.dv]))

    @staticmethod
    def from_array(a) -> "TangentVector":
        a = np.asarray(a, dtype=float)
        return TangentVector(float(a[0]), a[1:-1].copy(), float(a[-1]))


@dataclass(frozen=True)
class BetaSolution:
    """A solution of beta'' = S beta, stored as initial data
    (beta(0), beta'(0)) and evaluated in closed form per eigenvalue sign."""

    profile: SymmetricProfile
    beta0: np.ndarray = field(default=None)
    beta1: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.profile.n
        b0 = np.zeros(n) if self.beta0 is None else np.atleast_1d(np.asarray(self.beta0, float))
        b1 = np.zeros(n) if self.beta1 is None else np.atleast_1d(np.asarray(self.beta1, float))
        if b0.shape != (n,) or b1.shape != (n,):
            raise IncompatibleProfileError("initial data dimension does not match profile")
        object.__setattr__(self, "beta0", b0)
        object.__setattr__(self, "beta1", b1)

    def is_zero(self, tol: float = None) -> bool:
        tol = self.profile.tolerance if tol is None else tol
        return float(np.max(np.abs(self.beta0))) <= tol and float(np.max(np.abs(self.beta1))) <= tol

    def __call__(self, t: float):
        return beta_eval(self, t)


def beta_eval(beta: BetaSolution, t: float):
    """Evaluate (beta(t), beta'(t)) in closed form, column by column in the
    eigenbasis of S (see SymmetricProfile.flow), refusing lost phases."""
    p = beta.profile
    Q = p.eigenvectors
    y0 = beta.beta0 @ Q
    y1 = beta.beta1 @ Q
    if abs(t) >= p._phase_limit[0]:  # column 0 oscillates fastest
        lost = abs(t) >= p._phase_limit
        if y0[lost].any() or y1[lost].any():
            raise PreconditionError(f"the phase of beta at t = {t} is lost to round-off")
    ch, sh, d0 = p.flow(t)
    return Q @ (ch * y0 + sh * y1), Q @ (d0 * y0 + ch * y1)


def symplectic_form(beta: BetaSolution, betahat: BetaSolution) -> float:
    """omega(beta, betahat) = ((beta(0), betahat'(0)) - (beta'(0), betahat(0)))/2."""
    if beta.profile != betahat.profile:
        raise IncompatibleProfileError("symplectic form needs a common profile")
    return 0.5 * (float(beta.beta0 @ betahat.beta1) - float(beta.beta1 @ betahat.beta0))


def beta_reparam(beta: BetaSolution, c: float, eps: int, A=None) -> BetaSolution:
    """The solution t -> A beta(eps*t + c), re-expressed by its initial data.

    A must lie in the centraliser of S in O(n); eps is +-1.
    """
    p = beta.profile
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if A is None:
        A = np.eye(p.n)
    else:
        A = p.require_centraliser(A)
    val, der = beta_eval(beta, c)
    return BetaSolution(p, A @ val, eps * (A @ der))


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
