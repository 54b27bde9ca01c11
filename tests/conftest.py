"""Shared helpers for the test suite: random profiles, centraliser
elements and group elements."""

import numpy as np
import pytest

from cwgeom.core import BetaSolution, SymmetricProfile
from cwgeom.group import Homothety


def random_profile(rng, n=None, norm_cap=4.0):
    """A random symmetric profile with operator norm at most norm_cap."""
    if n is None:
        n = int(rng.integers(1, 6))
    M = rng.normal(size=(n, n))
    S = 0.5 * (M + M.T)
    nrm = np.linalg.norm(S, 2)
    if nrm > norm_cap:
        S *= norm_cap / nrm
    return SymmetricProfile(S)


def eigenspaces(profile: SymmetricProfile):
    """(eigenvalue, orthonormal basis as columns) for each eigenspace of S,
    in ascending order: the eigenvector columns sharing one value of
    profile.eigenvalues."""
    w = profile.eigenvalues
    return [(ev, profile.eigenvectors[:, w == ev]) for ev in np.unique(w)]


def random_centralising_orthogonal(profile: SymmetricProfile, rng) -> np.ndarray:
    """A random element of C_O(n)(S): on each eigenspace of S a Haar block
    Q sign(diag R) from the QR factors of a Gaussian matrix (Q alone would
    always have determinant (-1)^(d-1))."""
    A = np.zeros((profile.n, profile.n))
    for _, basis in eigenspaces(profile):
        d = basis.shape[1]
        Qb, R = np.linalg.qr(rng.normal(size=(d, d)))
        A += basis @ (Qb * np.sign(np.diag(R))) @ basis.T
    return A


def haar_orthogonal(rng, n) -> np.ndarray:
    """A Haar-random element of O(n): Q sign(diag R) from the QR factors of
    a Gaussian matrix."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def in_frame(phi, O):
    """phi = (b, beta, c, eps, A, s) over S, written in the frame O of R^n:
    (b, O beta, c, eps, O A O^T, s) over O S O^T."""
    prof = SymmetricProfile(O @ phi.profile.S @ O.T)
    beta = BetaSolution(prof, O @ phi.beta.beta0, O @ phi.beta.beta1)
    return Homothety(prof, b=phi.b, beta=beta, c=phi.c, eps=phi.eps, A=O @ phi.A @ O.T,
                     s=phi.s)


def random_homothety(prof, rng, strict=None, eps=None, c=None):
    """A random group element; strict=True forces s away from zero."""
    s = float(rng.uniform(0.2, 1.0) * rng.choice([-1, 1])) if strict \
        else float(rng.normal(scale=0.5))
    if strict is False:
        s = 0.0
    return Homothety(
        prof,
        b=float(rng.normal()),
        beta=BetaSolution(prof, rng.normal(size=prof.n), rng.normal(size=prof.n)),
        c=float(rng.normal()) if c is None else float(c),
        eps=int(rng.choice([-1, 1])) if eps is None else int(eps),
        A=random_centralising_orthogonal(prof, rng),
        s=s,
    )


def random_point(rng, n, scale=1.0):
    """A random point (t, x, v) as an (n+2,) array."""
    return rng.normal(size=n + 2) * scale


@pytest.fixture
def rng():
    return np.random.default_rng(42)
