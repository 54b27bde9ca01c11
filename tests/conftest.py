"""Shared helpers for the test suite: random profiles and group elements."""

import numpy as np
import pytest

from cwgeom.core import (
    BetaSolution,
    SymmetricProfile,
    random_centralising_orthogonal,
)
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
