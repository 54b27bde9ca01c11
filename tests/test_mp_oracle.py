"""Forward errors of the group law, and of the orbit conjugates, against
the extended-precision oracle of mp_oracle.py, on elements with every
parameter non-zero, eps = +-1, n = 3 and A a rotation on a repeated
eigenvalue of S."""

import numpy as np
import pytest

from cwgeom.core import BetaSolution, SymmetricProfile
from cwgeom.dynamics import orbit_obstruction_sequence
from cwgeom.group import Homothety, _take, apply, compose, identity, inverse, power

import mp_oracle as mo

# the largest forward error relative to the largest parameter, where the
# group law's round trip is at round-off
FORWARD_TOL = 1e-13

_TH = 0.7
# a rotation on the eigenspace of the repeated eigenvalue -1, and -1 on the third axis
A3 = np.array([[np.cos(_TH), -np.sin(_TH), 0.0], [np.sin(_TH), np.cos(_TH), 0.0],
               [0.0, 0.0, -1.0]])
PROFILES = {"imaginary": np.diag([-1.0, -1.0, -4.0]), "degenerate": np.diag([-1.0, -1.0, 0.0])}
CASES = pytest.mark.parametrize("kind, eps", [(k, e) for k in PROFILES for e in (1, -1)])
# a reflection of the eigenspace that A3 turns, which does not commute with A3
F3 = np.array([[np.cos(0.4), np.sin(0.4), 0.0], [np.sin(0.4), -np.cos(0.4), 0.0],
               [0.0, 0.0, 1.0]])
# the four profile types, each with the repeated eigenvalue that A3 turns
ORBIT_PROFILES = {**PROFILES, "real": np.diag([1.0, 1.0, 4.0]),
                  "mixed": np.diag([1.0, 1.0, -4.0])}


def _phi(kind, eps, A=A3):
    prof = SymmetricProfile(ORBIT_PROFILES[kind])
    return Homothety(prof, b=0.7, beta=BetaSolution(prof, [1.0, 0.0, 0.5], [0.0, 1.0, -0.5]),
                     c=1.0, eps=eps, A=A, s=0.3)


@CASES
def test_oracle_product_with_its_inverse_is_the_identity(kind, eps):
    """The oracle checked against itself, far below float64 round-off."""
    phi = _phi(kind, eps)
    e = mo.element(phi)
    assert mo.relative_error(identity(phi.profile), mo.compose(e, mo.inverse(e))) <= 1e-50


@CASES
def test_compose_inverse_and_apply_forward_error(kind, eps):
    phi, psi = _phi(kind, eps), _phi(kind, -eps, A3.T)
    e, f = mo.element(phi), mo.element(psi)
    assert mo.relative_error(compose(phi, psi), mo.compose(e, f)) <= FORWARD_TOL
    assert mo.relative_error(inverse(phi), mo.inverse(e)) <= FORWARD_TOL
    for p in np.random.default_rng(0).normal(size=(3, 5)) * 2.0:
        want = mo.apply(e, p)
        assert np.max(np.abs(apply(phi, p) - want)) <= FORWARD_TOL * max(1.0, np.max(np.abs(want)))


@CASES
def test_power_forward_error_up_to_k_10(kind, eps):
    """power by squaring against |k| - 1 exact products, k = +-1..+-10."""
    phi = _phi(kind, eps)
    e = mo.element(phi)
    for sign, walk in ((1, mo.powers(e, 10)), (-1, mo.powers(mo.inverse(e), 10))):
        for k, want in enumerate(walk, 1):
            assert mo.relative_error(power(phi, sign * k), want) <= FORWARD_TOL, sign * k


@pytest.mark.parametrize("kind, eps", [(k, e) for k in ORBIT_PROFILES for e in (1, -1)])
def test_orbit_conjugates_forward_error(kind, eps):
    """Conjugate k of orbit_obstruction_sequence, k = 1..8, against
    gamma^{-1} psi gamma by oracle products from psi = phi, with A_gamma
    the rotation A3 and phi's A the reflection F3, which do not commute.
    The parameters are judged against the largest one, as beta grows like
    e^{(2 c_gamma - s_gamma) k} on the eigenvalue 4 of the real and mixed
    profiles, and b also against the size of the terms the oracle sums for
    it (mp_oracle.b_error), however small b is.  Not against b alone: b
    decays like e^{-2 s_gamma k}, and the oracle's b of the real profile
    is off by 4.3e-13 of itself at k = 8, the round-off of A3's
    orthogonality times |<beta', beta>| / 2."""
    phi = _phi(kind, eps, F3)
    gamma = Homothety(phi.profile, c=0.6, s=0.4, A=A3)
    rep = orbit_obstruction_sequence(gamma, phi, K=8)
    g = mo.element(gamma)
    g_inv, want = mo.inverse(g), mo.element(phi)
    for k in range(8):
        want = mo.compose(g_inv, mo.compose(want, g))
        got = _take(rep.conjugates, k)
        assert mo.relative_error(got, want) <= FORWARD_TOL, k + 1
        assert mo.b_error(got, want) <= FORWARD_TOL, k + 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: on a real profile the b cross-term "
                   "subtracts products of two growing modes of beta, so b of power(phi, 20) "
                   "on diag(2, 3) is off by about 1e-7 of itself")
def test_power_b_at_k_20_on_a_real_profile():
    prof = SymmetricProfile(np.diag([2.0, 3.0]))
    phi = Homothety(prof, beta=BetaSolution(prof, [1.0, 0.0], [0.0, 1.0]), c=1.0, s=0.3)
    want = float(mo.power(mo.element(phi), 20).b)
    assert abs(power(phi, 20).b - want) <= FORWARD_TOL * abs(want)
