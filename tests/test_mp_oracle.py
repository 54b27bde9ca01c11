"""Forward errors of the group law against the extended-precision oracle
of mp_oracle.py, on elements with every parameter non-zero, eps = +-1,
n = 3 and A a rotation on a repeated eigenvalue of S."""

import numpy as np
import pytest

from cwgeom.core import BetaSolution, SymmetricProfile
from cwgeom.group import Homothety, apply, compose, identity, inverse, power

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


def _phi(kind, eps, A=A3):
    prof = SymmetricProfile(PROFILES[kind])
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: on a real profile the b cross-term "
                   "subtracts products of two growing modes of beta, so b of power(phi, 20) "
                   "on diag(2, 3) is off by about 1e-7 of itself")
def test_power_b_at_k_20_on_a_real_profile():
    prof = SymmetricProfile(np.diag([2.0, 3.0]))
    phi = Homothety(prof, beta=BetaSolution(prof, [1.0, 0.0], [0.0, 1.0]), c=1.0, s=0.3)
    want = float(mo.power(mo.element(phi), 20).b)
    assert abs(power(phi, 20).b - want) <= FORWARD_TOL * abs(want)
