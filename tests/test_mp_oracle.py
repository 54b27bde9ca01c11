"""Forward errors of the group law, of the orbit's points, of the
conjugation solve, of the normal form and of the fixed point against the
extended-precision oracle of mp_oracle.py, on elements with every parameter non-zero,
eps = +-1, n = 3 and A a rotation on a repeated eigenvalue of S, and on
random draws of test_group_law."""

import mpmath as mp
import numpy as np
import pytest

from cwgeom.core import BetaSolution, SymmetricProfile
from cwgeom.dynamics import (_conjugation_beta, fixed_point, normal_form,
                             orbit_obstruction_sequence)
from cwgeom.group import Homothety, apply, compose, differential, identity, inverse, power

import mp_oracle as mo
from test_group_law import element, spectral_profile

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


def _phi(kind, eps, A=A3, c=1.0, s=0.3):
    prof = SymmetricProfile(ORBIT_PROFILES[kind])
    return Homothety(prof, b=0.7, beta=BetaSolution(prof, [1.0, 0.0, 0.5], [0.0, 1.0, -0.5]),
                     c=c, eps=eps, A=A, s=s)


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
def test_differential_forward_error(kind, eps):
    """differential(phi, p) against the oracle's Jacobian of the action, by
    central differences at 70 digits, at three points, relative to the
    largest entry of the Jacobian or 1."""
    phi = _phi(kind, eps)
    e = mo.element(phi)
    for p in np.random.default_rng(1).normal(size=(3, 5)) * 2.0:
        want = mo.jacobian(e, p)
        err = np.max(np.abs(differential(phi, p) - want))
        assert err <= FORWARD_TOL * max(1.0, np.max(np.abs(want))), p


@CASES
def test_power_forward_error_up_to_k_10(kind, eps):
    """power by squaring against |k| - 1 exact products, k = +-1..+-10."""
    phi = _phi(kind, eps)
    e = mo.element(phi)
    for sign, walk in ((1, mo.powers(e, 10)), (-1, mo.powers(mo.inverse(e), 10))):
        for k, want in enumerate(walk, 1):
            assert mo.relative_error(power(phi, sign * k), want) <= FORWARD_TOL, sign * k


@pytest.mark.parametrize("kind", PROFILES)
def test_power_forward_error_on_random_draws(kind):
    """power(phi, k), k in {2, 5, 10, -10}, on test_group_law's draws: n = 3
    with a repeated eigenvalue, non-diagonal S, random A and eps, seeds
    0-11.  b is judged against the size of the terms the oracle sums for it
    (mp_oracle.b_error), the rest against the largest parameter but b,
    which grows like |beta|^2 (b of power(phi, 10) is about -1.7e3 at the
    imaginary seed 3)."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        phi = element(spectral_profile(kind, 3, rng, True), rng)
        e = mo.element(phi)
        walks = {1: mo.powers(e, 10), -1: mo.powers(mo.inverse(e), 10)}
        for k in (2, 5, 10, -10):
            got, want = power(phi, k), walks[np.sign(k)][abs(k) - 1]
            assert mo.b_error(got, want) <= FORWARD_TOL, (seed, k)
            assert mo.relative_error(got, want, with_b=False) <= FORWARD_TOL, (seed, k)


NORMAL_CASES = pytest.mark.parametrize("kind, c", [(k, c) for k in ORBIT_PROFILES
                                                   for c in (1.0, -1.0)])


@NORMAL_CASES
def test_conjugation_solve_forward_error(kind, c):
    """The solution of e^s A beta_g(t) - beta_g(t + c) = beta(t) put back
    into the equation through the oracle's flow, at t = 0, 0.5 and 1.2,
    relative to the largest entry of the initial data.  s = 0.3 is far from
    the resonances: (s/c)^2 = 0.09 against the eigenvalues 1 and 4."""
    phi = _phi(kind, 1, c=c)
    beta_g = _conjugation_beta(A3, phi.s, c, phi.beta)
    sol, rhs = mo.element(Homothety(phi.profile, beta=beta_g)), mo.element(phi)
    size = max(1.0, *(np.max(np.abs(v)) for v in (beta_g.beta0, beta_g.beta1,
                                                  phi.beta.beta0, phi.beta.beta1)))
    with mp.workdps(mo.DPS):
        for t in (0.0, 0.5, 1.2):
            t = mp.mpf(t)
            defect = (mp.exp(rhs.s) * (rhs.A * mo.flow(sol, t)[0])
                      - mo.flow(sol, t + rhs.c)[0] - mo.flow(rhs, t)[0])
            assert max(abs(float(q)) for q in defect) <= FORWARD_TOL * size, t


@NORMAL_CASES
def test_normal_form_forward_error(kind, c):
    """The oracle's g phi g^{-1}, from the returned conjugator g, is the
    returned normal (0, 0, |c|, +1, A3, 0.3), and the residual is at
    round-off."""
    phi = _phi(kind, 1, c=c)
    res = normal_form(phi)
    g = mo.element(res.conjugator)
    want = mo.compose(mo.compose(g, mo.element(phi)), mo.inverse(g))
    assert mo.relative_error(res.normal, want) <= FORWARD_TOL
    assert res.normal.c == abs(c) and res.residual <= FORWARD_TOL


@pytest.mark.parametrize("kind, eps, s", [
    pytest.param(k, e, s, id=f"{k}-{e}" if s else f"{k}-{e}-isometry")
    for k in ORBIT_PROFILES for e, s in ((1, 0.3), (-1, 0.3), (-1, 0.0))])
def test_fixed_point_forward_error(kind, eps, s):
    """The fixed point of a strict element, with eps = -1 at c = 1 or with
    eps = +1 at c = 0, and of an eps = -1 isometry at c = 1, against the
    oracle's, relative to the largest |coordinate| of the point or 1.  A3
    has no eigenvalue 1, so the isometry's e^s A - I cuts no singular value."""
    phi = _phi(kind, -1, s=s) if eps == -1 else _phi(kind, 1, c=0.0)
    rep = fixed_point(phi)
    want = mo.fixed_point(mo.element(phi))
    assert rep.exists
    assert np.max(np.abs(rep.point - want)) <= FORWARD_TOL * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("kind, eps", [(k, e) for k in ORBIT_PROFILES for e in (1, -1)])
def test_orbit_conjugates_forward_error(kind, eps):
    """Point k of orbit_obstruction_sequence, k = 1..8, against the image
    of the origin under gamma^{-1} psi gamma by oracle products from psi =
    phi, with A_gamma the rotation A3 and phi's A the reflection F3, which
    do not commute.  Each part is judged against its own terms
    (mp_oracle.image_error), as beta grows like e^{(2 c_gamma - s_gamma) k}
    on the eigenvalue 4 of the real and mixed profiles while b decays like
    e^{-2 s_gamma k}."""
    phi = _phi(kind, eps, F3)
    gamma = Homothety(phi.profile, c=0.6, s=0.4, A=A3)
    rep = orbit_obstruction_sequence(gamma, phi, K=8)
    g = mo.element(gamma)
    g_inv, want = mo.inverse(g), mo.element(phi)
    for k, row in enumerate(rep.sequence):
        want = mo.compose(g_inv, mo.compose(want, g))
        assert mo.image_error(row, want) <= FORWARD_TOL, k + 1


def test_image_error_where_the_central_terms_vanish():
    """With b = 0 and beta = 0 the origin goes to (c, 0, 0) and v has no
    terms to be relative to, so image_error judges it absolutely."""
    e = mo.element(Homothety(SymmetricProfile(-np.eye(2)), c=0.5, s=0.2))
    assert mo.image_error(np.array([0.5, 0.0, 0.0, 0.0]), e) == 0.0
    assert mo.image_error(np.array([0.5, 0.0, 0.0, 1e-3]), e) == 1e-3


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: on a real profile the b cross-term "
                   "subtracts products of two growing modes of beta, so b of power(phi, 20) "
                   "on diag(2, 3) is off by about 1e-7 of itself")
def test_power_b_at_k_20_on_a_real_profile():
    prof = SymmetricProfile(np.diag([2.0, 3.0]))
    phi = Homothety(prof, beta=BetaSolution(prof, [1.0, 0.0], [0.0, 1.0]), c=1.0, s=0.3)
    want = float(mo.power(mo.element(phi), 20).b)
    assert abs(power(phi, 20).b - want) <= FORWARD_TOL * abs(want)
