"""The spectral-coordinate group law: closed-form beta against the
per-block reference, the product and inverse against pointwise action,
and what each group operation costs in calls to the layer below."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwgeom.group as grp
from cwgeom.core import (
    BetaSolution,
    SymmetricProfile,
    beta_eval,
    classify,
    random_centralising_orthogonal,
)
from cwgeom.errors import OverflowingValueError
from cwgeom.group import Homothety, apply, compose, identity, inverse, power

KINDS = ("real", "imaginary", "mixed", "degenerate")


def block_loop_beta_eval(beta, t):
    """Reference: one closed form per spectral block, summed block by block."""
    p = beta.profile
    value = np.zeros(p.n)
    deriv = np.zeros(p.n)
    for blk in p.spectrum:
        Q = blk.basis
        y0 = Q.T @ beta.beta0
        y1 = Q.T @ beta.beta1
        ev = blk.eigenvalue
        if ev > 0:
            lam = np.sqrt(ev)
            y = y0 * np.cosh(lam * t) + (y1 / lam) * np.sinh(lam * t)
            yd = y0 * lam * np.sinh(lam * t) + y1 * np.cosh(lam * t)
        elif ev < 0:
            mu = np.sqrt(-ev)
            y = y0 * np.cos(mu * t) + (y1 / mu) * np.sin(mu * t)
            yd = -y0 * mu * np.sin(mu * t) + y1 * np.cos(mu * t)
        else:
            y = y0 + y1 * t
            yd = y1
        value += Q @ y
        deriv += Q @ yd
    return value, deriv


def spectral_profile(kind, n, rng, repeat):
    """S = Q diag(w) Q^T with eigenvalue signs of the given type, |w| in
    [0.25, 2.25], and w[1] = w[0] (a repeated eigenvalue) if repeat."""
    if kind == "mixed":
        n = max(n, 2)
    mags = rng.uniform(0.25, 2.25, size=n)
    signs = {"real": np.ones(n), "imaginary": -np.ones(n),
             "mixed": np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
             "degenerate": rng.choice([-1.0, 1.0], size=n)}[kind]
    w = signs * mags
    if kind == "degenerate":
        w[-1] = 0.0
    if repeat and n >= 2:
        w[1] = w[0]
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return SymmetricProfile(Q @ np.diag(w) @ Q.T)


def element(prof, rng):
    return Homothety(prof, b=float(rng.uniform(-2, 2)),
                     beta=BetaSolution(prof, rng.uniform(-2, 2, prof.n),
                                       rng.uniform(-2, 2, prof.n)),
                     c=float(rng.uniform(-1.5, 1.5)), eps=int(rng.choice([-1, 1])),
                     A=random_centralising_orthogonal(prof, rng),
                     s=float(rng.uniform(-1, 1)))


def scale(prof, *elements, t=0.0):
    """Size of the parameters: the largest |parameter| (e^|s| for s), times
    the largest growth factor of beta over the times the law evaluates it
    at.  The v-part is quadratic in the parameters, so errors are judged
    against scale^2."""
    r = math.sqrt(float(np.max(np.abs(prof.eigenvalues))))
    reach = abs(t) + sum(abs(e.c) for e in elements)
    size = max([1.0] + [max(abs(e.b), float(np.max(np.abs(e.beta.beta0))),
                            float(np.max(np.abs(e.beta.beta1))), abs(e.c),
                            math.exp(abs(e.s))) for e in elements])
    return len(elements) * size * (1 + r) * (1 + reach) * math.cosh(r * reach)


profiles = st.builds(
    lambda kind, n, seed, repeat: spectral_profile(kind, n, np.random.default_rng(seed), repeat),
    st.sampled_from(KINDS), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())


class TestProfiles:
    @pytest.mark.parametrize("kind", KINDS)
    def test_generator_gives_each_type(self, kind):
        prof = spectral_profile(kind, 4, np.random.default_rng(0), True)
        assert classify(prof).type == kind
        assert prof.spectrum[0].multiplicity == 2 or prof.spectrum[-1].multiplicity == 2


@settings(max_examples=200, deadline=None)
@given(prof=profiles, seed=st.integers(0, 2**32 - 1), t=st.floats(-3.0, 3.0))
def test_beta_eval_matches_block_loop(prof, seed, t):
    rng = np.random.default_rng(seed)
    beta = BetaSolution(prof, rng.uniform(-2, 2, prof.n), rng.uniform(-2, 2, prof.n))
    val, der = beta_eval(beta, t)
    ref_val, ref_der = block_loop_beta_eval(beta, t)
    r = math.sqrt(float(np.max(np.abs(prof.eigenvalues))))
    tol = 1e-14 * prof.n * (1 + r) * (1 + abs(t)) * math.cosh(r * t)
    assert np.max(np.abs(val - ref_val)) <= tol
    assert np.max(np.abs(der - ref_der)) <= tol


@settings(max_examples=200, deadline=None)
@given(prof=profiles, seed=st.integers(0, 2**32 - 1))
def test_compose_acts_as_pointwise_composition(prof, seed):
    rng = np.random.default_rng(seed)
    phi, psi = element(prof, rng), element(prof, rng)
    p = rng.uniform(-2, 2, prof.n + 2)
    err = np.max(np.abs(apply(compose(phi, psi), p) - apply(phi, apply(psi, p))))
    assert err <= 1e-14 * scale(prof, phi, psi, t=p[0]) ** 2


@settings(max_examples=200, deadline=None)
@given(prof=profiles, seed=st.integers(0, 2**32 - 1))
def test_inverse_undoes_the_element(prof, seed):
    rng = np.random.default_rng(seed)
    phi = element(prof, rng)
    p = rng.uniform(-2, 2, prof.n + 2)
    inv = inverse(phi)
    size = scale(prof, phi, phi, t=p[0]) ** 2
    assert np.max(np.abs(apply(inv, apply(phi, p)) - p)) <= 1e-14 * size
    for prod in (compose(phi, inv), compose(inv, phi)):
        assert grp.element_distance(prod, identity(prof)) <= 1e-14 * size


class TestOverflow:
    """A product or inverse whose central parameter overflows raises, as
    a point with a non-finite coordinate does."""

    prof = SymmetricProfile([[1.0]])

    def test_compose(self):
        with np.errstate(over="ignore"), pytest.raises(OverflowingValueError):
            compose(Homothety(self.prof, s=354.0), Homothety(self.prof, b=100.0))

    def test_inverse(self):
        with np.errstate(over="ignore"), pytest.raises(OverflowingValueError):
            inverse(Homothety(self.prof, b=100.0, s=-354.0))


def counter(monkeypatch, owner, name):
    """Count the calls of owner.name for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestCost:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(7)
        prof = spectral_profile("mixed", 4, rng, True)
        return element(prof, rng), element(prof, rng)

    def test_compose_and_inverse_evaluate_beta_once(self, pair, monkeypatch):
        phi, psi = pair
        calls = counter(monkeypatch, grp, "beta_eval")
        compose(phi, psi)
        assert len(calls) == 1
        inverse(phi)
        assert len(calls) == 2

    def test_internal_products_skip_the_centraliser_check(self, pair, monkeypatch):
        phi, psi = pair
        calls = counter(monkeypatch, SymmetricProfile, "in_centraliser")
        compose(phi, psi)
        inverse(phi)
        power(phi, -7)
        assert calls == []
        # the public constructor still checks
        Homothety(phi.profile, A=phi.A)
        assert len(calls) == 1

    def test_renormalized_skips_the_centraliser_check(self, pair, monkeypatch):
        phi, _ = pair
        drifted = Homothety(phi.profile, A=phi.A * (1 + 2e-9))
        calls = counter(monkeypatch, SymmetricProfile, "in_centraliser")
        fixed = drifted.renormalized()
        assert calls == []
        assert np.max(np.abs(fixed.A.T @ fixed.A - np.eye(phi.profile.n))) <= 1e-12

    def test_power_squares(self, monkeypatch):
        # imaginary type and a small s, so that phi^1000 stays finite
        rng = np.random.default_rng(8)
        prof = spectral_profile("imaginary", 3, rng, False)
        phi = Homothety(prof, b=1.0, beta=BetaSolution(prof, rng.normal(size=3)),
                        c=0.5, s=1e-3)
        calls = counter(monkeypatch, grp, "compose")
        power(phi, 1000)
        assert len(calls) <= 2 * math.ceil(math.log2(1000))
