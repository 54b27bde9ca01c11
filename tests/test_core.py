"""Foundational types: spectral data, beta solutions, symplectic form."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cwgeom.core import (
    BetaSolution,
    Point,
    SymmetricProfile,
    beta_eval,
    classify,
    random_centralising_orthogonal,
    symplectic_form,
)
from cwgeom.errors import (
    CentraliserViolationError,
    IncompatibleProfileError,
    MalformedProfileError,
    PreconditionError,
)

from cwgeom.dynamics import solve_conjugation_beta
from cwgeom.group import Homothety, compose

from conftest import random_profile


def reparam(beta, c, eps, A):
    """t -> A beta(eps t + c): the beta-part of h_A (h_beta tau_{c, eps}),
    with h_A the rotation, h_beta the Heisenberg element and tau the t-map."""
    prof = beta.profile
    return compose(Homothety(prof, A=A), compose(Homothety(prof, beta=beta),
                                                 Homothety(prof, c=c, eps=eps))).beta


class TestSymmetricProfile:
    def test_spectral_round_trip(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            # S rebuilt from the spectral blocks
            rebuilt = sum(b.eigenvalue * (b.basis @ b.basis.T) for b in prof.spectrum)
            assert np.max(np.abs(rebuilt - prof.S)) <= 1e-9
            assert sum(b.multiplicity for b in prof.spectrum) == prof.n

    def test_repeated_eigenvalues_grouped(self):
        prof = SymmetricProfile(np.diag([2.0, 2.0, -1.0]))
        assert len(prof.spectrum) == 2
        mults = sorted(b.multiplicity for b in prof.spectrum)
        assert mults == [1, 2]

    def test_rejects_nonsquare(self):
        with pytest.raises(MalformedProfileError):
            SymmetricProfile(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(MalformedProfileError):
            SymmetricProfile(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(MalformedProfileError):
            SymmetricProfile(np.array([[np.nan]]))

    def test_centraliser_membership(self, rng):
        prof = SymmetricProfile(np.diag([1.0, 1.0, -2.0]))
        A = random_centralising_orthogonal(prof, rng)
        assert prof.in_centraliser(A)
        # a generic rotation mixing distinct eigenspaces fails
        th = 0.4
        B = np.eye(3)
        B[1:, 1:] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        assert not prof.in_centraliser(B)
        with pytest.raises(CentraliserViolationError):
            prof.require_centraliser(B)
        # non-orthogonal matrices fail even if they commute
        assert not prof.in_centraliser(2.0 * np.eye(3))

    def test_equality_is_judged_on_the_scale_of_S(self):
        # no relative slack: 5e-6 apart is a different profile
        assert SymmetricProfile([[1.0]]) != SymmetricProfile([[1.000005]])
        assert SymmetricProfile([[1.0]]) == SymmetricProfile([[1.0 + 1e-12]])
        # the absolute bound is 10 tolerance max(1, max |S|)
        assert SymmetricProfile([[1e6]]) == SymmetricProfile([[1e6 + 1e-4]])
        assert SymmetricProfile([[1e6]]) != SymmetricProfile([[1e6 + 1.0]])


class TestClassify:
    def test_pinned_types(self):
        assert classify(SymmetricProfile(np.eye(2))).type == "real"
        assert classify(SymmetricProfile(-np.eye(2))).type == "imaginary"
        assert classify(SymmetricProfile(np.diag([1.0, -1.0]))).type == "mixed"
        assert classify(SymmetricProfile(np.diag([1.0, 0.0]))).type == "degenerate"

    def test_invertibility_and_flatness(self):
        c = classify(SymmetricProfile(np.diag([3.0, 3.0])))
        assert c.invertible and c.conformally_flat
        assert c.lambda_max_sq == pytest.approx(3.0)
        c = classify(SymmetricProfile(np.diag([3.0, 1.0])))
        assert c.invertible and not c.conformally_flat
        c = classify(SymmetricProfile(np.diag([0.0, 1.0])))
        assert not c.invertible

    def test_imaginary_has_no_lambda(self):
        assert classify(SymmetricProfile(-np.eye(3))).lambda_max_sq is None

    def test_zero_threshold_is_relative(self):
        # |5e-9| <= 1e-9 * max(1, 10): numerically zero for classify and
        # for beta_eval alike
        prof = SymmetricProfile(np.diag([5e-9, 10.0]))
        assert classify(prof).type == "degenerate"
        assert [b.eigenvalue for b in prof.spectrum] == [0.0, 10.0]
        beta = BetaSolution(prof, [1.0, 0.0], [2.0, 0.0])
        for t in (-3.0, 0.5, 40.0):
            val, der = beta_eval(beta, t)
            assert val[0] == 1.0 + 2.0 * t and der[0] == 2.0
            assert val[1] == 0.0 and der[1] == 0.0


class TestPoint:
    def test_array_round_trip(self, rng):
        p = Point(0.3, rng.normal(size=4), -1.2)
        q = Point.from_array(p.as_array())
        assert np.max(np.abs(q.as_array() - p.as_array())) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Point(np.inf, np.zeros(2), 0.0)


class TestBetaSolution:
    def _ode_reference(self, prof, b0, b1, ts):
        """Dense solution through the initial data at t = 0, integrated
        forward and backward separately."""
        n = prof.n

        def rhs(t, y):
            return np.concatenate([y[n:], prof.S @ y[:n]])

        y0 = np.concatenate([b0, b1])
        fwd = solve_ivp(rhs, (0.0, max(1e-6, ts.max())), y0,
                        dense_output=True, rtol=1e-11, atol=1e-11)
        bwd = solve_ivp(rhs, (0.0, min(-1e-6, ts.min())), y0,
                        dense_output=True, rtol=1e-11, atol=1e-11)

        def ref(t):
            return fwd.sol(t) if t >= 0 else bwd.sol(t)

        return ref

    def test_closed_form_matches_ode_integration(self, rng):
        # independent oracle: high-accuracy numerical integration of
        # beta'' = S beta on |t| <= 5 for profiles of every spectral type
        for S in (np.diag([4.0, 1.0]), -np.eye(2), np.diag([2.5, -1.5, 0.0]),
                  random_profile(rng, 3).S, random_profile(rng, 1).S):
            prof = SymmetricProfile(S)
            beta = BetaSolution(prof, rng.normal(size=prof.n),
                                rng.normal(size=prof.n))
            ts = np.linspace(-5.0, 5.0, 21)
            ref = self._ode_reference(prof, beta.beta0, beta.beta1, ts)
            for t in ts:
                val, der = beta_eval(beta, t)
                y = ref(t)
                scale = max(1.0, float(np.max(np.abs(y))))
                assert np.max(np.abs(val - y[:prof.n])) <= 1e-7 * scale
                assert np.max(np.abs(der - y[prof.n:])) <= 1e-7 * scale

    def test_initial_data(self, rng):
        prof = random_profile(rng, 3)
        b0, b1 = rng.normal(size=3), rng.normal(size=3)
        beta = BetaSolution(prof, b0, b1)
        val, der = beta_eval(beta, 0.0)
        assert np.max(np.abs(val - b0)) <= 1e-12
        assert np.max(np.abs(der - b1)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        prof = random_profile(rng, 2)
        with pytest.raises(IncompatibleProfileError):
            BetaSolution(prof, np.zeros(3), np.zeros(3))

    def test_is_zero(self, rng):
        prof = random_profile(rng, 2)
        assert BetaSolution(prof).is_zero()
        assert not BetaSolution(prof, [1.0, 0.0], None).is_zero()

    def test_linearity_helpers(self, rng):
        prof = random_profile(rng, 3)
        a = BetaSolution(prof, rng.normal(size=3), rng.normal(size=3))
        b = BetaSolution(prof, rng.normal(size=3), rng.normal(size=3))
        A = random_centralising_orthogonal(prof, rng)
        for t in (-1.3, 0.0, 0.8):
            va, _ = beta_eval(a, t)
            vb, _ = beta_eval(b, t)
            vs, _ = beta_eval(BetaSolution(prof, a.beta0 + b.beta0, a.beta1 + b.beta1), t)
            assert np.max(np.abs(vs - va - vb)) <= 1e-10
            vscaled, _ = beta_eval(BetaSolution(prof, 2.5 * (A @ a.beta0), 2.5 * (A @ a.beta1)), t)
            assert np.max(np.abs(vscaled - 2.5 * (A @ va))) <= 1e-9

    def test_reparam_pointwise(self, rng):
        # the beta-part of a product represents t -> A beta(eps t + c) exactly
        prof = random_profile(rng, 3)
        beta = BetaSolution(prof, rng.normal(size=3), rng.normal(size=3))
        A = random_centralising_orthogonal(prof, rng)
        for eps in (1, -1):
            for c in (-0.7, 0.0, 1.9):
                rep = reparam(beta, c, eps, A)
                for t in (-2.0, 0.3, 1.1):
                    lhs, _ = beta_eval(rep, t)
                    rhs, _ = beta_eval(beta, eps * t + c)
                    assert np.max(np.abs(lhs - A @ rhs)) <= 1e-8


class TestSymplecticForm:
    def test_antisymmetry_and_bilinearity(self, rng):
        prof = random_profile(rng, 3)
        a = BetaSolution(prof, rng.normal(size=3), rng.normal(size=3))
        b = BetaSolution(prof, rng.normal(size=3), rng.normal(size=3))
        assert symplectic_form(a, b) == pytest.approx(-symplectic_form(b, a))
        assert symplectic_form(BetaSolution(prof, 2 * a.beta0, 2 * a.beta1), b) == pytest.approx(
            2 * symplectic_form(a, b))

    def test_wronskian_constancy(self, rng):
        # omega equals the Wronskian pairing (<a(t), b'(t)> - <a'(t), b(t)>)/2
        # at every time, not just t = 0
        for _ in range(5):
            prof = random_profile(rng)
            n = prof.n
            a = BetaSolution(prof, rng.normal(size=n), rng.normal(size=n))
            b = BetaSolution(prof, rng.normal(size=n), rng.normal(size=n))
            w0 = symplectic_form(a, b)
            for t in (-2.1, 0.4, 3.3):
                va, da = beta_eval(a, t)
                vb, db = beta_eval(b, t)
                wt = 0.5 * (float(va @ db) - float(da @ vb))
                assert abs(wt - w0) <= 1e-8

    def test_shift_invariance(self, rng):
        # reparametrisation by (c, eps, A) scales omega by eps
        prof = random_profile(rng, 4)
        n = prof.n
        a = BetaSolution(prof, rng.normal(size=n), rng.normal(size=n))
        b = BetaSolution(prof, rng.normal(size=n), rng.normal(size=n))
        A = random_centralising_orthogonal(prof, rng)
        w0 = symplectic_form(a, b)
        for eps in (1, -1):
            wa = symplectic_form(reparam(a, 0.9, eps, A), reparam(b, 0.9, eps, A))
            assert abs(wa - eps * w0) <= 1e-9

    def test_profile_mismatch(self, rng):
        pa, pb = random_profile(rng, 2), random_profile(rng, 2)
        assert pa != pb
        with pytest.raises(IncompatibleProfileError):
            symplectic_form(BetaSolution(pa), BetaSolution(pb))


def test_random_centralising_orthogonal_draws_all_of_O_d(rng):
    """Both components of O(d) appear on every eigenspace: a simple
    eigenvalue gets both signs and a 2-dimensional eigenspace both
    determinants, in 200 draws."""
    prof = SymmetricProfile(np.diag([-1.0, 2.0, 2.0]))
    signs, dets = set(), set()
    for _ in range(200):
        A = random_centralising_orthogonal(prof, rng)
        assert prof.in_centraliser(A)
        assert np.max(np.abs(A[0, 1:])) == 0.0 and np.max(np.abs(A[1:, 0])) == 0.0
        signs.add(round(float(A[0, 0])))
        dets.add(round(float(np.linalg.det(A[1:, 1:]))))
    assert signs == {-1, 1}
    assert dets == {-1, 1}


class TestPhaseLimit:
    """From r|t| = 2^52 on, one ulp of an oscillating column's phase r t is
    a radian: evaluating data there is refused, not read at a random
    phase."""

    def test_oscillating_data_refused_at_the_limit(self):
        prof = SymmetricProfile([[-4.0]])
        beta = BetaSolution(prof, [1.0], [0.0])
        beta_eval(beta, 2.0 ** 51 * (1 - 2 ** -52))
        for t in (2.0 ** 51, -2.0 ** 51, 1e300):
            with pytest.raises(PreconditionError):
                beta_eval(beta, t)
        with pytest.raises(PreconditionError):
            beta_eval(BetaSolution(prof, [0.0], [1e-300]), 1e300)

    def test_columns_without_data_still_evaluate(self):
        # the zero column is affine and the oscillating one holds no data
        prof = SymmetricProfile(np.diag([-1.0, 0.0]))
        val, der = beta_eval(BetaSolution(prof, [0.0, 1.0], [0.0, 2.0]), 1e300)
        assert np.array_equal(val, [0.0, 2e300]) and np.array_equal(der, [0.0, 2.0])
        val, der = beta_eval(BetaSolution(prof), 1e300)
        assert not val.any() and not der.any()

    def test_conjugation_solve_refuses_a_lost_phase(self):
        # the shift by c reads the right-hand side at phase c, as beta_eval
        # reads beta at time c
        prof = SymmetricProfile([[-1.0]])
        with pytest.raises(PreconditionError):
            solve_conjugation_beta(prof, np.eye(1), 0.5, 1e300,
                                   BetaSolution(prof, [1.0], [0.0]))
        zero = solve_conjugation_beta(prof, np.eye(1), 0.5, 1e300, BetaSolution(prof))
        assert not zero.beta0.any() and not zero.beta1.any()
        # data only in the affine column is still solved at that shift
        prof = SymmetricProfile(np.diag([-1.0, 0.0]))
        beta = solve_conjugation_beta(prof, np.eye(2), 0.5, 1e300,
                                      BetaSolution(prof, [0.0, 1.0], [0.0, 0.0]))
        assert np.isfinite(beta.beta0).all() and beta.beta0[0] == beta.beta1[0] == 0.0
