"""Conformal maps to Minkowski space and the flatness dichotomy."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cwgeom.core import Point, SymmetricProfile
from cwgeom.curvature import metric_at
from cwgeom.errors import DomainError
from cwgeom.flat import (
    SmoothMap,
    compose_maps,
    flatness_blowup_demo,
    identity_map,
    imaginary_local_map,
    incomplete_geodesic_residual,
    minkowski_dilation,
    minkowski_inversion,
    minkowski_map,
    minkowski_metric,
    pullback_metric,
)

from conftest import random_point


def _g0(n):
    g = minkowski_metric(n)
    return lambda q: g


class TestMinkowskiMap:
    def test_round_trip(self, rng):
        for n in (1, 2, 3):
            F = minkowski_map(n)
            for _ in range(10):
                p = random_point(rng, n)
                q = F(p)
                assert q.t > 0
                back = F.inverse(q)
                assert np.max(np.abs(back - p)) <= 1e-10

    def test_pullback_is_conformal(self, rng):
        # F^* g0 = e^{2t} g_+ for S = I
        for n in (1, 2):
            prof = SymmetricProfile(np.eye(n))
            F = minkowski_map(n)
            for _ in range(25):
                p = random_point(rng, n)
                pulled = pullback_metric(F, _g0(n), p).components
                target = np.exp(2 * p.t) * metric_at(prof, p).components
                assert np.max(np.abs(pulled - target)) <= 1e-9

    def test_inverse_domain_error(self):
        F = minkowski_map(2)
        with pytest.raises(DomainError):
            F.inverse(Point(-1.0, np.zeros(2), 0.0))

    def test_analytic_jacobian_matches_finite_differences(self, rng):
        F = minkowski_map(2)
        p = random_point(rng, 2)
        J = F.jacobian_at(p)
        Jfd = SmoothMap(2, forward=F.forward).jacobian_at(p)
        assert np.max(np.abs(J - Jfd)) <= 1e-5


class TestImaginaryLocalMap:
    def test_round_trip(self, rng):
        F = imaginary_local_map(2)
        for _ in range(10):
            p = Point(float(rng.uniform(-1.4, 1.4)), rng.normal(size=2),
                      float(rng.normal()))
            back = F.inverse(F(p))
            assert np.max(np.abs(back - p)) <= 1e-10

    def test_pullback_is_conformal(self, rng):
        # F^* g0 = g_- / cos^2 t on the strip |t| < pi/2
        for n in (1, 2):
            prof = SymmetricProfile(-np.eye(n))
            F = imaginary_local_map(n)
            for _ in range(25):
                p = Point(float(rng.uniform(-1.4, 1.4)), rng.normal(size=n),
                          float(rng.normal()))
                pulled = pullback_metric(F, _g0(n), p).components
                target = metric_at(prof, p).components / np.cos(p.t) ** 2
                assert np.max(np.abs(pulled - target)) <= 1e-9

    def test_domain_error(self):
        F = imaginary_local_map(1)
        with pytest.raises(DomainError):
            F(Point(np.pi / 2, np.zeros(1), 0.0))
        with pytest.raises(DomainError):
            pullback_metric(F, _g0(1), Point(2.0, np.zeros(1), 0.0))


class TestConjugatedIdentities:
    def test_t_shift_becomes_dilation(self, rng):
        # F o (t-shift by c) = dilation(c) o F
        n, c = 2, 0.7
        F = minkowski_map(n)
        D = minkowski_dilation(n, c)
        for _ in range(20):
            p = random_point(rng, n)
            lhs = F(Point(p.t + c, p.x, p.v))
            rhs = D(F(p))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_time_reflection_becomes_inversion(self, rng):
        # F o iota = eta o F with iota(t, x, v) = (-t, x, -v)
        n = 2
        F = minkowski_map(n)
        eta = minkowski_inversion(n)
        for _ in range(20):
            p = random_point(rng, n)
            lhs = F(Point(-p.t, p.x, -p.v))
            rhs = eta(F(p))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_inversion_is_conformal_involution(self, rng):
        n = 2
        eta = minkowski_inversion(n)
        for _ in range(20):
            q = Point(float(rng.uniform(0.2, 3.0)), rng.normal(size=n),
                      float(rng.normal()))
            # involution
            assert np.max(np.abs(eta(eta(q)) - q)) <= 1e-9
            # eta^* g0 = g0 / (4u^2)
            pulled = pullback_metric(eta, _g0(n), q).components
            target = minkowski_metric(n).components / (4.0 * q.t ** 2)
            assert np.max(np.abs(pulled - target)) <= 1e-8

    def test_inversion_domain(self):
        eta = minkowski_inversion(1)
        with pytest.raises(DomainError):
            eta(Point(0.0, np.zeros(1), 0.0))

    def test_compose_maps(self, rng):
        n = 2
        F = minkowski_map(n)
        D = minkowski_dilation(n, 0.4)
        C = compose_maps(D, F)
        p = random_point(rng, n)
        assert np.max(np.abs(C(p) - D(F(p)))) <= 1e-12
        assert np.max(np.abs(C.jacobian_at(p)
                             - D.jacobian_at(F(p)) @ F.jacobian_at(p))) <= 1e-10
        assert np.max(np.abs(C.inverse(C(p)) - p)) <= 1e-9
        I = identity_map(n)
        assert np.max(np.abs(I(p) - p)) == 0.0


class TestFlatnessDichotomy:
    def test_imaginary_blowup_time(self):
        out = flatness_blowup_demo(-1, y0=0.0)
        assert out["blowup"]
        assert abs(out["blowup_t"] - np.pi / 2) <= 1e-3

    def test_blowup_from_one(self):
        # tan(t + pi/4) blows up at pi/4
        out = flatness_blowup_demo(-1, y0=1.0)
        assert abs(out["blowup_t"] - np.pi / 4) <= 1e-3

    @pytest.mark.parametrize("y0", np.linspace(-5.0, 5.0, 11))
    def test_closed_form_matches_integration(self, y0):
        def escape(t, y):
            return abs(y[0]) - 1e8

        escape.terminal = True
        sol = solve_ivp(lambda t, y: [y[0] ** 2 + 1.0], (0.0, 10.0), [y0],
                        events=escape, method="DOP853", rtol=1e-10, atol=1e-10)
        out = flatness_blowup_demo(-1, y0=y0)
        assert out["blowup"]
        assert abs(out["blowup_t"] - sol.t_events[0][0]) <= 1e-6
        if y0 >= 0:
            assert abs(out["blowup_t"]
                       - (np.arctan(1e8) - np.arctan(y0))) <= 1e-12

    def test_blowup_beyond_tmax(self):
        # from y0 = -5 the blow-up comes at about 2.94
        out = flatness_blowup_demo(-1, y0=-5.0, tmax=2.0)
        assert out == {"blowup": False, "blowup_t": None}

    def test_real_type_global_rescale(self):
        out = flatness_blowup_demo(1)
        assert not out["blowup"]
        assert out["hessian_residual"] <= 1e-10
        assert out["null_gradient_residual"] <= 1e-10
        assert out["ricci_hat_residual"] <= 1e-7

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            flatness_blowup_demo(2)

    def test_incomplete_geodesic(self):
        prof = SymmetricProfile(np.eye(2))
        for s in (0.0, 1.0, 5.0, -0.49):
            assert incomplete_geodesic_residual(prof, s) <= 1e-6
        with pytest.raises(DomainError):
            incomplete_geodesic_residual(prof, -0.5)
