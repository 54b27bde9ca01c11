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
    conformal_defect,
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


class TestWarpedChart:
    """Both flat charts are the warped chart of one positive solution rho of
    rho'' = lam rho, with conformal factor rho^-2."""

    CHARTS = {
        "minkowski": (minkowski_map, 1.0, 1.2, lambda t: np.exp(-t),
                      lambda t, x, v: (np.exp(2 * t) / 2, np.exp(t) * x, v - x @ x / 2)),
        "imaginary": (imaginary_local_map, -1.0, 1.4, np.cos,
                      lambda t, x, v: (np.tan(t), x / np.cos(t), v - x @ x * np.tan(t) / 2)),
    }

    @pytest.mark.parametrize("name", CHARTS)
    def test_closed_forms_and_jacobian(self, name, rng):
        make, _, tmax, _, closed = self.CHARTS[name]
        F = make(3)
        for _ in range(10):
            p = Point(float(rng.uniform(-tmax, tmax)), rng.normal(size=3), float(rng.normal()))
            u, y, z = closed(p.t, p.x, p.v)
            assert np.max(np.abs(F(p) - Point(u, y, z))) <= 1e-12 * max(1.0, abs(u), abs(z))
            Jfd = SmoothMap(3, forward=F.forward).jacobian_at(p)
            assert np.max(np.abs(F.jacobian_at(p) - Jfd)) <= 1e-5 * max(1.0, np.max(np.abs(Jfd)))

    @pytest.mark.parametrize("name", CHARTS)
    def test_conformal_defect_is_round_off_for_rho_minus_2(self, name, rng):
        make, lam, tmax, rho, _ = self.CHARTS[name]
        n = 2
        prof = SymmetricProfile(lam * np.eye(n))
        g0 = minkowski_metric(n).components
        gram = lambda p: metric_at(prof, p).components
        points = [Point(float(rng.uniform(-tmax, tmax)), rng.normal(size=n),
                        float(rng.normal())) for _ in range(20)]
        right = conformal_defect(make(n), lambda q: g0, gram, lambda p: rho(p.t) ** -2, points)
        assert right <= 1e-9
        # a wrong factor, or the other model's metric, is seen at once
        assert conformal_defect(make(n), lambda q: g0, gram, lambda p: 1.0, points) > 1e-2
        other = SymmetricProfile(-lam * np.eye(n))
        assert conformal_defect(make(n), lambda q: g0, lambda p: metric_at(other, p).components,
                                lambda p: rho(p.t) ** -2, points) > 1e-2
        assert conformal_defect(make(n), lambda q: g0, gram, lambda p: 1.0, []) == 0.0


def _t_shift(n, c):
    """(t, x, v) -> (t + c, x, v), defined everywhere."""
    return SmoothMap(n, forward=lambda p: Point(p.t + c, p.x, p.v),
                     jacobian=lambda p: np.eye(n + 2),
                     inverse=lambda q: Point(q.t - c, q.x, q.v))


def _at(t):
    """The point (t, 0, 0) of R^3; in flat coordinates t is u."""
    return Point(t, np.zeros(1), 0.0)


DOMAIN_ERRORS = {
    "minkowski-inverse-u-negative": lambda: minkowski_map(1).inverse(_at(-1.0)),
    "minkowski-inverse-u-zero": lambda: minkowski_map(1).inverse(_at(0.0)),
    "imaginary-call": lambda: imaginary_local_map(1)(_at(2.0)),
    "imaginary-jacobian": lambda: imaginary_local_map(1).jacobian_at(_at(-2.0)),
    "imaginary-pullback": lambda: pullback_metric(imaginary_local_map(1), _g0(1), _at(2.0)),
    "inversion-call": lambda: minkowski_inversion(1)(_at(0.0)),
    "inversion-jacobian": lambda: minkowski_inversion(1).jacobian_at(_at(-1.0)),
    "inversion-inverse-u-zero": lambda: minkowski_inversion(1).inverse(_at(0.0)),
    "inversion-inverse-u-negative": lambda: minkowski_inversion(1).inverse(_at(-1.0)),
    "compose-outside-inner": lambda: compose_maps(minkowski_dilation(1, 0.3),
                                                  imaginary_local_map(1))(_at(2.0)),
    "compose-leaves-outer": lambda: compose_maps(imaginary_local_map(1),
                                                 _t_shift(1, 1.0))(_at(1.0)),
    "compose-leaves-outer-jacobian": lambda: compose_maps(
        minkowski_inversion(1), minkowski_dilation(1, 0.3)).jacobian_at(_at(-1.0)),
    "compose-inverse": lambda: compose_maps(minkowski_dilation(1, 0.3),
                                            minkowski_map(1)).inverse(_at(-1.0)),
    "conformal-defect": lambda: conformal_defect(
        imaginary_local_map(1), lambda q: minkowski_metric(1).components,
        lambda p: np.eye(3), lambda p: 1.0, [_at(0.0), _at(2.0)]),
}


@pytest.mark.parametrize("case", DOMAIN_ERRORS.values(), ids=DOMAIN_ERRORS.keys())
def test_domain_error(case):
    """Every evaluation outside a map's domain is a DomainError: the forward
    map, its Jacobian, its inverse, a composite whose inner image leaves the
    outer domain, and the pullback checks."""
    with pytest.raises(DomainError):
        case()


def test_compose_inside_both_domains():
    C = compose_maps(imaginary_local_map(1), _t_shift(1, 1.0))
    p = Point(0.2, [0.5], 0.1)
    assert np.max(np.abs(C(p) - imaginary_local_map(1)(Point(1.2, [0.5], 0.1)))) == 0.0


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
