"""Conformal maps to Minkowski space and the flatness dichotomy."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cwgeom.core import Point, SymmetricProfile
from cwgeom.curvature import metric_at
from cwgeom.errors import DomainError
from cwgeom.flat import (
    conformal_defect,
    flatness_blowup_demo,
    imaginary_local_map,
    incomplete_geodesic_residual,
    minkowski_inversion,
    minkowski_map,
    minkowski_metric,
)

from conftest import random_point
from oracles import (imaginary_local_map_inverse, jacobian_finite_difference,
                     minkowski_dilation, minkowski_map_inverse)


def _g0(n):
    g = minkowski_metric(n)
    return lambda q: g


def _strip_point(rng, n, tmax):
    """A random point (t, x, v) with |t| < tmax, as an (n+2,) array."""
    return np.concatenate(([rng.uniform(-tmax, tmax)], rng.normal(size=n), [rng.normal()]))


class TestMinkowskiMap:
    def test_round_trip(self, rng):
        for n in (1, 2, 3):
            F = minkowski_map(n)
            for _ in range(10):
                p = random_point(rng, n)
                q = F(p)
                assert q[0] > 0
                back = minkowski_map_inverse(q)
                assert np.max(np.abs(back - p)) <= 1e-10

    def test_pullback_is_conformal(self, rng):
        # F^* g0 = e^{2t} g_+ for S = I
        for n in (1, 2):
            prof = SymmetricProfile(np.eye(n))
            points = np.array([random_point(rng, n) for _ in range(25)])
            assert conformal_defect(minkowski_map(n), _g0(n), lambda a: metric_at(prof, a),
                                    lambda a: np.exp(2 * a[..., 0]), points) <= 1e-9

    def test_analytic_jacobian_matches_finite_differences(self, rng):
        F = minkowski_map(2)
        p = random_point(rng, 2)
        J = F.jacobian_at(p)
        Jfd = jacobian_finite_difference(F.forward, p)
        assert np.max(np.abs(J - Jfd)) <= 1e-5


class TestImaginaryLocalMap:
    def test_round_trip(self, rng):
        F = imaginary_local_map(2)
        for _ in range(10):
            p = _strip_point(rng, 2, 1.4)
            back = imaginary_local_map_inverse(F(p))
            assert np.max(np.abs(back - p)) <= 1e-10

    def test_pullback_is_conformal(self, rng):
        # F^* g0 = g_- / cos^2 t on the strip |t| < pi/2
        for n in (1, 2):
            prof = SymmetricProfile(-np.eye(n))
            points = np.array([_strip_point(rng, n, 1.4) for _ in range(25)])
            assert conformal_defect(imaginary_local_map(n), _g0(n),
                                    lambda a: metric_at(prof, a),
                                    lambda a: np.cos(a[..., 0]) ** -2, points) <= 1e-9

    def test_domain_error(self):
        F = imaginary_local_map(1)
        with pytest.raises(DomainError):
            F(np.array([np.pi / 2, 0.0, 0.0]))
        with pytest.raises(DomainError):
            conformal_defect(F, _g0(1), _g0(1), lambda a: 1.0, np.array([2.0, 0.0, 0.0]))


class TestConjugatedIdentities:
    def test_t_shift_becomes_dilation(self, rng):
        # F o (t-shift by c) = dilation(c) o F
        n, c = 2, 0.7
        F = minkowski_map(n)
        D = minkowski_dilation(n, c)
        for _ in range(20):
            p = random_point(rng, n)
            lhs = F(p + np.r_[c, np.zeros(n + 1)])
            rhs = D(F(p))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_time_reflection_becomes_inversion(self, rng):
        # F o iota = eta o F with iota(t, x, v) = (-t, x, -v)
        n = 2
        F = minkowski_map(n)
        eta = minkowski_inversion(n)
        for _ in range(20):
            p = random_point(rng, n)
            lhs = F(p * np.r_[-1.0, np.ones(n), -1.0])
            rhs = eta(F(p))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_inversion_is_conformal_involution(self, rng):
        n = 2
        eta = minkowski_inversion(n)
        for _ in range(20):
            q = np.concatenate(([rng.uniform(0.2, 3.0)], rng.normal(size=n), [rng.normal()]))
            # involution
            assert np.max(np.abs(eta(eta(q)) - q)) <= 1e-9
            # eta^* g0 = g0 / (4u^2)
            assert conformal_defect(eta, _g0(n), _g0(n), lambda a: 0.25 / a[..., 0] ** 2,
                                    q) <= 1e-8

    def test_inversion_domain(self):
        eta = minkowski_inversion(1)
        with pytest.raises(DomainError):
            eta(np.zeros(3))


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
            p = _strip_point(rng, 3, tmax)
            u, y, z = closed(p[0], p[1:-1], p[-1])
            assert np.max(np.abs(F(p) - np.r_[u, y, z])) <= 1e-12 * max(1.0, abs(u), abs(z))
            Jfd = jacobian_finite_difference(F.forward, p)
            assert np.max(np.abs(F.jacobian_at(p) - Jfd)) <= 1e-5 * max(1.0, np.max(np.abs(Jfd)))

    @pytest.mark.parametrize("name", CHARTS)
    def test_conformal_defect_is_round_off_for_rho_minus_2(self, name, rng):
        make, lam, tmax, rho, _ = self.CHARTS[name]
        n = 2
        prof = SymmetricProfile(lam * np.eye(n))
        g0 = minkowski_metric(n)
        gram = lambda a: metric_at(prof, a)
        factor = lambda a: rho(a[..., 0]) ** -2
        # a list of Points, the form the benchmark passes, and one array
        # give the same residual
        points = [Point.from_array(_strip_point(rng, n, tmax)) for _ in range(20)]
        right = conformal_defect(make(n), lambda q: g0, gram, factor, points)
        assert right <= 1e-9
        assert conformal_defect(make(n), lambda q: g0, gram, factor,
                                np.array([p.as_array() for p in points])) == right
        # a wrong factor, or the other model's metric, is seen at once
        assert conformal_defect(make(n), lambda q: g0, gram, lambda a: 1.0, points) > 1e-2
        other = SymmetricProfile(-lam * np.eye(n))
        assert conformal_defect(make(n), lambda q: g0, lambda a: metric_at(other, a),
                                factor, points) > 1e-2
        assert conformal_defect(make(n), lambda q: g0, gram, lambda a: 1.0, []) == 0.0


def _at(t):
    """The point (t, 0, 0) of R^3; in flat coordinates t is u."""
    return np.array([t, 0.0, 0.0])


DOMAIN_ERRORS = {
    "imaginary-call": lambda: imaginary_local_map(1)(_at(2.0)),
    "imaginary-jacobian": lambda: imaginary_local_map(1).jacobian_at(_at(-2.0)),
    "imaginary-pullback": lambda: conformal_defect(imaginary_local_map(1), _g0(1), _g0(1),
                                                   lambda a: 1.0, _at(2.0)),
    "inversion-call": lambda: minkowski_inversion(1)(_at(0.0)),
    "inversion-jacobian": lambda: minkowski_inversion(1).jacobian_at(_at(-1.0)),
    "conformal-defect": lambda: conformal_defect(
        imaginary_local_map(1), lambda q: minkowski_metric(1),
        lambda a: np.eye(3), lambda a: 1.0, np.array([_at(0.0), _at(2.0)])),
}


@pytest.mark.parametrize("case", DOMAIN_ERRORS.values(), ids=DOMAIN_ERRORS.keys())
def test_domain_error(case):
    """Every evaluation outside a map's domain is a DomainError: the forward
    map, its Jacobian, and the pullback checks."""
    with pytest.raises(DomainError):
        case()


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
