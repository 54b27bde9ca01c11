"""Curvature machinery against finite-difference oracles."""

import numpy as np
import pytest

from cwgeom.core import Point, SymmetricProfile
from cwgeom.curvature import (
    christoffel_at,
    conformal_change_at,
    conformal_christoffel_at,
    cotton,
    dt_squared,
    kulkarni_nomizu,
    metric_at,
    nabla_df,
    ricci,
    riemann,
    riemann_finite_difference,
    scalar,
    schouten,
    weyl,
)

from conftest import random_profile, random_point
from oracles import christoffel_finite_difference, riemann_symmetry_defect, trace_with_metric


class TestMetric:
    def test_pinned_entries(self):
        prof = SymmetricProfile(np.diag([2.0, -1.0]))
        g = metric_at(prof, Point(0.7, np.array([1.0, 3.0]), -2.0))
        assert g[0, 0] == pytest.approx(2.0 * 1.0 - 1.0 * 9.0)
        assert g[0, -1] == 1.0 and g[-1, 0] == 1.0
        assert np.max(np.abs(g[1:-1, 1:-1] - np.eye(2))) == 0.0
        assert g[-1, -1] == 0.0

    def test_lorentzian_signature(self, rng):
        for _ in range(5):
            prof = random_profile(rng)
            g = metric_at(prof, random_point(rng, prof.n))
            w = np.linalg.eigvalsh(g)
            assert np.sum(w < 0) == 1 and np.sum(w > 0) == prof.n + 1

    def test_inverse(self, rng):
        # g^{-1} = 2 d_t d_v - (x, Sx) d_v^2 + d_x^2
        prof = random_profile(rng, 3)
        p = random_point(rng, 3)
        want = np.eye(5)
        want[0, 0], want[0, -1], want[-1, 0] = 0.0, 1.0, 1.0
        want[-1, -1] = -(p.x @ prof.S @ p.x)
        assert np.max(np.abs(np.linalg.inv(metric_at(prof, p)) - want)) <= 1e-12


class TestChristoffel:
    def test_against_koszul_finite_differences(self, rng):
        for _ in range(10):
            prof = random_profile(rng)
            p = random_point(rng, prof.n)
            closed = christoffel_at(prof, p)
            fd = christoffel_finite_difference(prof, p)
            assert np.max(np.abs(closed - fd)) <= 1e-7

    def test_symmetry_in_lower_indices(self, rng):
        prof = random_profile(rng, 4)
        G = christoffel_at(prof, random_point(rng, 4))
        assert np.max(np.abs(G - np.swapaxes(G, 1, 2))) == 0.0

    def test_no_upper_t_index(self, rng):
        prof = random_profile(rng, 3)
        G = christoffel_at(prof, random_point(rng, 3))
        assert np.max(np.abs(G[0])) == 0.0


class TestKulkarniNomizu:
    def test_pinned_scalar_example(self):
        # (dt^2) kn (dt^2) has all components zero except through
        # degenerate index collisions, which cancel
        k = kulkarni_nomizu(dt_squared(2), dt_squared(2))
        assert np.max(np.abs(k)) == 0.0

    def test_has_riemann_symmetries(self, rng):
        A = (lambda M: 0.5 * (M + M.T))(rng.normal(size=(5, 5)))
        B = (lambda M: 0.5 * (M + M.T))(rng.normal(size=(5, 5)))
        assert riemann_symmetry_defect(kulkarni_nomizu(A, B)) <= 1e-12

    def test_symmetric_in_arguments(self, rng):
        A = (lambda M: 0.5 * (M + M.T))(rng.normal(size=(4, 4)))
        B = (lambda M: 0.5 * (M + M.T))(rng.normal(size=(4, 4)))
        d = kulkarni_nomizu(A, B) - kulkarni_nomizu(B, A)
        assert np.max(np.abs(d)) <= 1e-14


class TestCurvatureTensors:
    def test_riemann_against_finite_differences(self, rng):
        for _ in range(10):
            prof = random_profile(rng)
            p = random_point(rng, prof.n)
            closed = riemann(prof)
            fd = riemann_finite_difference(prof, p)
            assert np.max(np.abs(closed.components - fd)) <= 1e-5

    def test_riemann_symmetries(self, rng):
        prof = random_profile(rng, 4)
        assert riemann_symmetry_defect(riemann(prof).components) <= 1e-12

    def test_ricci_is_trace_of_riemann(self, rng):
        prof = random_profile(rng, 3)
        p = random_point(rng, 3)
        g = metric_at(prof, p)
        ric_tr = trace_with_metric(riemann(prof).components, g, slots=(0, 2))
        assert np.max(np.abs(ric_tr - ricci(prof))) <= 1e-10

    def test_scalar_vanishes(self, rng):
        prof = random_profile(rng, 4)
        assert scalar(prof) == 0.0
        p = random_point(rng, 4)
        ginv = np.linalg.inv(metric_at(prof, p))
        assert abs(float(np.einsum("ij,ij->", ginv, ricci(prof)))) <= 1e-12

    def test_pinned_example(self):
        # S = diag(2, -1): Ric = -(dt)^2, W = (1/2 I - S) kn (dt)^2
        prof = SymmetricProfile(np.diag([2.0, -1.0]))
        ric = ricci(prof)
        assert ric[0, 0] == pytest.approx(-1.0)
        assert np.max(np.abs(ric - ric[0, 0] * dt_squared(2))) == 0.0
        W = weyl(prof).components
        # W(d_t, d_i, d_t, d_i) = (tr(S)/n - S_ii)
        assert W[0, 1, 0, 1] == pytest.approx(0.5 - 2.0)
        assert W[0, 2, 0, 2] == pytest.approx(0.5 + 1.0)

    def test_weyl_trace_free(self, rng):
        for _ in range(5):
            prof = random_profile(rng)
            p = random_point(rng, prof.n)
            tr = trace_with_metric(weyl(prof).components, metric_at(prof, p), slots=(0, 2))
            assert np.max(np.abs(tr)) <= 1e-8

    def test_decomposition_identity(self, rng):
        # R = W + g kn P when the scalar part vanishes
        for _ in range(5):
            prof = random_profile(rng)
            p = random_point(rng, prof.n)
            g = metric_at(prof, p)
            rebuilt = weyl(prof).components + kulkarni_nomizu(g, schouten(prof))
            assert np.max(np.abs(riemann(prof).components - rebuilt)) <= 1e-9

    def test_weyl_vanishes_iff_scalar_profile(self, rng):
        assert weyl(SymmetricProfile(3.0 * np.eye(3))).max_abs() <= 1e-12
        prof = SymmetricProfile(3.0 * np.eye(3) + np.diag([1e-3, 0.0, 0.0]))
        assert weyl(prof).max_abs() > 1e-4

    def test_cotton_vanishes(self, rng):
        for _ in range(5):
            prof = random_profile(rng)
            assert np.max(np.abs(cotton(prof, random_point(rng, prof.n)))) \
                <= 1e-12


def _quadratic_jet(point, coeffs):
    """2-jet (value, gradient, hessian) of f(p) = a.p + p^T H p / 2 at the
    point."""
    a, H = coeffs
    arr = point.as_array()
    return float(a @ arr + 0.5 * arr @ H @ arr), a + H @ arr, H


class TestConformalChange:
    def test_nabla_df_against_finite_differences(self, rng):
        prof = random_profile(rng, 2)
        p = random_point(rng, 2)
        m = prof.n + 2
        a = rng.normal(size=m)
        H = 0.5 * (lambda M: M + M.T)(rng.normal(size=(m, m)))

        def f(arr):
            return float(a @ arr + 0.5 * arr @ H @ arr)

        _, grad, hessian = _quadratic_jet(p, (a, H))
        hess = nabla_df(prof, p, grad, hessian)
        # oracle: second differences of f along coordinate pairs minus the
        # Christoffel correction computed by an independent FD route
        G = christoffel_finite_difference(prof, p)
        step = 1e-4
        p0 = p.as_array()
        fd = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                ei, ej = np.zeros(m), np.zeros(m)
                ei[i], ej[j] = step, step
                fd[i, j] = (f(p0 + ei + ej) - f(p0 + ei - ej)
                            - f(p0 - ei + ej) + f(p0 - ei - ej)) / (4 * step**2)
        fd -= np.einsum("kij,k->ij", G, a + H @ p0)
        assert np.max(np.abs(hess - fd)) <= 1e-5

    def test_flat_rescale_of_real_type(self):
        # e^{2t} g is flat when S is the identity: the full hatted
        # curvature must vanish for f = t
        for n in (1, 2, 3):
            prof = SymmetricProfile(np.eye(n))
            m = n + 2
            grad = np.zeros(m)
            grad[0] = 1.0
            p = Point(0.4, 0.3 * np.ones(n), -0.2)
            out = conformal_change_at(prof, p, p.t, grad, np.zeros((m, m)))
            assert np.max(np.abs(out["riemann_hat"])) <= 1e-7
            assert np.max(np.abs(out["ricci_hat"])) <= 1e-7
            assert abs(out["scal_hat"]) <= 1e-7

    def test_ricci_hat_is_trace_of_riemann_hat(self, rng):
        # dual route: contract the hatted (0,4) tensor with the hatted
        # metric and compare with the direct Ricci formula
        prof = random_profile(rng, 2)
        p = random_point(rng, 2)
        m = prof.n + 2
        a = 0.3 * rng.normal(size=m)
        H = 0.3 * (lambda M: 0.5 * (M + M.T))(rng.normal(size=(m, m)))
        jet = _quadratic_jet(p, (a, H))
        out = conformal_change_at(prof, p, *jet)
        g_hat = np.exp(2 * jet[0]) * metric_at(prof, p)
        ric_tr = trace_with_metric(out["riemann_hat"], g_hat, slots=(0, 2))
        assert np.max(np.abs(ric_tr - out["ricci_hat"])) <= 1e-8
        scal_tr = float(np.einsum("ij,ij->", np.linalg.inv(g_hat), out["ricci_hat"]))
        assert abs(scal_tr - out["scal_hat"]) <= 1e-8

    def test_conformal_christoffel_consistency(self, rng):
        # the hatted symbols must reproduce the hatted covariant Hessian of
        # an affine function through the Koszul-style correction
        prof = random_profile(rng, 3)
        p = random_point(rng, 3)
        m = prof.n + 2
        grad = rng.normal(size=m)
        gamma_hat = conformal_christoffel_at(prof, p, grad)
        assert np.max(np.abs(gamma_hat - np.swapaxes(gamma_hat, 1, 2))) <= 1e-12
        # a zero gradient recovers the ordinary symbols
        assert np.max(np.abs(conformal_christoffel_at(prof, p, np.zeros(m))
                             - christoffel_at(prof, p))) == 0.0
