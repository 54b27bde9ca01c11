"""Curvature machinery against finite-difference oracles."""

import numpy as np
import pytest

from cwgeom.core import SymmetricProfile
from cwgeom.curvature import (
    christoffel_at,
    cotton,
    dt_squared,
    metric_at,
    ricci,
    riemann,
    scalar,
    schouten,
    weyl,
)

from conftest import random_profile, random_point
from oracles import (christoffel_finite_difference, kulkarni_nomizu, riemann_finite_difference,
                     riemann_symmetry_defect, trace_with_metric)


class TestMetric:
    def test_pinned_entries(self):
        prof = SymmetricProfile(np.diag([2.0, -1.0]))
        g = metric_at(prof, np.array([0.7, 1.0, 3.0, -2.0]))
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
        want[-1, -1] = -(p[1:-1] @ prof.S @ p[1:-1])
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
            assert np.max(np.abs(cotton(prof))) <= 1e-12
