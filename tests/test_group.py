"""Homothety-group arithmetic: faithfulness, inversion, structure."""

import numpy as np
import pytest

from cwgeom.core import PARAM_TOL, BetaSolution, Point, SymmetricProfile, symplectic_form
from cwgeom.curvature import metric_at
from cwgeom.errors import IncompatibleProfileError, OverflowingValueError
from cwgeom.group import (
    Homothety,
    apply,
    compose,
    conjugate,
    differential,
    element_distance,
    homothety_factor_check,
    identity,
    inverse,
    power,
)

from conftest import (random_centralising_orthogonal, random_homothety, random_point,
                      random_profile)
from oracles import is_identity
from test_group_law import KINDS, spectral_profile


class TestApply:
    def test_pinned_pure_homothety(self):
        prof = SymmetricProfile(np.eye(1))
        h = Homothety(prof, s=np.log(2.0))  # h_s: (t, x, v) -> (t, e^s x, e^{2s} v)
        q = apply(h, np.array([1.0, 1.0, 3.0]))
        assert q.shape == (3,)
        assert np.max(np.abs(q - [1.0, 2.0, 12.0])) <= 1e-12

    def test_pinned_translation(self):
        prof = SymmetricProfile(-np.eye(2))
        g = Homothety(prof, c=0.5, b=2.0)
        q = apply(g, np.array([0.0, 0.0, 0.0, 1.0]))
        assert q[0] == pytest.approx(0.5)
        assert q[-1] == pytest.approx(3.0)

    def test_identity_acts_trivially(self, rng):
        prof = random_profile(rng, 3)
        p = random_point(rng, 3)
        assert np.max(np.abs(apply(identity(prof), p) - p)) == 0.0

    def test_dimension_mismatch(self, rng):
        prof = random_profile(rng, 2)
        with pytest.raises(IncompatibleProfileError):
            apply(identity(prof), np.zeros(5))

    def test_differential_matches_finite_differences(self, rng):
        for _ in range(10):
            prof = random_profile(rng)
            phi = random_homothety(prof, rng)
            p = random_point(rng, prof.n)
            J = differential(phi, p)
            m = prof.n + 2
            step = 1e-6
            for j in range(m):
                e = np.zeros(m)
                e[j] = step
                col = (apply(phi, p + e) - apply(phi, p - e)) / (2 * step)
                assert np.max(np.abs(J[:, j] - col)) <= 1e-5


class TestCompose:
    def test_faithfulness(self, rng):
        # parameter-level product vs pointwise composition
        for _ in range(50):
            prof = random_profile(rng)
            phi = random_homothety(prof, rng)
            psi = random_homothety(prof, rng)
            p = random_point(rng, prof.n)
            lhs = apply(compose(phi, psi), p)
            rhs = apply(phi, apply(psi, p))
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale

    def test_associativity(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            a, b, c = (random_homothety(prof, rng) for _ in range(3))
            d = element_distance(compose(compose(a, b), c),
                                 compose(a, compose(b, c)))
            assert d <= 1e-8

    def test_identity_neutral(self, rng):
        prof = random_profile(rng, 3)
        phi = random_homothety(prof, rng)
        e = identity(prof)
        assert element_distance(compose(phi, e), phi) <= 1e-12
        assert element_distance(compose(e, phi), phi) <= 1e-12

    def test_profile_mismatch(self, rng):
        pa, pb = random_profile(rng, 2), random_profile(rng, 3)
        with pytest.raises(IncompatibleProfileError):
            compose(identity(pa), identity(pb))

    def test_nearby_profiles_do_not_compose(self):
        pa, pb = SymmetricProfile([[1.0]]), SymmetricProfile([[1.000005]])
        phi = Homothety(pa, beta=BetaSolution(pa, [1.0], [0.0]))
        with pytest.raises(IncompatibleProfileError):
            compose(phi, Homothety(pb, c=0.5))

    def test_profiles_of_different_tolerance_compare_alike_both_ways(self):
        # equality is judged on the smaller of the two scaled tolerances,
        # so neither == nor compose depends on the order of the operands
        pa = SymmetricProfile([[1.0]])
        pb = SymmetricProfile([[1.00001]], tolerance=1e-5)
        assert pa != pb and pb != pa
        for first, second in ((pa, pb), (pb, pa)):
            with pytest.raises(IncompatibleProfileError):
                compose(Homothety(first, c=0.5), Homothety(second, s=0.1))
        pc = SymmetricProfile([[1.0 + 1e-12]], tolerance=1e-5)
        assert pa == pc and pc == pa
        for first, second in ((pa, pc), (pc, pa)):
            assert compose(Homothety(first, c=0.5), Homothety(second, s=0.1)).c == 0.5


class TestInverse:
    def test_round_trip(self, rng):
        for _ in range(50):
            prof = random_profile(rng)
            phi = random_homothety(prof, rng)
            assert is_identity(compose(phi, inverse(phi)), tol=1e-8)
            assert is_identity(compose(inverse(phi), phi), tol=1e-8)

    def test_pointwise(self, rng):
        prof = random_profile(rng, 3)
        phi = random_homothety(prof, rng)
        p = random_point(rng, 3)
        q = apply(inverse(phi), apply(phi, p))
        assert np.max(np.abs(q - p)) <= 1e-8


class TestHomothetyFactor:
    def test_points_as_a_list_of_arrays_or_of_points(self, rng):
        """A list of (n+2,) arrays is stacked like a list of Points and
        judged as the (N, n+2) array of the same points."""
        prof = SymmetricProfile(np.eye(1))
        phi = random_homothety(prof, rng, strict=True)
        pts = rng.normal(size=(4, 3))
        want = homothety_factor_check(phi, points=pts)
        assert homothety_factor_check(phi, points=list(pts)) == want
        assert homothety_factor_check(phi, points=[Point.from_array(p) for p in pts]) == want
        assert homothety_factor_check(phi, points=[np.zeros(3)]) <= 1e-8

    def test_pullback_factor(self, rng):
        # phi^* g = e^{2s} g via the analytic Jacobian, all eps branches
        for _ in range(20):
            prof = random_profile(rng)
            phi = random_homothety(prof, rng, strict=True)
            pts = rng.normal(size=(10, prof.n + 2))
            assert homothety_factor_check(phi, pts) <= 1e-8
            # one point as an (n+2,) array is the (1, n+2) batch of it
            assert homothety_factor_check(phi, pts[0]) == homothety_factor_check(phi, pts[:1])

    def test_isometries_preserve_metric(self, rng):
        prof = random_profile(rng, 2)
        phi = random_homothety(prof, rng, strict=False)
        p = random_point(rng, 2)
        J = differential(phi, p)
        g = metric_at(prof, p)
        g2 = metric_at(prof, apply(phi, p))
        assert np.max(np.abs(J.T @ g2 @ J - g)) <= 1e-9


class TestStructure:
    def test_project_is_homomorphism(self, rng):
        # the quotient (c, eps, A, s), dropping (b, beta), composes by itself
        prof = random_profile(rng, 3)
        phi = random_homothety(prof, rng)
        psi = random_homothety(prof, rng)
        prod = compose(phi, psi)
        assert prod.c == pytest.approx(phi.c + phi.eps * psi.c)
        assert prod.eps == phi.eps * psi.eps
        assert np.max(np.abs(prod.A - phi.A @ psi.A)) <= 1e-9
        assert prod.s == pytest.approx(phi.s + psi.s)

    def test_projection_kernel_is_heisenberg(self, rng):
        # elements with trivial projection compose by the symplectic cocycle
        prof = random_profile(rng, 2)
        a = Homothety(prof, b=0.3, beta=BetaSolution(
            prof, rng.normal(size=2), rng.normal(size=2)))
        b = Homothety(prof, b=-1.1, beta=BetaSolution(
            prof, rng.normal(size=2), rng.normal(size=2)))
        prod = compose(a, b)
        assert abs(prod.c) <= 1e-12 and prod.eps == 1 and prod.s == 0.0
        assert np.max(np.abs(prod.A - np.eye(2))) <= 1e-9
        expected_b = a.b + b.b + symplectic_form(a.beta, b.beta)
        assert prod.b == pytest.approx(expected_b, abs=1e-9)

    def test_heisenberg_commutator_is_central(self, rng):
        prof = random_profile(rng, 3)
        a = Homothety(prof, beta=BetaSolution(prof, rng.normal(size=3),
                                              rng.normal(size=3)))
        b = Homothety(prof, beta=BetaSolution(prof, rng.normal(size=3),
                                              rng.normal(size=3)))
        comm = compose(a, compose(b, compose(inverse(a), inverse(b))))
        assert np.max(np.abs(comm.beta.beta0)) <= 1e-9
        assert np.max(np.abs(comm.beta.beta1)) <= 1e-9
        assert abs(comm.c) <= 1e-12
        assert comm.b == pytest.approx(2 * symplectic_form(a.beta, b.beta),
                                       abs=1e-9)

    def test_conjugation_of_central_element(self, rng):
        # g z g^{-1} scales the centre by eps e^{2s}
        prof = random_profile(rng, 2)
        g = random_homothety(prof, rng, strict=True)
        z = Homothety(prof, b=1.0)
        zc = conjugate(g, z)
        assert np.max(np.abs(zc.beta.beta0)) <= 1e-9
        assert np.max(np.abs(zc.beta.beta1)) <= 1e-9 and abs(zc.c) <= 1e-10
        assert zc.b == pytest.approx(g.eps * np.exp(2 * g.s), abs=1e-9)

    def test_isometries_are_normal(self, rng):
        # conjugating an isometry by anything yields an isometry (s = 0)
        prof = random_profile(rng, 2)
        iso = random_homothety(prof, rng, strict=False)
        g = random_homothety(prof, rng, strict=True)
        assert conjugate(g, iso).s == 0.0

    def test_power(self, rng):
        prof = random_profile(rng, 2)
        phi = random_homothety(prof, rng, eps=1)
        p3 = compose(phi, compose(phi, phi))
        assert element_distance(power(phi, 3), p3) <= 1e-9
        assert element_distance(power(phi, -2),
                                inverse(compose(phi, phi))) <= 1e-8
        assert is_identity(power(phi, 0))

    def test_centralises_and_pure_centraliser(self, rng):
        prof = random_profile(rng, 2)
        h = Homothety(prof, s=0.7)
        # t-shift commutes with h_s; Heisenberg elements do not
        gamma = Homothety(prof, c=1.3)
        assert element_distance(compose(gamma, h), compose(h, gamma)) <= 1e-12
        eta = Homothety(prof, beta=BetaSolution(prof, [1.0, 0.0], [0.0, 0.0]))
        assert element_distance(compose(eta, h), compose(h, eta)) > 1e-2

    @pytest.mark.parametrize("case", ["off-diagonal", "scaled"])
    def test_a_drifted_A_enters_as_its_polar_factor(self, case):
        """An A past PARAM_TOL of orthogonal, and within the profile's
        centraliser test, is replaced where it enters by an orthogonal A
        that still commutes with S."""
        if case == "off-diagonal":
            prof = SymmetricProfile(np.eye(2))
            drifted = np.eye(2) + 5e-9 * np.array([[0.0, 1.0], [0.0, 0.0]])
        else:
            rng = np.random.default_rng(6)
            prof = spectral_profile("mixed", 4, rng, repeat=True)
            drifted = random_centralising_orthogonal(prof, rng) * (1 + 2e-9)
        A = Homothety(prof, A=drifted).A
        assert np.max(np.abs(drifted.T @ drifted - np.eye(prof.n))) > PARAM_TOL
        assert np.max(np.abs(A.T @ A - np.eye(prof.n))) <= 1e-12
        assert np.max(np.abs(A @ prof.S - prof.S @ A)) <= 1e-12 * np.max(np.abs(prof.S))

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_orthogonal_A_enters_bit_for_bit(self, kind):
        """An A orthogonal to round-off is kept as given, and a product's A
        is the product of its factors' A, never re-projected."""
        rng = np.random.default_rng(9)
        prof = spectral_profile(kind, 6, rng, repeat=True)
        A, B = (random_centralising_orthogonal(prof, rng) for _ in range(2))
        phi, psi = Homothety(prof, A=A), Homothety(prof, A=B, c=0.3, s=0.2)
        assert np.array_equal(phi.A, A) and np.array_equal(psi.A, B)
        assert np.array_equal(compose(phi, psi).A, A @ B)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("param", ["b", "c", "s", "beta0", "beta1"])
    def test_non_finite_parameters_rejected(self, param, bad):
        prof = SymmetricProfile(np.diag([1.0, -2.0]))
        kwargs = ({"beta": BetaSolution(prof, **{param: [0.5, bad]})}
                  if param.startswith("beta") else {param: bad})
        with pytest.raises(OverflowingValueError):
            Homothety(prof, **kwargs)

    def test_bad_eps_rejected(self, rng):
        prof = random_profile(rng, 2)
        with pytest.raises(ValueError):
            Homothety(prof, eps=0)
