"""Fixed points, essentiality, normal forms, orbit obstructions."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cwgeom import dynamics
from cwgeom.core import (
    PARAM_TOL,
    BetaSolution,
    SymmetricProfile,
    beta_eval,
    classify,
    random_centralising_orthogonal,
)
from cwgeom.dynamics import (
    block_determinant,
    fixed_point,
    inessential_rescaling,
    is_essential,
    normal_form,
    orbit_obstruction_sequence,
    pd_necessary_report,
    solve_conjugation_beta,
)
from cwgeom.errors import (
    IncompatibleProfileError,
    OverflowingValueError,
    PreconditionError,
    ResonanceError,
    UnsupportedCaseError,
)
from cwgeom.group import (
    Homothety,
    apply,
    compose,
    conjugate,
    element_distance,
    identity,
    inverse,
    power,
)

from conftest import random_homothety, random_point, random_profile
from test_group_law import KINDS, spectral_profile


def _rot(angle):
    return np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])


class TestFixedPoint:
    def test_strict_biconditional(self, rng):
        # a strict homothety fixes a point iff eps = -1 or c = 0
        branches = [(1, 1.3), (1, 0.0), (-1, 0.8), (-1, 0.0)]
        for i in range(40):
            eps, c = branches[i % 4]
            prof = random_profile(rng)
            phi = random_homothety(prof, rng, strict=True, eps=eps, c=c)
            rep = fixed_point(phi)
            expected = (eps == -1) or abs(c) <= 1e-12
            assert rep.exists == expected
            if rep.exists:
                assert rep.residual <= 1e-8
                q = apply(phi, rep.point)
                assert np.max(np.abs(q - rep.point)) <= 1e-8
            else:
                assert rep.reason == "none_translation"

    def test_strict_reasons(self, rng):
        prof = random_profile(rng, 2)
        assert fixed_point(random_homothety(prof, rng, strict=True, eps=-1,
                                            c=0.5)).reason == "strict_eps_minus1"
        assert fixed_point(random_homothety(prof, rng, strict=True, eps=1,
                                            c=0.0)).reason == "strict_c_zero"

    def test_isometry_reflection(self, rng):
        # eps = -1 isometry with trivial rotation: a fixed point needs
        # beta(c/2) = 0 on the x-block
        prof = random_profile(rng, 2)
        c = 0.9
        seed = BetaSolution(prof, np.zeros(2), rng.normal(size=2))
        beta = BetaSolution(prof, *beta_eval(seed, -c / 2.0))  # vanishes at t = c/2
        phi = Homothety(prof, c=c, eps=-1, beta=beta)
        rep = fixed_point(phi)
        assert rep.exists and rep.residual <= 1e-8
        # generic beta: no solution of the degenerate affine system
        bad = Homothety(prof, c=c, eps=-1,
                        beta=BetaSolution(prof, [1.0, 2.0], [0.5, 0.0]))
        assert not fixed_point(bad).exists

    def test_isometry_translation_free(self, rng):
        prof = random_profile(rng, 2)
        # pure rotation around the origin
        prof_rot = SymmetricProfile(-np.eye(2))
        rot = Homothety(prof_rot, A=_rot(0.9))
        rep = fixed_point(rot)
        assert rep.exists and np.max(np.abs(rep.point)) <= 1e-10
        # adding a central shift destroys the fixed point
        assert not fixed_point(Homothety(prof_rot, A=_rot(0.9), b=1.0)).exists
        # a t-translation has none
        assert not fixed_point(Homothety(prof, c=1.0)).exists

    def test_torsion_rotation_order_four(self):
        # quarter-turn with a Heisenberg part; the central parameter is
        # adjusted so that phi^4 = id (the cocycle residue), and then the
        # isometry has a genuine fixed point
        prof = SymmetricProfile(-np.eye(2))
        beta = BetaSolution(prof, [1.0, -0.3], [0.2, 0.7])
        phi0 = Homothety(prof, beta=beta, A=_rot(np.pi / 2))
        k = 4
        residue = power(phi0, k)
        phi = Homothety(prof, b=-residue.b / k, beta=beta, A=_rot(np.pi / 2))
        assert element_distance(power(phi, k), identity(prof)) <= 1e-9
        rep = fixed_point(phi)
        assert rep.exists and rep.reason == "isometry_euclidean_fp"
        assert rep.residual <= 1e-8
        assert np.max(np.abs(rep.point - [0.0, 0.65, 0.35, 0.0])) <= 1e-12

    def test_torsion_reflection_order_two(self, rng):
        # eps = -1, beta odd around t = c/2, order two
        prof = random_profile(rng, 2)
        c = 0.7
        seed = BetaSolution(prof, np.zeros(2), rng.normal(size=2))
        beta = BetaSolution(prof, *beta_eval(seed, -c / 2.0))
        phi0 = Homothety(prof, c=c, eps=-1, beta=beta)
        residue = power(phi0, 2)
        assert abs(residue.c) <= 1e-12
        phi = Homothety(prof, c=c, eps=-1, beta=beta, b=phi0.b - residue.b / 2)
        assert element_distance(power(phi, 2), identity(prof)) <= 1e-9
        rep = fixed_point(phi)
        assert rep.exists and rep.residual <= 1e-8

    def test_torsion_residual_gates_existence(self):
        # phi^4 = id only up to 4e-7 in b: the 1e-7 v-shift leaves no
        # fixed point
        prof = SymmetricProfile(-np.eye(2))
        beta = BetaSolution(prof, [1.0, -0.3], [0.2, 0.7])
        residue = power(Homothety(prof, beta=beta, A=_rot(np.pi / 2)), 4)
        phi = Homothety(prof, b=-residue.b / 4 + 1e-7, beta=beta, A=_rot(np.pi / 2))
        assert element_distance(power(phi, 4), identity(prof)) <= 1e-6
        rep = fixed_point(phi)
        assert not rep.exists and rep.point is None


def _conjugated_isometry(eps, scale, rng):
    """g h g^-1 for h = (eps, A) with A a random element of C_O(n)(S), which
    fixes the origin, and g a translation whose b and beta have size
    `scale`: an isometry with c = 0 that fixes the point g(0)."""
    n = int(rng.integers(2, 5))
    prof = SymmetricProfile(-rng.uniform(0.5, 2.0) * np.eye(n))
    h = Homothety(prof, eps=eps, A=random_centralising_orthogonal(prof, rng))
    g = Homothety(prof, b=scale * rng.normal(),
                  beta=BetaSolution(prof, scale * rng.normal(size=n), scale * rng.normal(size=n)))
    return conjugate(g, h)


class TestFixedPointScale:
    """The fixed-point gates are relative to what their residuals subtract,
    so a fixed point is found at any size of beta and b."""

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
    def test_conjugated_isometries_have_fixed_points(self, eps, scale, rng):
        for _ in range(12):
            phi = _conjugated_isometry(eps, scale, rng)
            rep = fixed_point(phi)
            assert rep.exists and rep.reason == "isometry_euclidean_fp"
            assert rep.residual <= 1e-8 * scale ** 2

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_true_v_shift_is_no_fixed_point(self, scale, rng):
        # a v-shift of 1e-6 times the terms the v-equation subtracts
        for _ in range(12):
            phi = _conjugated_isometry(1, scale, rng)
            x = fixed_point(phi).point[1:-1]
            val, der = beta_eval(phi.beta, 0.0)
            size = max(abs(phi.b), abs(float(der @ (phi.A @ x))), 0.5 * abs(float(der @ val)))
            assert not fixed_point(replace(phi, b=phi.b + 1e-6 * size)).exists


def _c_zero_isometry():
    """S = -I, beta(t) = sin(t - 1) e_1 (the solution (0, e_1) shifted by -1) and
    b = 0.7: an eps = +1 isometry with c = 0 whose t-part fixes every t,
    and the point (1, (0.7, 0), 0.3) it fixes."""
    prof = SymmetricProfile(-np.eye(2))
    beta = BetaSolution(prof, *beta_eval(BetaSolution(prof, [0.0, 0.0], [1.0, 0.0]), -1.0))
    return Homothety(prof, b=0.7, beta=beta), np.array([1.0, 0.7, 0.0, 0.3])


def test_c_zero_isometry_fixes_a_point_off_t_zero():
    phi, p = _c_zero_isometry()
    assert phi.c == 0.0 and phi.eps == 1 and not phi.is_strict
    assert np.max(np.abs(apply(phi, p) - p)) <= 1e-15


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: fixed_point tries only t* = 0 for an "
                   "eps = +1 isometry with c = 0, and reports none_translation; the t at "
                   "which the x-system is consistent and the v-shift vanishes needs a search")
def test_c_zero_isometry_fixed_point_is_found():
    phi, p = _c_zero_isometry()
    assert fixed_point(phi).exists


def _rotation_of_order(prof, k, rng):
    """A rotation by 2 pi / k in a plane of a repeated eigenvalue of S, and
    a beta inside that plane, so that the element is torsion once its b
    cancels the cocycle residue."""
    blk = next(b for b in prof.spectrum if b.multiplicity >= 2)
    B = blk.basis[:, :2]
    A = np.eye(prof.n) + B @ (_rot(2 * np.pi / k) - np.eye(2)) @ B.T
    beta = BetaSolution(prof, B @ rng.uniform(-2, 2, 2), B @ rng.uniform(-2, 2, 2))
    return A, beta


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(4, 5), k=st.sampled_from([2, 3, 4, 6]),
       reflection=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_finite_order_isometries_have_verified_fixed_points(kind, n, k, reflection, seed):
    """Every finite-order isometry fixes a point, and fixed_point finds it:
    rotations of order k on a repeated eigenvalue with the b-residue of
    phi^k removed, and eps = -1 reflections with beta odd about c/2."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(kind, n, rng, True)
    if reflection:
        k, c = 2, float(rng.uniform(-2, 2))
        odd = BetaSolution(prof, np.zeros(n), rng.uniform(-2, 2, n))
        phi = Homothety(prof, c=c, eps=-1, beta=BetaSolution(prof, *beta_eval(odd, -c / 2.0)))
    else:
        A, beta = _rotation_of_order(prof, k, rng)
        residue = power(Homothety(prof, beta=beta, A=A), k)
        phi = Homothety(prof, b=-residue.b / k, beta=beta, A=A)
    assert element_distance(power(phi, k), identity(prof)) <= 1e-9
    rep = fixed_point(phi)
    assert rep.exists and rep.residual <= 1e-8
    assert np.max(np.abs(apply(phi, rep.point) - rep.point)) <= 1e-8


class TestEssentiality:
    def test_trichotomy(self, rng):
        # strict homotheties: essential iff fixed point; the remaining
        # branch admits an equivariant rescaling making phi an isometry
        branches = [(1, 1.1), (1, 0.0), (-1, 0.6), (-1, 0.0)]
        for i in range(20):
            eps, c = branches[i % 4]
            prof = random_profile(rng)
            phi = random_homothety(prof, rng, strict=True, eps=eps, c=c)
            essential = is_essential(phi)
            assert essential == fixed_point(phi).exists
            if not essential:
                f = inessential_rescaling(phi)
                for _ in range(25):
                    p = random_point(rng, prof.n, scale=3.0)
                    assert abs(f(apply(phi, p)) - (f(p) - phi.s)) <= 1e-8

    def test_rescaling_negative_shift(self, rng):
        # both signs of c must work
        prof = random_profile(rng, 2)
        phi = random_homothety(prof, rng, strict=True, eps=1, c=-1.7)
        f = inessential_rescaling(phi)
        for _ in range(25):
            p = random_point(rng, 2, scale=3.0)
            assert abs(f(apply(phi, p)) - (f(p) - phi.s)) <= 1e-8

    def test_rescaling_is_minus_s_t_over_c(self):
        # f = -s t / c, pinned where every product is exact
        prof = SymmetricProfile(-np.eye(2))
        f = inessential_rescaling(Homothety(prof, c=2.0, s=0.5, b=1.0))
        assert f(np.array([3.0, 1.0, -2.0, 0.5])) == -0.75
        pts = np.column_stack([[-4.0, 0.0, 1.5, 8.0], np.ones((4, 3))])
        np.testing.assert_array_equal(f(pts), [1.0, 0.0, -0.375, -2.0])

    def test_preconditions(self, rng):
        prof = random_profile(rng, 2)
        iso = random_homothety(prof, rng, strict=False)
        with pytest.raises(PreconditionError):
            is_essential(iso)
        fixed = random_homothety(prof, rng, strict=True, eps=-1)
        with pytest.raises(PreconditionError):
            inessential_rescaling(fixed)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       c=st.floats(1e-3, 10.0), negative=st.booleans(), u=st.floats(-3.0, 3.0))
def test_rescaling_equivariant_to_round_off(kind, n, seed, c, negative, u):
    """|f(phi p) - f(p) + s| <= 4 ulp |s| (1 + |t/c|) for a fixed-point-free
    strict phi (eps = +1) at a point p with t in [-3|c|, 3|c|]."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(kind, n, rng, False)
    c = -c if negative else c
    phi = random_homothety(prof, rng, strict=True, eps=1, c=c)
    p = np.concatenate(([u * abs(c)], rng.normal(size=prof.n), [rng.normal()]))
    f = inessential_rescaling(phi)
    bound = 4 * np.finfo(float).eps * abs(phi.s) * (1 + abs(p[0] / c))
    assert abs(f(apply(phi, p)) - f(p) + phi.s) <= bound


class TestConjugationSolve:
    def test_pinned_scalar_example(self):
        # S = -1, A = 1, s = ln 2, c = pi, betahat = cos t:
        # the block matrix is diag(-3, -3), so beta = -cos(t)/3
        prof = SymmetricProfile(-np.eye(1))
        betahat = BetaSolution(prof, [1.0], [0.0])
        beta = solve_conjugation_beta(prof, np.eye(1), np.log(2.0), np.pi,
                                      betahat)
        assert beta.beta0[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert beta.beta1[0] == pytest.approx(0.0, abs=1e-12)

    def test_functional_equation(self, rng):
        # e^s A beta(t + c) - beta(t) = betahat(t) at sample times
        for _ in range(10):
            prof = random_profile(rng)
            n = prof.n
            from cwgeom.core import random_centralising_orthogonal
            A = random_centralising_orthogonal(prof, rng)
            s = float(rng.uniform(0.3, 1.0))
            c = float(rng.uniform(0.5, 1.5))
            if any(b.eigenvalue > 0 and
                   abs((s / c) ** 2 - b.eigenvalue) < 1e-3
                   for b in prof.spectrum):
                continue
            betahat = BetaSolution(prof, rng.normal(size=n),
                                   rng.normal(size=n))
            try:
                beta = solve_conjugation_beta(prof, A, s, c, betahat)
            except ResonanceError:
                continue
            for t in (0.0, 0.5, 1.2):
                v1, _ = beta_eval(beta, t + c)
                v0, _ = beta_eval(beta, t)
                vh, _ = beta_eval(betahat, t)
                assert np.max(np.abs(np.exp(s) * (A @ v1) - v0 - vh)) <= 1e-7

    def test_resonance_raises(self):
        # S = 1, c = 1, s = 1 sits exactly on the resonance (s/c)^2 = 1
        prof = SymmetricProfile(np.eye(1))
        with pytest.raises(ResonanceError):
            solve_conjugation_beta(prof, np.eye(1), 1.0, 1.0,
                                   BetaSolution(prof, [1.0], [0.0]))

    @pytest.mark.parametrize("A", [np.eye(2), np.diag([1.0, -1.0])],
                             ids=["identity", "reflection"])
    def test_resonance_raises_where_A_fixes_a_vector(self, A):
        # (s/c)^2 = 1 on S = I_2, and A fixes e_1: the system is singular
        prof = SymmetricProfile(np.eye(2))
        with pytest.raises(ResonanceError):
            solve_conjugation_beta(prof, A, -1.0, 1.0,
                                   BetaSolution(prof, [1.0, 0.5], [0.5, 1.0]))

    @pytest.mark.parametrize("S, A", [([[1.0]], [[-1.0]]),
                                      (np.eye(2), [[0.0, -1.0], [1.0, 0.0]])],
                             ids=["reflection", "quarter-turn"])
    def test_resonance_without_a_fixed_vector_of_A_is_solved(self, S, A):
        """(s/c)^2 = 1 hits the eigenvalue 1 of S, but A fixes no vector of
        its eigenspace, so e^{s +- c} mu - 1 != 0 for every eigenvalue mu of
        A there: normal_form conjugates phi, and the conjugation rebuilds it."""
        prof = SymmetricProfile(S)
        beta = BetaSolution(prof, [1.0, 0.5][:prof.n], [0.5, 1.0][:prof.n])
        phi = Homothety(prof, b=0.3, beta=beta, c=1.0, s=-1.0, A=A)
        res = normal_form(phi)
        assert res.residual <= 1e-14
        assert element_distance(conjugate(inverse(res.conjugator), res.normal), phi) <= 1e-14

    def test_requires_strict(self):
        prof = SymmetricProfile(np.eye(1))
        with pytest.raises(PreconditionError):
            solve_conjugation_beta(prof, np.eye(1), 0.0, 1.0,
                                   BetaSolution(prof, [1.0], [0.0]))

    def test_block_determinant_root_locus(self):
        # for a positive eigenvalue lambda^2 the scalar block determinant
        # is (e^s - e^{lambda c})(e^s - e^{-lambda c}): it vanishes exactly
        # at s = +-lambda c and nowhere else
        lam, c = 1.3, 0.8
        for sgn in (1, -1):
            s = sgn * lam * c
            scale = max(1.0, np.exp(2 * abs(s)))
            assert abs(block_determinant(lam ** 2, s, c)) <= 1e-8 * scale
        for s in (0.0, 0.5, lam * c + 0.05, -lam * c - 0.2):
            if abs(abs(s) - lam * c) < 1e-9:
                continue
            expected = (np.exp(s) - np.exp(lam * c)) * (np.exp(s) - np.exp(-lam * c))
            det = block_determinant(lam ** 2, s, c)
            assert det == pytest.approx(expected, rel=1e-8)
            assert abs(det) > 1e-3
        # negative eigenvalues never resonate for s != 0
        assert abs(block_determinant(-1.0, 0.4, 2.0)) > 1e-3


def block_loop_conjugation_beta(profile, A, s, c, betahat):
    """Reference: the 2d x 2d conjugation system on each eigenspace of S,
    solved block by block.  Returns (beta0, beta1) and the largest
    condition number of a block."""
    b0, b1, cond = np.zeros(profile.n), np.zeros(profile.n), 1.0
    for blk in profile.spectrum:
        Q, d, ev = blk.basis, blk.multiplicity, blk.eigenvalue
        E = np.exp(s) * (Q.T @ A @ Q)
        if ev < 0:
            mu = np.sqrt(-ev)
            ch, sh, d0 = np.cos(mu * c), np.sin(mu * c) / mu, -mu * np.sin(mu * c)
        elif ev > 0:
            lam = np.sqrt(ev)
            ch, sh, d0 = np.cosh(lam * c), np.sinh(lam * c) / lam, lam * np.sinh(lam * c)
        else:
            ch, sh, d0 = 1.0, c, 0.0
        M = np.block([[ch * E - np.eye(d), sh * E], [d0 * E, ch * E - np.eye(d)]])
        cond = max(cond, float(np.linalg.cond(M)))
        sol = np.linalg.solve(M, np.concatenate([Q.T @ betahat.beta0, Q.T @ betahat.beta1]))
        b0 += Q @ sol[:d]
        b1 += Q @ sol[d:]
    return b0, b1, cond


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 5), repeat=st.booleans(),
       seed=st.integers(0, 2**32 - 1), s=st.floats(0.05, 2.0), s_sign=st.sampled_from([-1, 1]),
       c=st.floats(-2.5, 2.5))
def test_conjugation_solve_matches_block_loop(kind, n, repeat, seed, s, s_sign, c):
    """The one eigenbasis solve agrees with the per-block solve, relative to
    the parameter scale.  Both are backward stable, so they may differ by
    the conditioning times round-off: near-resonant draws are left out."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(kind, n, rng, repeat)
    # one draw is a reflection on a 2-dimensional eigenspace, so a product
    # of two gives rotations too
    A = random_centralising_orthogonal(prof, rng) @ random_centralising_orthogonal(prof, rng)
    s = s_sign * s
    betahat = BetaSolution(prof, rng.uniform(-2, 2, prof.n), rng.uniform(-2, 2, prof.n))
    ref0, ref1, cond = block_loop_conjugation_beta(prof, A, s, c, betahat)
    assume(cond <= 1e3)
    beta = solve_conjugation_beta(prof, A, s, c, betahat)
    scale = max(1.0, *(float(np.max(np.abs(v)))
                       for v in (betahat.beta0, betahat.beta1, ref0, ref1)))
    assert np.max(np.abs(beta.beta0 - ref0)) <= 1e-12 * scale
    assert np.max(np.abs(beta.beta1 - ref1)) <= 1e-12 * scale


class TestNormalForm:
    def test_already_normal(self, rng):
        prof = random_profile(rng, 2)
        phi = Homothety(prof, c=0.9, s=0.6)
        res = normal_form(phi)
        assert res.residual <= 1e-9
        assert element_distance(res.normal, phi) <= 1e-8

    def test_random_suite(self, rng):
        count = 0
        while count < 25:
            prof = random_profile(rng)
            phi = random_homothety(prof, rng, strict=True, eps=1)
            try:
                res = normal_form(phi)
            except ResonanceError:
                continue
            count += 1
            assert res.residual <= 1e-7
            assert abs(res.normal.b) <= 1e-12
            assert np.max(np.abs(res.normal.beta.beta0)) <= 1e-12
            assert np.max(np.abs(res.normal.beta.beta1)) <= 1e-12
            assert res.normal.c >= 0.0
            # the conjugator actually performs the conjugation
            check = conjugate(res.conjugator, phi)
            assert element_distance(check, res.normal) <= 1e-6

    def test_sign_flip_uses_reflection(self, rng):
        prof = SymmetricProfile(-np.eye(2))
        phi = Homothety(prof, c=-1.2, s=0.5, b=0.3)
        res = normal_form(phi)
        assert res.normal.c == pytest.approx(1.2)
        assert res.conjugator.eps == -1

    def test_resonant_raises(self):
        prof = SymmetricProfile(np.eye(1))
        with pytest.raises(ResonanceError):
            normal_form(Homothety(prof, c=1.0, s=1.0,
                                  beta=BetaSolution(prof, [1.0], [0.0])))

    def test_preconditions(self, rng):
        prof = random_profile(rng, 2)
        with pytest.raises(PreconditionError):
            normal_form(random_homothety(prof, rng, strict=False, eps=1))
        with pytest.raises(UnsupportedCaseError):
            normal_form(random_homothety(prof, rng, strict=True, eps=-1))


class TestOrbitObstruction:
    def test_convergence_and_rate(self, rng):
        for _ in range(5):
            prof = SymmetricProfile(-np.diag(rng.uniform(0.5, 4.0, size=2)))
            s_g = float(rng.uniform(0.4, 0.9))
            gamma = Homothety(prof, c=float(rng.uniform(0.5, 1.5)), s=s_g)
            phi = random_homothety(prof, rng, eps=1, c=0.8)
            rep = orbit_obstruction_sequence(gamma, phi, K=60)
            assert rep.converged
            assert np.max(np.abs(rep.points[-1].as_array() - rep.limit)) <= 1e-6
            assert rep.rate is not None
            assert abs(rep.rate - np.exp(-s_g)) <= 0.1 * np.exp(-s_g)

    def test_limit_is_c_phi(self, rng):
        prof = SymmetricProfile(-np.eye(1))
        gamma = Homothety(prof, c=1.0, s=0.7)
        phi = Homothety(prof, c=1.4, beta=BetaSolution(prof, [2.0], [0.0]),
                        b=3.0)
        rep = orbit_obstruction_sequence(gamma, phi, K=60)
        assert rep.limit[0] == pytest.approx(1.4)
        assert np.max(np.abs(rep.points[-1].as_array() - rep.limit)) <= 1e-8

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_conjugates_are_the_walk(self, rng, n):
        """The report carries gamma^{-k} phi gamma^k for k = 1..K, the
        same floats as the walk by hand, and point k is the image of the
        origin under conjugate k, the same floats as one apply of it."""
        prof = random_profile(rng, n)
        gamma = Homothety(prof, c=0.9, s=0.4, A=random_centralising_orthogonal(prof, rng))
        phi = random_homothety(prof, rng, eps=1, c=0.8)
        rep = orbit_obstruction_sequence(gamma, phi, K=12)
        assert len(rep.conjugates) == 12
        origin = np.zeros(n + 2)
        prev = phi
        for conj, point in zip(rep.conjugates, rep.points):
            prev = compose(inverse(gamma), compose(prev, gamma))
            assert element_distance(conj, prev) == 0.0
            np.testing.assert_array_equal(apply(conj, origin), point.as_array())

    def test_decaying_mode_stays_at_round_off(self):
        """S = 1, gamma = (c = 1, s = 1) and zeta with beta = e^{-t}: the walk
        gives x_k = e^{-2k} to 1e-13 relative for k = 1..20 (1.8e-15 today).
        A closed form of the conjugates evaluates beta at k c_gamma and
        loses this decaying mode (relative error 1.7 at k = 19), so the
        orbit is batched only once beta is stored as growing and decaying
        amplitudes (ROADMAP item 2)."""
        prof = SymmetricProfile(np.eye(1))
        gamma = Homothety(prof, c=1.0, s=1.0)
        zeta = Homothety(prof, beta=BetaSolution(prof, [1.0], [-1.0]))
        rep = orbit_obstruction_sequence(gamma, zeta, K=20)
        x = np.array([p.x[0] for p in rep.points])
        decay = np.exp(-2.0 * np.arange(1, 21))
        assert np.max(np.abs(x - decay) / decay) <= 1e-13

    def test_gamma_must_be_in_quotient_factor(self, rng):
        prof = SymmetricProfile(-np.eye(1))
        bad = Homothety(prof, c=1.0, s=0.5,
                        beta=BetaSolution(prof, [1.0], [0.0]))
        with pytest.raises(PreconditionError):
            orbit_obstruction_sequence(bad, Homothety(prof, c=1.0))

    @pytest.mark.parametrize("K", [0, -3])
    def test_needs_at_least_one_step(self, K):
        prof = SymmetricProfile(-np.eye(1))
        with pytest.raises(PreconditionError):
            orbit_obstruction_sequence(Homothety(prof, c=1.0, s=0.5),
                                       Homothety(prof, c=1.0), K=K)


class TestPDReport:
    def test_needs_a_generator(self):
        with pytest.raises(PreconditionError):
            pd_necessary_report([])

    def test_generators_over_different_profiles_raise(self):
        # the sweep reads every word on the first generator's profile, so
        # generators over another one are refused, as compose refuses them
        g1 = Homothety(SymmetricProfile(np.diag([1.0, -1.0])), c=1.0, s=0.5)
        g2 = Homothety(SymmetricProfile(np.diag([4.0, -9.0])), c=1.0, s=2.5)
        with pytest.raises(IncompatibleProfileError):
            compose(g1, g2)
        with pytest.raises(IncompatibleProfileError):
            pd_necessary_report([g1, g2], max_length=2)

    def test_imaginary_strict_obstruction(self):
        prof = SymmetricProfile(-np.eye(2))
        rep = pd_necessary_report([Homothety(prof, c=1.0, s=0.5)],
                                  max_length=2)
        assert rep.space_type == "imaginary"
        assert not rep.clean
        assert any(o.kind == "imaginary-strict" for o in rep.obstructions)

    def test_fixed_point_obstruction(self):
        prof = SymmetricProfile(np.eye(2))
        rep = pd_necessary_report([Homothety(prof, c=0.0, s=0.5)],
                                  max_length=1)
        assert any(o.kind == "fixed-point" for o in rep.obstructions)

    def test_inequality_obstruction(self):
        prof = SymmetricProfile(np.eye(2))  # lambda_max = 1
        rep = pd_necessary_report([Homothety(prof, c=1.0, s=2.5)],
                                  max_length=1)
        assert any(o.kind == "inequality" for o in rep.obstructions)

    def test_clean_cases(self):
        prof = SymmetricProfile(np.eye(2))
        # a slow strict element satisfies the necessary inequality
        rep = pd_necessary_report([Homothety(prof, c=1.0, s=0.5)],
                                  max_length=2)
        assert rep.clean and rep.words_checked > 0
        # isometries are never flagged
        prof_im = SymmetricProfile(-np.eye(2))
        rep = pd_necessary_report([Homothety(prof_im, c=1.0),
                                   Homothety(prof_im, b=1.0)], max_length=2)
        assert rep.clean


def product_loop_pd_report(generators, max_length):
    """Reference sweep: every combination of letters from
    itertools.product, cancelling words skipped, and each word's element
    folded from the identity.  Gives (space type, lambda_max^2, words
    checked, [(word, kind, detail), ...])."""
    prof = generators[0].profile
    cls = classify(prof)
    letters = []
    for i, g in enumerate(generators):
        letters.append((i + 1, g))
        letters.append((-(i + 1), inverse(g)))
    obstructions = []
    seen = 0
    for length in range(1, max_length + 1):
        for combo in itertools.product(letters, repeat=length):
            word = tuple(idx for idx, _ in combo)
            if any(word[i] == -word[i + 1] for i in range(length - 1)):
                continue
            elem = identity(prof)
            for _, g in combo:
                elem = compose(elem, g)
            seen += 1
            if not elem.is_strict:
                continue
            if elem.eps == -1 or abs(elem.c) <= PARAM_TOL:
                obstructions.append((word, "fixed-point",
                                     f"strict element with eps={elem.eps}, c={elem.c:.3g} "
                                     "fixes a point"))
            elif cls.type == "imaginary":
                obstructions.append((word, "imaginary-strict",
                                     "imaginary type admits no strict homothety in a PD "
                                     "cocompact group"))
            elif cls.lambda_max_sq is not None:
                ratio_sq = (elem.s / elem.c) ** 2
                if ratio_sq > cls.lambda_max_sq + 1e-12:
                    obstructions.append((word, "inequality",
                                         f"(s/c)^2 = {ratio_sq:.6g} exceeds lambda_max^2 = "
                                         f"{cls.lambda_max_sq:.6g}"))
    return cls.type, cls.lambda_max_sq, seen, obstructions


def library_pd_report(generators, max_length):
    """pd_necessary_report in the reference sweep's form."""
    rep = pd_necessary_report(generators, max_length)
    return (rep.space_type, rep.lambda_max_sq, rep.words_checked,
            [(o.word, o.kind, o.detail) for o in rep.obstructions])


def _outcome(sweep, generators, max_length):
    """A sweep's result, or its error's type and message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return sweep(generators, max_length)
    except Exception as exc:
        return type(exc), str(exc)


class TestPDSweepOrder:
    """The sweep extends each word of one length by a letter; it must give
    what folding every word from the identity gives, word for word."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 3),
           eps=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=3),
           strict=st.lists(st.booleans(), min_size=3, max_size=3),
           max_length=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_product_loop(self, kind, n, eps, strict, max_length, seed):
        rng = np.random.default_rng(seed)
        prof = spectral_profile(kind, n, rng, repeat=False)
        gens = [random_homothety(prof, rng, strict=strict_g, eps=eps_g)
                for eps_g, strict_g in zip(eps, strict)]
        assert (_outcome(library_pd_report, gens, max_length)
                == _outcome(product_loop_pd_report, gens, max_length))

    @pytest.mark.parametrize("make", [
        # b = e^{2 s1} b2 = inf at the word (1, 2)
        lambda: [Homothety(SymmetricProfile([[1.0]]), s=354.0),
                 Homothety(SymmetricProfile([[1.0]]), b=100.0)],
        # the word (2, 1) evaluates beta_2 at t = 8e15, past its phase limit
        lambda: [Homothety(SymmetricProfile([[-1.0]]), c=8e15, s=0.1),
                 Homothety(SymmetricProfile([[-1.0]]), b=1.0,
                           beta=BetaSolution(SymmetricProfile([[-1.0]]), [0.5], [0.2]))],
    ], ids=["overflow", "phase-lost"])
    def test_failing_word_raises_as_product_loop(self, make):
        gens = make()
        expected = _outcome(product_loop_pd_report, gens, 3)
        assert isinstance(expected[0], type)
        assert _outcome(library_pd_report, gens, 3) == expected

    @pytest.mark.parametrize("block_entries", [dynamics.PD_BLOCK_ENTRIES, 3 * 9, 9],
                             ids=["one-block", "3-row-blocks", "1-row-blocks"])
    @pytest.mark.parametrize("order, first", [
        ("overflow-then-phase", OverflowingValueError),
        ("phase-then-overflow", PreconditionError),
        ("both-in-one-word", PreconditionError),
    ], ids=["overflow-then-phase", "phase-then-overflow", "both-in-one-word"])
    def test_first_failing_word_in_a_level_decides(self, monkeypatch, block_entries,
                                                   order, first):
        # on S = [[-1]]: the word (big-s, big-b) has b = e^{708} 100 = inf,
        # and the word (beta, far) reads beta at t = 8e15, past its phase
        # limit; with blocks of (n+2)^2 = 9 entries per row, a level of
        # these words spans blocks of 3 rows or of 1, so the two failing
        # words lie in different blocks
        prof = SymmetricProfile([[-1.0]])
        big_s, big_b = Homothety(prof, s=354.0), Homothety(prof, b=100.0)
        far = Homothety(prof, c=8e15, s=0.1)
        beta = Homothety(prof, b=1.0, beta=BetaSolution(prof, [0.5], [0.2]))
        gens = {"overflow-then-phase": [big_s, big_b, far, beta],
                "phase-then-overflow": [beta, far, big_s, big_b],
                # (1, 2) both loses its phase and overflows
                "both-in-one-word": [replace(beta, s=354.0), replace(far, b=100.0)]}[order]
        monkeypatch.setattr(dynamics, "PD_BLOCK_ENTRIES", block_entries)
        expected = _outcome(product_loop_pd_report, gens, 2)
        assert expected[0] is first
        assert _outcome(library_pd_report, gens, 2) == expected

    @pytest.mark.parametrize("g, max_length", [(1, 4), (2, 3), (3, 4)])
    def test_one_compose_per_level_block(self, monkeypatch, g, max_length):
        # each level here fits in one block: one batched compose per length,
        # whose rows are that length's words
        rng = np.random.default_rng(5)
        prof = spectral_profile("mixed", 2, rng, repeat=False)
        gens = [random_homothety(prof, rng, strict=True) for _ in range(g)]
        rows = []

        def counted(phi, psi):
            rows.append(len(psi.c))
            return compose(phi, psi)

        monkeypatch.setattr(dynamics, "compose", counted)
        report = pd_necessary_report(gens, max_length)
        assert rows == [2 * g * (2 * g - 1) ** k for k in range(max_length)]
        assert sum(rows) == report.words_checked
