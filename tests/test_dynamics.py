"""Fixed points, essentiality, normal forms, orbit obstructions."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cwgeom import dynamics, group
from cwgeom.core import (
    PARAM_TOL,
    RESONANCE_TOL,
    BetaSolution,
    SymmetricProfile,
    beta_eval,
    classify,
)
from cwgeom.dynamics import (
    _conjugation_beta,
    fixed_point,
    inessential_rescaling,
    is_essential,
    normal_form,
    orbit_obstruction_sequence,
    pd_necessary_report,
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

from conftest import (eigenspaces, haar_orthogonal, in_frame, random_centralising_orthogonal,
                      random_homothety, random_point, random_profile)
from oracles import bit_equal, block_determinant, recurrence_orbit_sequence
from test_group_law import KINDS, element, spectral_profile


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

    def test_a_large_v_term_does_not_excuse_the_x_block(self):
        """Each coordinate of the residual is judged against its own terms:
        phi moves x by beta(0) = (1, 0), and b = 1e9 sizes v only."""
        prof = SymmetricProfile(-np.eye(2))
        phi = Homothety(prof, b=1e9, eps=-1, beta=BetaSolution(prof, [1.0, 0.0], [0.0, 0.0]))
        assert not fixed_point(phi).exists


class TestFixedPointRank:
    """An isometry's x-solve reads a singular value of A - I at or below
    PARAM_TOL as 0, as the entry gate reads A, and keeps one above it."""

    @staticmethod
    def _turned(angle, s=0.0):
        prof = SymmetricProfile(-np.eye(2))
        return Homothety(prof, c=0.4, eps=-1, A=_rot(angle), s=s,
                         beta=BetaSolution(prof, [1.0, 0.0], [0.0, 0.5]))

    def test_a_round_off_rotation_is_the_identity(self):
        # A - I has singular values 1e-12, and beta(0.2) != 0: no fixed point
        rep = fixed_point(self._turned(1e-12))
        assert not rep.exists and rep.point is None

    def test_a_small_rotation_keeps_its_fixed_point(self):
        phi = self._turned(1e-6)
        rep = fixed_point(phi)
        assert rep.exists and 9e5 < np.max(np.abs(rep.point[1:-1])) < 1.1e6
        assert rep.residual <= 1e-8

    def test_singular_values_straddling_the_threshold(self):
        # A - I has the singular values 5e-10 on the first plane, read as 0,
        # and 2e-9 on the second, kept; in a Haar frame the round-off of
        # O A O^T moves the split of the planes by about 1e-16 / 1.5e-9, past
        # FIXED_POINT_TOL, so this case is judged only in its own frame
        prof = SymmetricProfile(-np.eye(4))
        A = np.eye(4)
        A[:2, :2], A[2:, 2:] = _rot(5e-10), _rot(2e-9)
        kept = fixed_point(Homothety(prof, eps=-1, A=A,
                                     beta=BetaSolution(prof, [0, 0, 1.0, 0], [0, 0, 0, 1.0])))
        assert kept.exists
        assert np.allclose(kept.point, [0, 0, 0, 0, 5e8, 2.5e8], rtol=1e-6, atol=1e-6)
        # beta(0) on the first plane: A is I there, and moves the origin by beta(0)
        cut = fixed_point(Homothety(prof, eps=-1, A=A,
                                    beta=BetaSolution(prof, [1.0, 0, 0, 0], [0, 0, 0, 0])))
        assert not cut.exists

    @pytest.mark.parametrize("angle", [1e-3, 0.5])
    def test_a_kept_singular_value_in_any_frame(self, angle):
        # A - I has the singular values 2e-9 on the second plane and about
        # the angle on the first; in a Haar frame O, x* ~ 5e8 puts round-off
        # of 1e-7 |beta(0)| on e^s A x* - x*, and at the angle 0.5 a
        # condition number ~ 2.5e8 puts about as much on the residual of a
        # backward-stable dense solve; the per-block SVD judges only the
        # cut part of beta(0), so the point is kept and maps by (t, O x, v)
        prof = SymmetricProfile(-np.eye(4))
        A = np.eye(4)
        A[:2, :2], A[2:, 2:] = _rot(angle), _rot(2e-9)
        phi = Homothety(prof, eps=-1, A=A,
                        beta=BetaSolution(prof, [1.0, 0, 1.0, 0], [0, 1.0, 0, 1.0]))
        rep = fixed_point(phi)
        assert rep.exists and np.max(np.abs(rep.point)) > 1e8
        rng = np.random.default_rng(0)
        for _ in range(20):
            O = haar_orthogonal(rng, 4)
            moved = fixed_point(in_frame(phi, O))
            assert moved.exists
            want = np.concatenate(([rep.point[0]], O @ rep.point[1:-1], [rep.point[-1]]))
            assert np.max(np.abs(moved.point - want)) <= 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("s", [5e-10, -5e-10])
    def test_an_isometry_with_a_small_s_keeps_its_fixed_point(self, s):
        # |s| <= PARAM_TOL makes phi an isometry, but with eps = -1 its
        # v-slope is -e^{2s}, so it fixes a point whatever s is: the x-solve
        # forms e^s A - I, as for a strict element
        rep = fixed_point(self._turned(0.01, s))
        assert rep.exists and rep.reason == "isometry_euclidean_fp"
        assert np.allclose(rep.point, fixed_point(self._turned(0.01)).point, rtol=1e-6)


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


_SADDLE = SymmetricProfile(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("run", [
    lambda beta: fixed_point(Homothety(_SADDLE, beta=beta, c=2000.0, eps=-1, s=0.5)),
    lambda beta: normal_form(Homothety(_SADDLE, beta=beta, c=800.0, s=0.5)),
    lambda beta: orbit_obstruction_sequence(Homothety(_SADDLE, c=2000.0, s=0.1),
                                            Homothety(_SADDLE, beta=beta, c=1.0, s=0.5))],
    ids=["fixed_point", "normal_form", "orbit"])
def test_an_overflowing_flow_raises_without_a_warning(run):
    """cosh(r t) overflows on the positive column of S = diag(1, -1): dynamics
    raises OverflowingValueError, as the group law does, and leaks no numpy
    RuntimeWarning, which the test configuration makes an error."""
    with pytest.raises(OverflowingValueError):
        run(BetaSolution(_SADDLE, [1.0, 0.0], [0.0, 1.0]))


@pytest.mark.xfail(strict=True, raises=OverflowingValueError,
                   reason="ROADMAP item 2, the flow's zero rule: beta = 0 is evaluated at "
                   "t* = 1000 as cosh(1000) * 0, which is not finite")
def test_a_strict_eps_minus1_element_without_beta_fixes_its_point():
    """Claim 2: phi = (0, 0, 2000, -1, I, 0.5) on S = diag(1, -1) is
    essential, and fixes (1000, 0, 0, 0) exactly."""
    phi = Homothety(_SADDLE, c=2000.0, eps=-1, s=0.5)
    rep = fixed_point(phi)
    assert rep.exists and np.array_equal(rep.point, [1000.0, 0.0, 0.0, 0.0])
    assert is_essential(phi)


def _rotation_of_order(prof, k, rng):
    """A rotation by 2 pi / k in a plane of a repeated eigenvalue of S, and
    a beta inside that plane, so that the element is torsion once its b
    cancels the cocycle residue."""
    B = next(basis for _, basis in eigenspaces(prof) if basis.shape[1] >= 2)[:, :2]
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
        beta = _conjugation_beta(np.eye(1), np.log(2.0), np.pi, betahat)
        assert beta.beta0[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert beta.beta1[0] == pytest.approx(0.0, abs=1e-12)

    def test_functional_equation(self, rng):
        # e^s A beta(t + c) - beta(t) = betahat(t) at sample times
        for _ in range(10):
            prof = random_profile(rng)
            n = prof.n
            A = random_centralising_orthogonal(prof, rng)
            s = float(rng.uniform(0.3, 1.0))
            c = float(rng.uniform(0.5, 1.5))
            if any(ev > 0 and abs((s / c) ** 2 - ev) < 1e-3
                   for ev, _ in eigenspaces(prof)):
                continue
            betahat = BetaSolution(prof, rng.normal(size=n),
                                   rng.normal(size=n))
            try:
                beta = _conjugation_beta(A, s, c, betahat)
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
            _conjugation_beta(np.eye(1), 1.0, 1.0,
                              BetaSolution(prof, [1.0], [0.0]))

    @pytest.mark.parametrize("A", [np.eye(2), np.diag([1.0, -1.0])],
                             ids=["identity", "reflection"])
    def test_resonance_raises_where_A_fixes_a_vector(self, A):
        # (s/c)^2 = 1 on S = I_2, and A fixes e_1: the system is singular
        prof = SymmetricProfile(np.eye(2))
        with pytest.raises(ResonanceError):
            _conjugation_beta(A, -1.0, 1.0,
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

    def test_a_simple_spectrum_solves_two_by_two_blocks(self, monkeypatch):
        """At n = 64 with 64 distinct eigenvalues the solve is one batched
        np.linalg.solve of 64 blocks of 2 x 2, and no 128 x 128 system."""
        rng = np.random.default_rng(5)
        prof = spectral_profile("mixed", 64, rng, False)
        assert len(set(prof.eigenvalues.tolist())) == 64
        shapes, real = [], np.linalg.solve

        def recorded(a, b):
            shapes.append(np.shape(a))
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", recorded)
        _conjugation_beta(random_centralising_orthogonal(prof, rng), 0.5, 0.7,
                          BetaSolution(prof, rng.normal(size=64), rng.normal(size=64)))
        assert shapes == [(64, 2, 2)]


def block_loop_conjugation_beta(profile, A, s, c, betahat):
    """Reference: the 2d x 2d conjugation system on each eigenspace of S,
    solved block by block in a loop, behind a resonance gate of its own:
    ResonanceError where |c| > PARAM_TOL, (s/c)^2 is within RESONANCE_TOL of
    a positive eigenvalue relative to it, and an eigenvalue of A's block is
    within RESONANCE_TOL of 1, or where a block is singular.  Returns
    (beta0, beta1) and the largest condition number of a block."""
    b0, b1, cond = np.zeros(profile.n), np.zeros(profile.n), 1.0
    for ev, Q in eigenspaces(profile):
        d = Q.shape[1]
        if (abs(c) > PARAM_TOL and ev > 0
                and abs((s / c) ** 2 - ev) <= RESONANCE_TOL * ev
                and np.abs(np.linalg.eigvals(Q.T @ A @ Q) - 1).min() <= RESONANCE_TOL):
            raise ResonanceError(f"resonance on the eigenvalue {ev}")
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
        try:
            sol = np.linalg.solve(M, np.concatenate([Q.T @ betahat.beta0, Q.T @ betahat.beta1]))
        except np.linalg.LinAlgError as exc:
            raise ResonanceError("singular block") from exc
        b0 += Q @ sol[:d]
        b1 += Q @ sol[d:]
    return b0, b1, cond


def _resonates(solve, *args):
    """Whether a conjugation solve raises ResonanceError."""
    try:
        solve(*args)
    except ResonanceError:
        return True
    return False


@pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-6, 1e-4])
@pytest.mark.parametrize("on_block", ["identity", "rotation"])
def test_resonance_verdicts_match_the_block_loop(delta, on_block):
    """On s = +-r c (1 + delta), r^2 a positive eigenvalue of S, the solve
    refuses exactly where the block loop's gate does: A's block is I, which
    fixes every vector, or a rotation (-1 on a line), which fixes none."""
    rng = np.random.default_rng(int(delta * 1e9) + len(on_block))
    verdicts = []
    for i in range(60):
        prof = spectral_profile(("real", "mixed", "degenerate")[i % 3], int(rng.integers(2, 6)),
                                rng, bool(i % 2))
        positive = [(ev, B) for ev, B in eigenspaces(prof) if ev > 0]
        if not positive:
            continue
        ev, B = positive[int(rng.integers(len(positive)))]
        d = B.shape[1]
        if on_block == "identity":
            block = np.eye(d)
        else:
            block = _rot(rng.uniform(0.5, 2.5)) if d == 2 else -np.eye(d)
        A = random_centralising_orthogonal(prof, rng)
        A += B @ (block - B.T @ A @ B) @ B.T
        c = float(rng.uniform(0.3, 2.0) * rng.choice([-1, 1]))
        s = float(rng.choice([-1, 1]) * np.sqrt(ev) * c * (1 + delta))
        betahat = BetaSolution(prof, rng.uniform(-2, 2, prof.n), rng.uniform(-2, 2, prof.n))
        verdict = _resonates(_conjugation_beta, A, s, c, betahat)
        assert verdict == _resonates(block_loop_conjugation_beta, prof, A, s, c, betahat)
        verdicts.append(verdict)
    # only I fixes a vector, and only s within RESONANCE_TOL of the resonance hits it
    assert set(verdicts) == {on_block == "identity" and delta <= 1e-9}


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
    if _resonates(block_loop_conjugation_beta, prof, A, s, c, betahat):
        with pytest.raises(ResonanceError):
            _conjugation_beta(A, s, c, betahat)
        return
    ref0, ref1, cond = block_loop_conjugation_beta(prof, A, s, c, betahat)
    assume(cond <= 1e3)
    beta = _conjugation_beta(A, s, c, betahat)
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

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 6e-8])
    def test_residual_tracks_the_rebuilt_element(self, delta):
        """Near the resonance s = -c on S = (1) the conjugator's beta grows
        like 1/delta (1.1e7 at delta = 6e-8) and the conjugation loses
        digits (g^{-1} N g misses phi by about 1e-5 at delta = 1e-6); the
        residual must show that loss, within a factor 10."""
        prof = SymmetricProfile(np.eye(1))
        phi = Homothety(prof, b=0.3, beta=BetaSolution(prof, [1.0], [0.5]), c=1.0,
                        s=-(1.0 + delta))
        res = normal_form(phi)
        miss = element_distance(conjugate(inverse(res.conjugator), res.normal), phi)
        assert type(res.residual) is float
        assert res.residual >= 0.1 * miss

    @pytest.mark.parametrize("c, composes", [(-1.2, 3), (1.2, 2), (0.0, 2)])
    def test_one_conjugation(self, monkeypatch, c, composes):
        """The conjugator comes from one solve and a closed-form b: the only
        group-law calls are the reflection's product for c < 0 and the one
        conjugation g phi g^{-1}."""
        calls = {"compose": 0, "inverse": 0}
        for name, modules in (("compose", (group, dynamics)), ("inverse", (group,))):
            def counted(*args, real=getattr(group, name), name=name):
                calls[name] += 1
                return real(*args)
            for module in modules:
                monkeypatch.setattr(module, name, counted)
        prof = SymmetricProfile(-np.diag([1.0, 4.0]))
        phi = Homothety(prof, b=0.3, beta=BetaSolution(prof, [1.0, 0.5], [0.5, 1.0]),
                        c=c, s=0.5)
        assert normal_form(phi).normal.c == abs(c)
        assert calls == {"compose": composes, "inverse": 1}

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


def _central_terms(e):
    """The terms v = eps (b - <beta'(0), beta(0)>/2) of e's image of the
    origin sums: the larger of |b| and |beta'(0)| |beta(0)| / 2."""
    return max(abs(e.b), np.linalg.norm(e.beta.beta1) * np.linalg.norm(e.beta.beta0) / 2)


def _assert_image_of_the_origin(prof, walk, row, earlier_terms=0.0):
    """row is apply(walk, origin), each part judged against its own terms:
    (t, x) = (c, beta(0)) within 1e-13 of max(1, |c|, |beta(0)|), and
    v within 1e-13 of the larger of _central_terms(walk) and
    earlier_terms, those of the walk's earlier steps, which both the walk
    and the recurrence round on the way.  The two round differently: over
    3600 draws (150 seeds, n in {1, 8, 32}, every profile type, eps = +-1,
    12 steps) the parts stayed within 5.9e-15 and 1.0e-14 of their own
    terms."""
    err = np.abs(row - apply(walk, np.zeros(prof.n + 2)))
    assert np.max(err[:-1]) <= 1e-13 * max(1.0, abs(walk.c), np.max(np.abs(walk.beta.beta0)))
    assert err[-1] <= 1e-13 * max(earlier_terms, _central_terms(walk))


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

    @pytest.mark.parametrize("c_gamma, limit", [(1.0, None), (0.0, [1.0, 0.0, 0.0])])
    def test_no_limit_where_the_t_coordinate_diverges(self, c_gamma, limit):
        """For eps_phi = -1 the t-coordinate of conjugate k is
        c_phi - 2 k c_gamma: no limit unless c_gamma is 0."""
        prof = SymmetricProfile([[1.0]])
        rep = orbit_obstruction_sequence(Homothety(prof, c=c_gamma, s=0.5),
                                         Homothety(prof, c=1.0, eps=-1), K=3)
        assert rep.sequence[:, 0].tolist() == [1.0 - 2 * k * c_gamma for k in (1, 2, 3)]
        assert (rep.limit if limit is None else rep.limit.tolist()) == limit
        assert rep.converged == (limit is not None)

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_conjugates_agree_with_the_walk(self, rng, n):
        """Point k of the report is the image of the origin under
        gamma^{-k} phi gamma^k, walked by hand with compose and inverse, on
        every profile type with a repeated eigenvalue that A_gamma turns,
        for eps_phi = +-1, within the per-part bounds of
        _assert_image_of_the_origin."""
        K = 12
        for kind, eps in itertools.product(KINDS, (1, -1)):
            prof = spectral_profile(kind, n, rng, repeat=True)
            gamma = Homothety(prof, c=0.9, s=0.4, A=random_centralising_orthogonal(prof, rng))
            phi = replace(element(prof, rng), eps=eps)
            rep = orbit_obstruction_sequence(gamma, phi, K=K)
            assert len(rep.points) == K
            walk = phi
            for point in rep.points:
                walk = compose(inverse(gamma), compose(walk, gamma))
                _assert_image_of_the_origin(prof, walk, point.as_array())

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 5), eps=st.sampled_from([-1, 1]),
           seed=st.integers(0, 2**32 - 1))
    def test_sequence_is_the_image_of_the_origin(self, kind, n, eps, seed):
        """Row k of the closed-form sequence, (c, beta(0), eps (b -
        <beta'(0), beta(0)>/2)) of conjugate k, is the image of the origin
        under the walk gamma^{-k} phi gamma^k within the per-part bounds of
        _assert_image_of_the_origin, for random gamma at n <= 5.  With
        gamma drawn, cancellation can leave a v whose terms lie below those
        of the walk's earlier steps, and both sides carry the round-off of
        those: over 14000 seeded draws v differed by up to 9.6e-14 of its
        own terms, and by 4.5e-14 of the largest terms of steps 1..k, which
        is what v is judged against here."""
        rng = np.random.default_rng(seed)
        prof = spectral_profile(kind, n, rng, repeat=n > 1)
        gamma = Homothety(prof, c=float(rng.uniform(0.5, 1.5)), s=float(rng.uniform(0.1, 0.9)),
                          A=random_centralising_orthogonal(prof, rng))
        walk = replace(element(prof, rng), eps=eps)
        rep = orbit_obstruction_sequence(gamma, walk, K=12)
        assert rep.sequence.shape == (12, prof.n + 2)
        terms = 0.0
        for row in rep.sequence:
            walk = compose(inverse(gamma), compose(walk, gamma))
            terms = max(terms, _central_terms(walk))
            _assert_image_of_the_origin(prof, walk, row, terms)

    def test_builds_no_point_and_calls_no_apply(self, monkeypatch):
        """The sequence is one array in closed form: no Point is built
        unless .points is read, and the origin is never acted on."""
        def refuse(*args):
            raise AssertionError("built or acted per point")

        monkeypatch.setattr(dynamics.Point, "from_array", staticmethod(refuse))
        monkeypatch.setattr(dynamics, "apply", refuse)
        prof = SymmetricProfile(-np.diag([1.0, 1.0, 4.0]))
        rep = orbit_obstruction_sequence(Homothety(prof, c=0.9, s=0.4),
                                         Homothety(prof, c=0.8, b=0.3), K=60)
        assert rep.converged and rep.sequence.shape == (60, 5)
        with pytest.raises(AssertionError):
            rep.points

    def test_drifted_A_is_projected_as_compose_projects(self):
        """A profile tolerance of 1e-5 admits A with A^T A - I = 2e-7, past
        PARAM_TOL, which the constructor projects back to the orthogonal
        group where the element enters.  The last point agrees with the
        walk's, where turning beta by the unprojected A_gamma would scale
        it by (1 + 1e-7)^k."""
        prof = SymmetricProfile(-np.eye(2), tolerance=1e-5)
        gamma = Homothety(prof, c=0.9, s=0.4, A=(1 + 1e-7) * _rot(0.3))
        phi = Homothety(prof, c=0.8, b=0.3, A=(1 + 1e-7) * _rot(-1.1),
                        beta=BetaSolution(prof, [1.0, 0.5], [0.0, -1.0]))
        rep = orbit_obstruction_sequence(gamma, phi, K=30)
        walk = phi
        for k in range(30):
            walk = compose(inverse(gamma), compose(walk, gamma))
        _assert_image_of_the_origin(prof, walk, rep.sequence[-1])

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("kind", KINDS)
    def test_step_equals_the_two_expression_recurrence(self, kind, eps):
        """The three-call step (F times the rows, summed over the inner
        axis, times M) gives the sequence of the recurrence stepped as two
        expressions bit for bit, with A_gamma turning a repeated
        eigenvalue's eigenspace."""
        rng = np.random.default_rng(21)
        for n in (1, 4, 8):
            prof = spectral_profile(kind, n, rng, repeat=True)
            gamma = Homothety(prof, c=0.9, s=0.4, A=random_centralising_orthogonal(prof, rng))
            phi = replace(element(prof, rng), eps=eps)
            rep = orbit_obstruction_sequence(gamma, phi, K=40)
            assert bit_equal(rep.sequence, recurrence_orbit_sequence(gamma, phi, 40)), n

    def test_failed_3d_decay_equals_the_recurrence(self):
        """failed-3d's gamma and zeta: x_20 = e^{-40} = 4.2e-18 keeps its
        relative precision, as the two-expression recurrence's does."""
        prof = SymmetricProfile(np.eye(1))
        gamma = Homothety(prof, c=1.0, s=1.0)
        zeta = Homothety(prof, beta=BetaSolution(prof, [1.0], [-1.0]))
        rep = orbit_obstruction_sequence(gamma, zeta, K=20)
        assert bit_equal(rep.sequence, recurrence_orbit_sequence(gamma, zeta, 20))
        assert rep.sequence[-1, 1] == pytest.approx(np.exp(-40.0), rel=1e-13)

    def test_decaying_mode_stays_at_round_off(self):
        """S = 1, gamma = (c = 1, s = 1) and zeta with beta = e^{-t}: the
        conjugates give x_k = e^{-2k} to 1e-13 relative for k = 1..20
        (1.7e-15 today, as the compose walk gave).  The step shifts beta's
        eigenbasis data by the elementwise flow over c_gamma, so the
        decaying mode keeps its relative precision.  A closed form
        evaluating beta at k c_gamma loses it (relative error 1.7 at
        k = 19), and so does the step applied as one 2n x 2n matrix
        product through BLAS, whose fused multiply-adds gave x_19 = 2.1e-18
        against e^{-40} = 4.25e-18."""
        prof = SymmetricProfile(np.eye(1))
        gamma = Homothety(prof, c=1.0, s=1.0)
        zeta = Homothety(prof, beta=BetaSolution(prof, [1.0], [-1.0]))
        rep = orbit_obstruction_sequence(gamma, zeta, K=20)
        x = np.array([p.x[0] for p in rep.points])
        decay = np.exp(-2.0 * np.arange(1, 21))
        assert np.max(np.abs(x - decay) / decay) <= 1e-13

    def test_zero_central_part_stays_zero_under_an_expanding_gamma(self):
        """b = 0 and beta = 0 stay 0 for K = 100 steps of s_gamma = -6,
        one factor e^{12} per step, where a closed form e^{-2 s_gamma k} b
        would overflow to inf * 0 = NaN: every x and v of the sequence is 0."""
        prof = SymmetricProfile(-np.eye(2))
        rep = orbit_obstruction_sequence(Homothety(prof, c=1.0, s=-6.0),
                                         Homothety(prof, c=0.5, s=0.2), K=100)
        assert not rep.sequence[:, 1:].any()
        assert rep.converged

    def test_shift_at_a_lost_phase_raises(self):
        """c_gamma = 1e300 on S = -1 is past the time at which an ulp of the
        phase r c_gamma is a radian: with beta != 0 the orbit refuses, as
        beta_eval does; with beta = 0 there is nothing to shift."""
        prof = SymmetricProfile([[-1.0]])
        gamma = Homothety(prof, c=1e300, s=0.5)
        with pytest.raises(PreconditionError):
            orbit_obstruction_sequence(gamma, Homothety(prof, beta=BetaSolution(prof, [1.0])))
        assert orbit_obstruction_sequence(gamma, Homothety(prof, c=1.2)).converged

    def test_holds_no_matrix_per_step(self):
        """At n = 256, K = 60 the orbit's allocations peak below four n x n
        matrices (2 MiB): it forms one n x n step matrix, and no conjugated
        A per step (a (K, n, n) stack of them peaked at 32.25 MiB)."""
        n = 256
        prof = SymmetricProfile(-np.diag(np.linspace(0.5, 4.0, n)))
        gamma = Homothety(prof, c=0.9, s=0.4, A=-np.eye(n))
        phi = Homothety(prof, c=0.8, b=0.3, beta=BetaSolution(prof, np.ones(n), np.zeros(n)))
        tracemalloc.start()
        try:
            rep = orbit_obstruction_sequence(gamma, phi, K=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak <= 4 * n * n * 8

    def test_makes_no_group_law_call(self, monkeypatch):
        """The points come from the parameter recurrence alone: no
        compose or inverse call for 60 conjugates."""
        calls = []
        for module, name in ((group, "compose"), (group, "inverse"), (dynamics, "compose")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, real=real: calls.append(args) or real(*args))
        prof = SymmetricProfile(-np.diag([1.0, 1.0, 4.0]))
        rep = orbit_obstruction_sequence(Homothety(prof, c=0.9, s=0.4),
                                         Homothety(prof, c=0.8, b=0.3), K=60)
        assert rep.converged and calls == []

    def test_gamma_must_be_in_quotient_factor(self, rng):
        prof = SymmetricProfile(-np.eye(1))
        bad = Homothety(prof, c=1.0, s=0.5,
                        beta=BetaSolution(prof, [1.0], [0.0]))
        with pytest.raises(PreconditionError):
            orbit_obstruction_sequence(bad, Homothety(prof, c=1.0))

    def test_gamma_and_phi_share_a_profile(self):
        with pytest.raises(IncompatibleProfileError):
            orbit_obstruction_sequence(Homothety(SymmetricProfile(-np.eye(1)), c=1.0, s=0.5),
                                       Homothety(SymmetricProfile(-4 * np.eye(1)), c=1.0))

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

    def test_letters_come_from_one_batched_inverse(self, monkeypatch):
        rng = np.random.default_rng(5)
        prof = spectral_profile("mixed", 2, rng, repeat=False)
        gens = [random_homothety(prof, rng, strict=True) for _ in range(3)]
        calls = []

        def counted(phi):
            calls.append(np.shape(phi.c))
            return inverse(phi)

        monkeypatch.setattr(group, "inverse", counted)
        pd_necessary_report(gens, 2)
        assert calls == [(3,)]

    @pytest.mark.parametrize("order, first", [("overflow-then-phase", OverflowingValueError),
                                              ("phase-then-overflow", PreconditionError)])
    def test_first_failing_inverse_decides(self, order, first):
        """The batched inverse raises what inverting the generators in turn
        would: e^{-2s} b overflows for the first generator below and the
        second's beta is read at t = -8e15, past its phase limit."""
        prof = SymmetricProfile([[-1.0]])
        big = Homothety(prof, b=100.0, s=-354.0)
        far = Homothety(prof, c=8e15, beta=BetaSolution(prof, [0.5], [0.2]))
        gens = [big, far] if order == "overflow-then-phase" else [far, big]
        with pytest.raises(first):
            pd_necessary_report(gens, 1)

    @pytest.mark.parametrize("max_length", [0, -1])
    def test_needs_a_word_length(self, max_length):
        # a sweep of no words would read as clean
        with pytest.raises(PreconditionError, match="max_length"):
            pd_necessary_report([Homothety(SymmetricProfile([[1.0]]), c=1.0, s=0.5)],
                                max_length=max_length)

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

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 3),
           eps=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=3),
           strict=st.lists(st.booleans(), min_size=3, max_size=3),
           zero_c=st.lists(st.booleans(), min_size=3, max_size=3),
           max_length=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_report_does_not_depend_on_the_block_size(self, kind, n, eps, strict, zero_c,
                                                      max_length, seed):
        # one verdict pass reads the words of every block: one block per
        # level, blocks of 3 rows and blocks of 1 row give one report
        rng = np.random.default_rng(seed)
        prof = spectral_profile(kind, n, rng, repeat=False)
        gens = [random_homothety(prof, rng, strict=strict_g, eps=eps_g,
                                 c=0.0 if zero_g else None)
                for eps_g, strict_g, zero_g in zip(eps, strict, zero_c)]
        row = (prof.n + 2) ** 2
        outcomes = []
        for entries in (dynamics.PD_BLOCK_ENTRIES, 3 * row, row):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "PD_BLOCK_ENTRIES", entries)
                outcomes.append(_outcome(pd_necessary_report, gens, max_length))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

    @pytest.mark.parametrize("eps", [1, -1])
    def test_a_letter_with_c_zero_reads_as_the_fold_from_the_identity(self, eps):
        # the inverse of g_1 has c = -eps 0, which is -0 for eps = 1; the
        # sweep takes its letters as they are, and a word's c reads as the
        # fold from the identity gives it, 0 + c, never -0
        prof = SymmetricProfile(np.eye(2))
        gens = [Homothety(prof, c=0.0, eps=eps, s=0.5), Homothety(prof, c=1.0, s=0.2)]
        assert np.signbit(inverse(gens[0]).c) == (eps == 1)
        report = library_pd_report(gens, 3)
        assert report == product_loop_pd_report(gens, 3)
        assert not any("c=-0 " in detail for _, _, detail in report[3])
        assert ((-1,), "fixed-point", f"strict element with eps={eps}, c=0 fixes a point") \
            in report[3]

    @pytest.mark.parametrize("g, max_length", [(1, 1), (2, 1), (1, 4), (2, 3), (3, 4)])
    def test_one_compose_per_level_block(self, monkeypatch, g, max_length):
        # each level here fits in one block: the words of length 1 are the
        # letters, with no compose and no identity, and each longer length
        # takes one batched compose, whose rows are that length's words
        rng = np.random.default_rng(5)
        prof = spectral_profile("mixed", 2, rng, repeat=False)
        gens = [random_homothety(prof, rng, strict=True) for _ in range(g)]
        rows = []

        def counted(phi, psi):
            rows.append(len(psi.c))
            return compose(phi, psi)

        def no_identity(profile):
            raise AssertionError("the sweep builds no identity")

        monkeypatch.setattr(dynamics, "compose", counted)
        monkeypatch.setattr(group, "identity", no_identity)
        assert not hasattr(dynamics, "identity")
        report = pd_necessary_report(gens, max_length)
        assert rows == [2 * g * (2 * g - 1) ** k for k in range(1, max_length)]
        assert report.words_checked == 2 * g + sum(rows)
