"""Foundational types: spectral data, beta solutions, symplectic form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cwgeom.core import (
    BetaSolution,
    Point,
    SymmetricProfile,
    beta_eval,
    classify,
    symplectic_form,
)
from cwgeom.errors import (
    CentraliserViolationError,
    IncompatibleProfileError,
    MalformedProfileError,
    PreconditionError,
)

from cwgeom.dynamics import _conjugation_beta
from cwgeom.group import Homothety, compose

from conftest import eigenspaces, random_centralising_orthogonal, random_profile


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
            # S rebuilt as Q diag(eigenvalues) Q^T
            Q = prof.eigenvectors
            rebuilt = (Q * prof.eigenvalues) @ Q.T
            assert np.max(np.abs(rebuilt - prof.S)) <= 1e-9
            assert sum(basis.shape[1] for _, basis in eigenspaces(prof)) == prof.n

    def test_repeated_eigenvalues_grouped(self):
        prof = SymmetricProfile(np.diag([2.0, 2.0, -1.0]))
        mults = sorted(basis.shape[1] for _, basis in eigenspaces(prof))
        assert mults == [1, 2]

    def test_blocks_snapped_to_zero_are_one_eigenspace(self, rng):
        # beside the eigenvalue 1, the zero threshold is 1e-9: the grouping
        # starts a second block at 0.6e-9, 1.01e-8 past -9.5e-9, but both
        # block means are within it, so one eigenvalue 0.0 of multiplicity
        # 12, and the Haar draw mixes all of it
        prof = SymmetricProfile(np.diag([-9.5e-9] + [0.4e-9] * 10 + [0.6e-9] + [1.0]))
        [(ev, basis), (one, _)] = eigenspaces(prof)
        assert ev == 0.0 and basis.shape == (13, 12) and one == 1.0
        A = random_centralising_orthogonal(prof, rng)
        At = prof.eigenvectors.T @ A @ prof.eigenvectors
        assert np.max(np.abs(At[11, :11])) > 1e-2
        assert prof.in_centraliser(A)

    def test_eigenvalues_near_the_float_maximum_group_without_a_warning(self):
        """The gap between -1e308 and 1e308 overflows to inf in the grouping:
        two eigenspaces, and no numpy warning in process."""
        P = SymmetricProfile(np.diag([1e308, -1e308]))
        assert P.eigenvalues.tolist() == [-1e308, 1e308]
        assert classify(P).type == "mixed"

    def test_rejects_nonsquare(self):
        with pytest.raises(MalformedProfileError):
            SymmetricProfile(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(MalformedProfileError):
            SymmetricProfile(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(MalformedProfileError):
            SymmetricProfile(np.array([[np.nan]]))

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, 0.0, -1e-9])
    def test_rejects_a_tolerance_not_finite_and_positive(self, tolerance):
        # a NaN tolerance would pass the symmetry check of any S, and an
        # infinite one would read every eigenvalue as zero
        with pytest.raises(MalformedProfileError):
            SymmetricProfile([[1.0, 5.0], [0.0, 2.0]], tolerance=tolerance)

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

    def test_a_rotation_mixing_close_blocks_is_not_in_the_centraliser(self):
        # AS - SA = 6e-9 is small, but the eigenvalues 1 and 1 + 2e-8 are two
        # blocks, and the rotation mixes them by sin(0.3)
        prof = SymmetricProfile(np.diag([1.0, 1.0 + 2e-8]))
        th = 0.3
        A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert len(eigenspaces(prof)) == 2
        assert not prof.in_centraliser(A)
        with pytest.raises(CentraliserViolationError):
            Homothety(prof, A=A)

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
        assert [ev for ev, _ in eigenspaces(prof)] == [0.0, 10.0]
        beta = BetaSolution(prof, [1.0, 0.0], [2.0, 0.0])
        for t in (-3.0, 0.5, 40.0):
            val, der = beta_eval(beta, t)
            assert val[0] == 1.0 + 2.0 * t and der[0] == 2.0
            assert val[1] == 0.0 and der[1] == 0.0


    def test_a_block_near_zero_is_judged_by_its_mean(self):
        # beside the eigenvalue 1, 0 and 5e-9 are one block, whose mean
        # 2.5e-9 is past the zero threshold 1e-9: positive, as the flow's
        # cosh branch reads it
        prof = SymmetricProfile(np.diag([0.0, 5e-9, 1.0]))
        c = classify(prof)
        assert c.type == "real" and c.invertible and c.lambda_max_sq == 1.0
        [(ev, basis), _] = eigenspaces(prof)
        assert ev == pytest.approx(2.5e-9) and basis.shape == (3, 2)

    @pytest.mark.parametrize("k2", [1.0, 5e-9])
    def test_the_zero_threshold_is_relative_to_the_largest_eigenvalue(self, k2):
        # diag(0, k2) is isometric to diag(0, 1) for every k2 > 0: degenerate,
        # with lambda_max^2 = k2 however small
        c = classify(SymmetricProfile(np.diag([0.0, k2])))
        assert c.type == "degenerate" and not c.conformally_flat and c.lambda_max_sq == k2

    @pytest.mark.parametrize("S", [np.diag([1.0, 1.0 + 0.9e-8, 1.0 + 1.8e-8]),
                                   np.eye(4) + 0.9e-8 * (1.0 - np.eye(4))],
                             ids=["diagonal", "off-diagonal"])
    def test_two_blocks_are_not_conformally_flat(self, S):
        # every entry of S is within 1e-8 of a scalar matrix, but its
        # eigenvalues form two blocks
        prof = SymmetricProfile(S)
        assert len(eigenspaces(prof)) == 2
        assert not classify(prof).conformally_flat


OFFSETS = [0.0, 0.3, 0.9, 1.1, 3.0]


@settings(max_examples=150, deadline=None)
@given(tolerance=st.sampled_from([1e-9, 1e-6]), shared=st.sampled_from([-3.0, -1.0, 0.5, 2.0]),
       entries=st.lists(st.tuples(st.booleans(), st.sampled_from(OFFSETS),
                                  st.sampled_from([-1.0, 1.0])), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_classify_and_the_centraliser_read_the_eigenvalues(tolerance, shared, entries, seed):
    """Eigenvalues clustered at 0 and at a shared value, offset by fractions
    and multiples of the zero threshold: classify's four fields are read off
    the profile's eigenvalues, and in_centraliser accepts a Haar draw of
    prod O(d_k) and rejects it once rotated between two eigenvalues."""
    rng = np.random.default_rng(seed)
    zero = tolerance * abs(shared)  # the profile's threshold, relative to its largest eigenvalue
    w = [(0.0 if at_zero else shared) + sign * offset * zero for at_zero, offset, sign in entries]
    Q, _ = np.linalg.qr(rng.normal(size=(len(w), len(w))))
    prof = SymmetricProfile((Q * w) @ Q.T, tolerance)
    lam = prof.eigenvalues
    signs = frozenset(np.sign(lam))
    c = classify(prof)
    assert c.type == ("degenerate" if 0.0 in signs else
                      {frozenset([-1.0]): "imaginary", frozenset([1.0]): "real"}.get(signs, "mixed"))
    assert c.invertible == (0.0 not in signs)
    assert c.conformally_flat == (len(set(lam)) == 1)
    assert c.lambda_max_sq == (lam.max() if lam.max() > 0 else None)

    A = random_centralising_orthogonal(prof, rng)
    assert prof.in_centraliser(A)
    if len(set(lam)) > 1:
        # rotate the first column's eigenvector towards one of another
        # eigenvalue, by 1e-6 rad at the default tolerance
        i, j = 0, int(np.flatnonzero(lam != lam[0])[0])
        th = 1e3 * tolerance
        qi, qj = prof.eigenvectors[:, i], prof.eigenvectors[:, j]
        R = (np.eye(prof.n) + (np.cos(th) - 1.0) * (np.outer(qi, qi) + np.outer(qj, qj))
             + np.sin(th) * (np.outer(qj, qi) - np.outer(qi, qj)))
        assert not prof.in_centraliser(R @ A)


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
            _conjugation_beta(np.eye(1), 0.5, 1e300,
                              BetaSolution(prof, [1.0], [0.0]))
        zero = _conjugation_beta(np.eye(1), 0.5, 1e300, BetaSolution(prof))
        assert not zero.beta0.any() and not zero.beta1.any()
        # data only in the affine column is still solved at that shift
        prof = SymmetricProfile(np.diag([-1.0, 0.0]))
        beta = _conjugation_beta(np.eye(2), 0.5, 1e300,
                                 BetaSolution(prof, [0.0, 1.0], [0.0, 0.0]))
        assert np.isfinite(beta.beta0).all() and beta.beta0[0] == beta.beta1[0] == 0.0
