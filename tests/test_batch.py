"""Arrays of points and batches of elements: a batched call of the group
action, of the group law or of the curvature layer equals the calls on
single points or elements, the boundary contracts hold on arrays, the
phase guard judges each row at its own |t|, and the sampled verdicts hold
across seeds."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwgeom import quotients
from cwgeom.core import BetaSolution, SymmetricProfile, beta_eval
from cwgeom.curvature import christoffel_at, metric_at
from cwgeom.dynamics import inessential_rescaling
from cwgeom.errors import IncompatibleProfileError, OverflowingValueError, PreconditionError
from cwgeom.group import (
    Homothety,
    _stack,
    _take,
    apply,
    compose,
    differential,
    element_distance,
    homothety_factor_check,
    inverse,
)
from cwgeom.quotients import verify_example

from conftest import random_centralising_orthogonal
from oracles import jacobian_finite_difference
from test_group_law import KINDS, element, scale, spectral_profile

ULP = np.finfo(float).eps


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([-1, 1]), N=st.sampled_from([1, 7, 64]))
def test_batch_rows_equal_single_points(kind, n, seed, eps, N):
    """Row i of apply and differential on an (N, n+2) array is the call on
    point i alone, within 4 ulp of the group-law scale squared (the v-part is
    quadratic in the parameters): a single point and a batch go through
    different BLAS kernels.  The profile has a repeated eigenvalue, so A
    turns its eigenspace."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(kind, n, rng, repeat=True)
    phi = replace(element(prof, rng), eps=eps)
    pts = rng.uniform(-2, 2, size=(N, prof.n + 2))
    images, jacobians = apply(phi, pts), differential(phi, pts)
    assert images.shape == (N, prof.n + 2) and jacobians.shape == (N, prof.n + 2, prof.n + 2)
    oracle = jacobian_finite_difference(partial(apply, phi), pts)
    for row, image, J, J_fd in zip(pts, images, jacobians, oracle):
        tol = 4 * ULP * scale(prof, phi, t=row[0]) ** 2
        assert np.max(np.abs(image - apply(phi, row))) <= tol
        assert np.max(np.abs(J - differential(phi, row))) <= tol
        assert np.max(np.abs(J - J_fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(J))))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([-1, 1]), N=st.sampled_from([1, 7, 64]))
def test_batched_law_rows_equal_single_elements(kind, n, seed, eps, N):
    """Row i of compose and inverse on batches of N elements is the call on
    element i alone: (eps, c, s) exactly, and every other parameter within
    4 ulp of the group-law scale squared (b is quadratic in the
    parameters), since beta is evaluated through gemm for a batch and gemv
    for one element.  The profile has a repeated eigenvalue, so A turns
    its eigenspace."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(kind, n, rng, repeat=True)
    phis = [replace(element(prof, rng), eps=eps) for _ in range(N)]
    psis = [element(prof, rng) for _ in range(N)]
    products, inverses = compose(_stack(phis), _stack(psis)), inverse(_stack(phis))
    assert products.A.shape == inverses.A.shape == (N, prof.n, prof.n)
    for i, (phi, psi) in enumerate(zip(phis, psis)):
        for got, want, parts in ((_take(products, i), compose(phi, psi), (phi, psi)),
                                 (_take(inverses, i), inverse(phi), (phi,))):
            assert (got.eps, got.c, got.s) == (want.eps, want.c, want.s)
            assert element_distance(got, want) <= 4 * ULP * scale(prof, *parts) ** 2


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       eps=st.sampled_from([-1, 1]), B=st.sampled_from([1, 7, 64]),
       N=st.sampled_from([1, 7, 64]))
def test_element_batch_rows_equal_single_elements(kind, n, seed, eps, B, N):
    """Row (i, j) of apply and differential for a (B, 1) batch of elements
    at N points is element i alone at point j, within 4 ulp of the
    group-law scale squared: beta is evaluated through gemm for a batch
    and gemv for one element.  The profile has a repeated eigenvalue, so A
    turns its eigenspace."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(kind, n, rng, repeat=True)
    m = prof.n + 2
    phis = [replace(element(prof, rng), eps=eps) for _ in range(B)]
    pts = rng.uniform(-2, 2, size=(N, m))
    batch = _take(_stack(phis), np.s_[:, None])
    images, jacobians = apply(batch, pts), differential(batch, pts)
    assert images.shape == (B, N, m) and jacobians.shape == (B, N, m, m)
    for phi, image, J in zip(phis, images, jacobians):
        tol = np.array([4 * ULP * scale(prof, phi, t=t) ** 2 for t in pts[:, 0]])
        assert (np.max(np.abs(image - apply(phi, pts)), axis=-1) <= tol).all()
        assert (np.max(np.abs(J - differential(phi, pts)), axis=(-2, -1)) <= tol).all()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       B=st.sampled_from([1, 7, 64]), N=st.sampled_from([1, 7, 64]))
def test_factor_check_rows_equal_single_elements(kind, n, seed, B, N):
    """homothety_factor_check on a (B, 1) batch gives row i the check of
    element i alone, judged by its own factor e^{2 s_i}, and its largest
    row is the largest of the B single calls, within 4 ulp of the
    group-law scale squared (bit for bit over 7200 rows at the time of
    writing).  Elements with s of both signs would expose a factor
    broadcast against the point or Gram axes."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(kind, n, rng, repeat=True)
    phis = [replace(element(prof, rng), eps=int(rng.choice([-1, 1]))) for _ in range(B)]
    pts = rng.uniform(-2, 2, size=(N, prof.n + 2))
    got = homothety_factor_check(_take(_stack(phis), np.s_[:, None]), pts)
    want = np.array([homothety_factor_check(phi, pts) for phi in phis])
    tol = np.array([4 * ULP * scale(prof, phi, t=2.0) ** 2 for phi in phis])
    assert got.shape == (B,)
    assert (np.abs(got - want) <= tol).all()
    assert abs(np.max(got) - np.max(want)) <= np.max(tol)


def test_element_batch_broadcasts_over_every_point_axis():
    """A (B, 1, 1) batch at (K, N) points, as self_adjacency maps box
    corners, gives the (B, 1) batch's rows at each of the K rows."""
    rng = np.random.default_rng(11)
    prof = spectral_profile("mixed", 3, rng, repeat=True)
    elements = _stack([element(prof, rng) for _ in range(5)])
    pts = rng.uniform(-2, 2, size=(4, 6, prof.n + 2))
    for f in (apply, differential):
        got = f(_take(elements, np.s_[:, None, None]), pts)
        assert got.shape[:3] == (5, 4, 6)
        for k in range(4):
            assert np.array_equal(got[:, k], f(_take(elements, np.s_[:, None]), pts[k]))


@pytest.mark.parametrize("kind", KINDS)
def test_element_distance_rows_equal_single_elements(kind):
    """element_distance of a (B, 1) batch against an (N,) batch is the
    (B, N) array of the distances of the single elements, which are
    floats, and inf in the rows whose eps differ."""
    rng = np.random.default_rng(9)
    prof = spectral_profile(kind, 3, rng, repeat=True)
    phis = [element(prof, rng) for _ in range(5)]
    psis = [element(prof, rng) for _ in range(4)]
    got = element_distance(_take(_stack(phis), np.s_[:, None]), _stack(psis))
    assert got.shape == (5, 4)
    want = [[element_distance(phi, psi) for psi in psis] for phi in phis]
    assert all(type(d) is float for row in want for d in row)
    assert np.array_equal(got, want)
    eps_differ = np.array([[phi.eps != psi.eps for psi in psis] for phi in phis])
    assert eps_differ.any() and (np.isinf(got) == eps_differ).all()


def _reference_action(phi, a):
    """apply and differential of one element on an (N, n+2) array by the
    formulas with x A^T as one product of all the rows."""
    t, x, v = a[:, 0], a[:, 1:-1], a[:, -1]
    val, der = beta_eval(phi.beta, t)
    es = np.exp(phi.s)
    esAx = es * (x @ phi.A.T)
    w = phi.eps * (np.exp(2 * phi.s) * v + phi.b - np.sum(der * (esAx + 0.5 * val), axis=-1))
    J = np.zeros(a.shape + (a.shape[-1],))
    J[:, 0, 0] = phi.eps
    J[:, 1:-1, 0] = der
    J[:, 1:-1, 1:-1] = es * phi.A
    J[:, -1, 0] = -phi.eps * (np.sum((val @ phi.profile.S) * (esAx + 0.5 * val), axis=-1)
                              + 0.5 * np.sum(der * der, axis=-1))
    J[:, -1, 1:-1] = -phi.eps * es * (der @ phi.A)
    J[:, -1, -1] = phi.eps * np.exp(2 * phi.s)
    return np.column_stack((phi.eps * t + phi.c, esAx + val, w)), J


@pytest.mark.parametrize("seed", range(40))
def test_one_element_is_the_single_product_path_to_the_bit(seed):
    """A batch's matrix product reshapes A; one element's stays x A^T over
    all the rows, so its images and Jacobians are those floats exactly."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(KINDS[seed % 4], int(rng.integers(1, 9)), rng, repeat=seed % 2 == 1)
    phi = element(prof, rng)
    pts = rng.uniform(-2, 2, size=(int(rng.integers(1, 41)), prof.n + 2))
    image, J = _reference_action(phi, pts)
    assert np.array_equal(apply(phi, pts), image)
    assert np.array_equal(differential(phi, pts), J)


def test_the_gate_projects_only_the_drifted_elements():
    """Of three elements, only the one whose A enters past PARAM_TOL of
    orthogonal is projected, to the polar factor of its A: the orthogonal A
    it was scaled from, to round-off.  A batch keeps each row's A."""
    rng = np.random.default_rng(6)
    prof = spectral_profile("mixed", 4, rng, repeat=True)
    As = [random_centralising_orthogonal(prof, rng) for _ in range(3)]
    batch = _stack([Homothety(prof, A=A) for A in (As[0], As[1] * (1 + 2e-9), As[2])])
    for i in (0, 2):
        assert np.array_equal(batch.A[i], As[i])
    assert np.max(np.abs(batch.A[1].T @ batch.A[1] - np.eye(prof.n))) <= 1e-12
    assert np.max(np.abs(batch.A[1] - As[1])) <= 1e-12


def test_a_repeated_eigenvalue_gets_a_nontrivial_rotation():
    prof = spectral_profile("mixed", 4, np.random.default_rng(3), repeat=True)
    A = element(prof, np.random.default_rng(4)).A
    assert np.max(np.abs(A - np.diag(np.diag(A)))) > 0.1


class TestArrayBoundary:
    prof = SymmetricProfile([[2.0]])

    def test_overflowing_row_raises(self):
        pts = np.array([[0.0, 1.0, 0.0], [1.0, 1e300, 0.0], [0.5, -1.0, 2.0]])
        # an overflow, and the 0 * inf it leads to, surface as the error alone
        with pytest.raises(OverflowingValueError):
            apply(Homothety(self.prof, s=354.0), pts)
        # the same map is finite on the other rows
        assert np.isfinite(apply(Homothety(self.prof, s=354.0), pts[[0, 2]])).all()

    @pytest.mark.parametrize("width", [2, 4])
    def test_wrong_width_raises(self, width):
        phi = Homothety(self.prof, c=1.0)
        for f in (apply, differential):
            with pytest.raises(IncompatibleProfileError):
                f(phi, np.zeros((5, width)))


class TestPhaseGuardOnArrays:
    """One |t| past the limit of the faster column of an imaginary profile
    refuses the whole array exactly when that column carries data."""

    prof = SymmetricProfile(np.diag([-4.0, -1.0]))
    t = np.array([[0.3, -1.5], [2.0, 2.0 ** 51 * 1.5]])

    def test_limits(self):
        assert list(self.prof._phase_limit) == [2.0 ** 51, 2.0 ** 52]

    @pytest.mark.parametrize("data", [([1.0, 0.0], [0.0, 0.0]), ([0.0, 0.0], [1e-300, 0.0])])
    def test_refused_when_the_column_carries_data(self, data):
        beta = BetaSolution(self.prof, *data)
        with pytest.raises(PreconditionError):
            beta_eval(beta, self.t)
        # the times within the limit still evaluate
        beta_eval(beta, self.t[0])

    def test_each_row_is_judged_at_its_own_time(self):
        # row 0 has data in the fast column, row 1 only in the slow one: at
        # 1.5 2^51 only the fast column's phase is lost
        beta = BetaSolution(self.prof, [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]])
        late = 2.0 ** 51 * 1.5
        val, der = beta_eval(beta, np.array([0.3, late]))
        for row, t in enumerate([0.3, late]):
            one = BetaSolution(self.prof, beta.beta0[row], beta.beta1[row])
            assert np.array_equal(val[row], beta_eval(one, t)[0])
        with pytest.raises(PreconditionError, match=f"at \\|t\\| = {late} "):
            beta_eval(beta, np.array([late, 0.3]))

    def test_rows_equal_scalar_calls_without_data(self):
        beta = BetaSolution(self.prof, [0.0, 1.0], [0.0, -0.5])
        val, der = beta_eval(beta, self.t)
        assert val.shape == der.shape == (2, 2, 2)
        for idx in np.ndindex(self.t.shape):
            one_val, one_der = beta_eval(beta, float(self.t[idx]))
            assert np.array_equal(val[idx], one_val) and np.array_equal(der[idx], one_der)


@pytest.mark.parametrize("name", ["imaginary-torus", "failed-3d"])
@pytest.mark.parametrize("seed", range(20))
def test_verdicts_hold_across_seeds(name, seed):
    report = verify_example(name, seed=seed)
    assert [c.name for c in report.checks if not c.passed] == []


@pytest.mark.parametrize("r", [*range(3, 7), 50, 10**3, 10**4, 10**5, 163852])
def test_real_lattice_verdicts_hold_for_each_r(r):
    """Every r the example accepts, up to floor(r_max) = 163852.
    lagrangian_omega reads 2.3e-10 at r = 10^5, judged against the two
    products of about 5.8e5 that it subtracts."""
    report = verify_example("real-lattice", r=r)
    assert [c.name for c in report.checks if not c.passed] == []


def test_lagrangian_omega_is_judged_at_the_size_of_its_terms(monkeypatch):
    """At r = 160000 omega reads 3.5e-10, the round-off of two products of
    about 9.6e5: it passes a tolerance of 1e-12 relative to them, which
    it would fail in absolute terms."""
    monkeypatch.setattr(quotients, "ROUNDOFF_TOL", 1e-12)
    [omega] = [c for c in verify_example("real-lattice", r=160000).checks
               if c.name == "lagrangian_omega"]
    assert omega.residual > 1e-12 and omega.passed


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       N=st.sampled_from([1, 7, 64]))
def test_curvature_rows_equal_single_points(kind, n, seed, N):
    """Row i of metric_at, christoffel_at and an inessential rescaling on
    N points is the call on point i alone, within 4 ulp of the curvature
    scale squared: (1 + |S|)(1 + |p|^2), the largest entries, bounds the
    terms these outputs sum."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(kind, n, rng, repeat=True)
    pts = rng.uniform(-2, 2, size=(N, prof.n + 2))
    f = inessential_rescaling(Homothety(prof, c=float(rng.uniform(0.5, 1.5)),
                                        s=float(rng.uniform(0.2, 1.0))))
    batched = {"gram": metric_at(prof, pts), "gamma": christoffel_at(prof, pts), "f": f(pts)}
    for i, p in enumerate(pts):
        single = {"gram": metric_at(prof, p), "gamma": christoffel_at(prof, p), "f": f(p)}
        size = (1 + np.max(np.abs(prof.S))) * (1 + np.max(np.abs(p)) ** 2)
        for key, want in single.items():
            assert np.shape(batched[key][i]) == np.shape(want), key
            assert np.max(np.abs(batched[key][i] - want)) <= 4 * ULP * size ** 2, key
