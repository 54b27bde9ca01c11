"""The four quotient-construction verifications and box arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwgeom import quotients
from cwgeom.core import PARAM_TOL, SymmetricProfile
from cwgeom.errors import IncompatibleProfileError, PreconditionError, UnsupportedCaseError
from cwgeom.group import Homothety, _element
from cwgeom.quotients import (
    EXAMPLES,
    _positive_measure,
    example4_generators,
    example4_regions,
    rescale_field,
    self_adjacency,
    verify_example,
    verify_failed_3d_example,
    verify_imaginary_torus_example,
    verify_real_lattice_example,
    verify_removed_fixed_points_example,
)

from oracles import box_minus_holes_nonempty


def _assert_report_passes(report):
    failing = [c for c in report.checks if not c.passed]
    assert report.passed, f"failed checks: {failing}"


class TestImaginaryTorus:
    def test_report_passes(self):
        _assert_report_passes(verify_imaginary_torus_example())

    def test_acts_in_one_batch(self, monkeypatch):
        """The chart identities, the gamma-power probe and the group
        product act as one batch on all their points; only the pointwise
        composition takes a second apply, and the four generators one
        factor check."""
        calls = {"apply": 0, "homothety_factor_check": 0}
        for name in calls:
            real = getattr(quotients, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(quotients, name, counted)
        _assert_report_passes(verify_imaginary_torus_example())
        assert calls["apply"] <= 2 and calls["homothety_factor_check"] == 1

    def test_check_names(self):
        names = {c.name for c in verify_imaginary_torus_example().checks}
        assert {"f_round_trip", "conj_gamma", "conj_eta", "conj_zeta",
                "conj_zeta_hat", "conj_gamma4",
                "commutator_is_central_v_shift"} <= names


class TestRealLattice:
    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_report_passes(self, r):
        report = verify_real_lattice_example(r=r)
        _assert_report_passes(report)
        rec = next(c for c in report.checks if c.name == "recurrence")
        assert rec.residual <= 1e-9

    def test_large_r_passes(self):
        # beta grows like rho^t: the recurrence and shift checks are judged
        # relative to the size of what they compare
        report = verify_real_lattice_example(r=100000)
        _assert_report_passes(report)

    def test_r_precondition(self):
        with pytest.raises(PreconditionError):
            verify_real_lattice_example(r=2)

    @pytest.mark.parametrize("r", [3.0, 3.5, "3"])
    def test_r_must_be_an_integer(self, r):
        with pytest.raises(PreconditionError, match="r must be an integer"):
            verify_real_lattice_example(r=r)

    def test_numpy_integer_r_passes(self):
        report = verify_real_lattice_example(r=np.int64(4))
        _assert_report_passes(report)
        assert report.checks == verify_real_lattice_example(r=4).checks

    @pytest.mark.parametrize("r", [3, 6, 50])
    def test_non_discreteness_reads_the_orbit_residual(self, r):
        """min |b_k| is |b_K|, the last point's one nonzero coordinate,
        which orbit_converges_to_zero judges as the point's norm: one
        number, judged at ORBIT_TOL by both."""
        by_name = {c.name: c for c in verify_real_lattice_example(r=r).checks}
        assert by_name["non_discreteness"].residual \
            == by_name["orbit_converges_to_zero"].residual > 0.0

    def test_non_discreteness_residuals(self):
        report = verify_real_lattice_example(r=3)
        by_name = {c.name: c for c in report.checks}
        assert by_name["conjugate_b_is_rho_power"].residual <= 1e-8
        assert by_name["orbit_converges_to_zero"].residual <= 1e-6


class TestFailed3d:
    def test_report_passes(self):
        report = verify_failed_3d_example()
        _assert_report_passes(report)
        decay = next(c for c in report.checks
                     if c.name == "decay_rate_e_minus_2")
        assert decay.residual <= 0.1

    def test_decay_rate_is_seed_free(self):
        """The decay rate is read off a closed-form orbit no seed moves, so
        its residual, judged at COMPOSED_TOL, is the same at every seed."""
        residuals = {next(c.residual for c in verify_failed_3d_example(seed=seed).checks
                          if c.name == "decay_rate_e_minus_2") for seed in range(10)}
        assert len(residuals) == 1

    def test_large_shear_seed_passes(self):
        # at this seed a sample sits at t = -5.9, where the shear e^{-2t}
        # is 1.4e5 and the round-off residual 6.6e-7: conj_zeta_displayed
        # is judged relative to the size of what it compares
        _assert_report_passes(verify_failed_3d_example(seed=194890681))


def _measure(box, holes):
    """_positive_measure of one box and its holes, given as ((lo, hi), ...)."""
    lo, hi = np.array(box, dtype=float).T
    return bool(_positive_measure(lo, hi, np.array(holes, dtype=float).reshape(-1, len(box), 2)
                                  .transpose(0, 2, 1)))


def _spans(unique):
    """Intervals (lo, hi) with ends on the integer grid -3..3, lo < hi if unique."""
    return st.lists(st.integers(-3, 3), min_size=2, max_size=2,
                    unique=unique).map(lambda ends: tuple(sorted(ends)))


# a box of m <= 3 axes, nondegenerate as the recursive splitting assumes,
# and up to 3 holes, possibly flat
_GRID_BOX = st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(_spans(True), min_size=m, max_size=m),
    st.lists(st.lists(_spans(False), min_size=m, max_size=m), max_size=3)))


class TestBoxArithmetic:
    def test_minus_holes(self):
        box = ((0.0, 1.0), (0.0, 1.0))
        assert _measure(box, [])
        assert not _measure(box, [((-1.0, 2.0), (-1.0, 2.0))])
        assert _measure(box, [((0.25, 0.75), (0.25, 0.75))])
        # two holes that jointly cover the box
        assert not _measure(box, [((-1.0, 0.6), (-1.0, 2.0)), ((0.4, 2.0), (-1.0, 2.0))])
        # a hole that misses the box, and one that overlaps it by less than MEASURE_TOL
        assert _measure(box, [((5.0, 6.0), (0.0, 1.0)), ((-1.0, 1e-12), (-1.0, 2.0))])
        # an empty box, and one thinner than MEASURE_TOL
        assert not _measure(((1.0, 0.0), (0.0, 1.0)), [])
        assert not _measure(((0.0, 1e-12), (0.0, 1.0)), [])

    def test_minus_holes_over_a_word_axis(self):
        lo, hi = np.zeros((2, 2)), np.ones((2, 2))
        holes = np.array([[[[-1.0, -1.0], [2.0, 2.0]]], [[[0.5, 0.5], [2.0, 2.0]]]])
        assert _positive_measure(lo, hi, holes).tolist() == [False, True]

    @settings(max_examples=300, deadline=None)
    @given(_GRID_BOX)
    def test_minus_holes_matches_the_recursive_splitting(self, drawn):
        """The cell test agrees with splitting the box along hole faces,
        on boxes and holes with integer corners."""
        box, holes = tuple(drawn[0]), [tuple(h) for h in drawn[1]]
        assert _measure(box, holes) == box_minus_holes_nonempty(box, holes)

    def test_region_validation(self):
        # an outer box of zero width on t, then one reversed on x
        R, _ = example4_regions()
        for axis, hi in ((0, 0.0), (1, -3.0)):
            region = R.copy()
            region[0, 1, axis] = hi
            with pytest.raises(PreconditionError, match="nondegenerate"):
                self_adjacency([region], example4_generators())

    def test_axis_map_rejection(self):
        prof = SymmetricProfile(-np.eye(2))
        region = np.array([[[0.0] * 4, [1.0] * 4]])
        th = 0.3
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        with pytest.raises(UnsupportedCaseError):
            self_adjacency([region], [Homothety(prof, A=rot)])

    def test_axis_map_tolerance_is_param_tol(self):
        # an entry of |A| is 0 or 1 within PARAM_TOL and no looser: the
        # row and column sums add no tolerance of their own
        prof = SymmetricProfile(-np.eye(2))
        for off, accepted in ((0.9, True), (1.1, False)):
            for A in (np.diag([1 + off * PARAM_TOL, -1.0]),
                      np.array([[off * PARAM_TOL, 1.0], [1.0, 0.0]])):
                phi = _element(prof, 0.0, np.zeros(2), np.zeros(2), 0.0, 1, A, 0.0)
                if accepted:
                    quotients._require_axis_map(phi)
                else:
                    with pytest.raises(UnsupportedCaseError):
                        quotients._require_axis_map(phi)

    @pytest.mark.parametrize("A", [[[1.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]],
                                   [[0.0, 0.0], [0.0, 0.0]]])
    def test_axis_map_needs_one_unit_per_row_and_column(self, A):
        prof = SymmetricProfile(-np.eye(2))
        phi = _element(prof, 0.0, np.zeros(2), np.zeros(2), 0.0, 1, np.array(A), 0.0)
        with pytest.raises(UnsupportedCaseError):
            quotients._require_axis_map(phi)


class TestRemovedFixedPoints:
    def test_report_passes(self):
        _assert_report_passes(verify_removed_fixed_points_example())

    def test_fundamental_region_only_touches_itself(self):
        R, _ = example4_regions()
        gamma, eta = example4_generators()
        assert self_adjacency([R], [gamma, eta]) == [{(0, 0)}]

    def test_neighbourhood_window_is_exact(self):
        _, V = example4_regions()
        gamma, eta = example4_generators()
        adj, = self_adjacency([V], [gamma, eta])
        assert adj == {(i, j) for i in range(-2, 3) for j in range(-2, 3)}
        assert all((-i, -j) in adj for (i, j) in adj)

    def test_self_adjacency_needs_a_generator(self):
        R, _ = example4_regions()
        with pytest.raises(PreconditionError):
            self_adjacency([R], [])

    def test_self_adjacency_needs_a_region(self):
        with pytest.raises(PreconditionError, match="at least one region"):
            self_adjacency([], example4_generators())

    def test_self_adjacency_refuses_generators_over_two_profiles(self):
        R, _ = example4_regions()
        gamma, eta = example4_generators()
        with pytest.raises(IncompatibleProfileError):
            self_adjacency([R], [gamma, Homothety(SymmetricProfile(np.eye(1)), s=eta.s)])

    def test_self_adjacency_builds_each_power_once(self, monkeypatch):
        """The words are built once for both regions: the powers of every
        generator come from one walk of ADJACENCY_RANGE - 1 batched
        composes from the letters, and the words from one more per
        generator after the first, 3 per report however many words combine
        them, with no call to power."""
        calls = []
        real = quotients.compose
        monkeypatch.setattr(quotients, "compose",
                            lambda g, h: calls.append((g, h)) or real(g, h))
        monkeypatch.delattr(quotients, "power")
        _assert_report_passes(verify_example("removed-fixed-points"))
        assert len(calls) == 3

    def test_regions_judged_together_match_each_alone(self):
        R, V = example4_regions()
        gens = example4_generators()
        assert self_adjacency((R, V), gens) == self_adjacency([R], gens) + self_adjacency([V], gens)
        with pytest.raises(PreconditionError):
            self_adjacency((R, R[:1]), gens)

    def test_rescale_field(self):
        assert rescale_field(np.array([0.0, 1.0, 2.0])) == pytest.approx(1.0 / np.sqrt(1.0 + 4.0))
        with pytest.raises(PreconditionError):
            rescale_field(np.array([1.0, 0.0, 0.0, 0.0]))

    def test_rescale_identity_on_U(self):
        report = verify_removed_fixed_points_example()
        _assert_report_passes(report)
        by_name = {c.name: c for c in report.checks}
        assert by_name["rescale_equivariance"].residual <= 1e-8


class TestRegistry:
    def test_all_examples_pass(self):
        for name in EXAMPLES:
            _assert_report_passes(verify_example(name))

    def test_unknown_example(self):
        with pytest.raises(KeyError):
            verify_example("nonexistent")

    def test_kwargs_forwarding(self):
        report = verify_example("real-lattice", r=4)
        _assert_report_passes(report)
