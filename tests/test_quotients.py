"""The four quotient-construction verifications and box arithmetic."""

import numpy as np
import pytest

from cwgeom import quotients
from cwgeom.core import PARAM_TOL, SymmetricProfile
from cwgeom.errors import PreconditionError, UnsupportedCaseError
from cwgeom.group import Homothety, _element
from cwgeom.quotients import (
    BoxRegion,
    EXAMPLES,
    _box_intersect,
    _box_minus_holes_nonempty,
    example4_generators,
    example4_regions,
    rescale_field,
    self_adjacency,
    verify_example,
    verify_failed_3d_example,
    verify_imaginary_torus_example,
    verify_inessential_rescale_U,
    verify_real_lattice_example,
    verify_removed_fixed_points_example,
)


def _assert_report_passes(report):
    failing = [c for c in report.checks if not c.passed]
    assert report.passed, f"failed checks: {failing}"


class TestImaginaryTorus:
    def test_report_passes(self):
        _assert_report_passes(verify_imaginary_torus_example())

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

    def test_large_shear_seed_passes(self):
        # at this seed a sample sits at t = -5.9, where the shear e^{-2t}
        # is 1.4e5 and the round-off residual 6.6e-7: conj_zeta_displayed
        # is judged relative to the size of what it compares
        _assert_report_passes(verify_failed_3d_example(seed=194890681))


class TestBoxArithmetic:
    def test_intersect(self):
        a = ((0.0, 2.0), (0.0, 2.0))
        b = ((1.0, 3.0), (-1.0, 1.0))
        assert _box_intersect(a, b) == ((1.0, 2.0), (0.0, 1.0))
        assert _box_intersect(a, ((5.0, 6.0), (0.0, 1.0))) is None

    def test_minus_holes(self):
        box = ((0.0, 1.0), (0.0, 1.0))
        assert _box_minus_holes_nonempty(box, [])
        assert not _box_minus_holes_nonempty(box, [((-1.0, 2.0), (-1.0, 2.0))])
        assert _box_minus_holes_nonempty(box, [((0.25, 0.75), (0.25, 0.75))])
        # two holes that jointly cover the box
        assert not _box_minus_holes_nonempty(
            box, [((-1.0, 0.6), (-1.0, 2.0)), ((0.4, 2.0), (-1.0, 2.0))])

    def test_region_validation(self):
        with pytest.raises(ValueError):
            BoxRegion(outer=((1.0, 0.0),))

    def test_axis_map_rejection(self):
        prof = SymmetricProfile(-np.eye(2))
        region = BoxRegion(outer=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0),
                                  (0.0, 1.0)))
        th = 0.3
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        with pytest.raises(UnsupportedCaseError):
            self_adjacency(region, [Homothety(prof, A=rot)])

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
        assert self_adjacency(R, [gamma, eta]) == {(0, 0)}

    def test_neighbourhood_window_is_exact(self):
        _, V = example4_regions()
        gamma, eta = example4_generators()
        adj = self_adjacency(V, [gamma, eta])
        assert adj == {(i, j) for i in range(-2, 3) for j in range(-2, 3)}
        assert all((-i, -j) in adj for (i, j) in adj)

    def test_self_adjacency_needs_a_generator(self):
        R, _ = example4_regions()
        with pytest.raises(PreconditionError):
            self_adjacency(R, [])

    def test_self_adjacency_builds_each_power_once(self, monkeypatch):
        """One power per generator and exponent, 2 x 7 for each of the two
        regions, however many words combine them."""
        calls = []
        real = quotients.power
        monkeypatch.setattr(quotients, "power",
                            lambda g, e: calls.append((g, e)) or real(g, e))
        _assert_report_passes(verify_example("removed-fixed-points"))
        assert len(calls) == 28

    def test_rescale_field(self):
        assert rescale_field(np.array([0.0, 1.0, 2.0])) == pytest.approx(1.0 / np.sqrt(1.0 + 4.0))
        with pytest.raises(PreconditionError):
            rescale_field(np.array([1.0, 0.0, 0.0, 0.0]))

    def test_rescale_identity_on_U(self):
        report = verify_inessential_rescale_U()
        _assert_report_passes(report)
        assert report.checks[0].residual <= 1e-8


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
