"""Tests for sub-trajectory planning and PMF stitching."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.smd import PullingProtocol, plan_subtrajectories, stitch_pmfs


class TestPlanning:
    def base(self):
        return PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=10.0,
                               start_z=-5.0)

    def test_even_split(self):
        plan = plan_subtrajectories(self.base(), total_distance=30.0, window=10.0)
        assert plan.n_windows == 3
        assert plan.total_distance == pytest.approx(30.0)
        starts = [p.start_z for p in plan.protocols]
        assert starts == [-5.0, 5.0, 15.0]

    def test_remainder_window(self):
        plan = plan_subtrajectories(self.base(), total_distance=25.0, window=10.0)
        assert plan.n_windows == 3
        assert plan.protocols[-1].distance == pytest.approx(5.0)

    def test_parameters_shared(self):
        plan = plan_subtrajectories(self.base(), total_distance=20.0)
        assert all(p.kappa_pn == 100.0 and p.velocity == 12.5 for p in plan.protocols)

    def test_windows_keep_every_other_field_of_the_base(self):
        """``direction`` used to be dropped: a reverse base came back as
        forward windows."""
        reverse = self.base().reversed()
        plan = plan_subtrajectories(reverse, total_distance=20.0, window=10.0)
        assert [p.direction for p in plan.protocols] == ["reverse"] * 2
        assert [p.start_z for p in plan.protocols] == [-5.0, 5.0]
        assert all(p.equilibration_ns == reverse.equilibration_ns
                   for p in plan.protocols)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            plan_subtrajectories(self.base(), total_distance=0.0)
        with pytest.raises(ConfigurationError):
            plan_subtrajectories(self.base(), total_distance=5.0, window=10.0)


class TestStitching:
    def test_continuity_of_known_function(self):
        # Stitch three windows of f(z) = z^2 and recover the global shape.
        f = lambda z: z**2
        windows = []
        pmfs = []
        starts = [0.0, 5.0, 10.0]
        for s in starts:
            d = np.linspace(0, 5.0, 11)
            windows.append(d)
            pmfs.append(f(s + d) - f(s))  # each window re-zeroed
        z, pmf = stitch_pmfs(windows, pmfs, starts)
        assert np.all(np.diff(z) > 0)
        np.testing.assert_allclose(pmf, f(z) - f(0.0), atol=1e-9)

    def test_junction_deduplication(self):
        windows = [np.linspace(0, 1, 5), np.linspace(0, 1, 5)]
        pmfs = [np.linspace(0, 2, 5), np.linspace(0, 3, 5)]
        z, pmf = stitch_pmfs(windows, pmfs, [0.0, 1.0])
        assert z.size == 9  # duplicated junction point dropped
        assert np.all(np.diff(z) > 0)

    def test_offset_propagates(self):
        windows = [np.array([0.0, 1.0]), np.array([0.0, 1.0])]
        pmfs = [np.array([0.0, -5.0]), np.array([0.0, -3.0])]
        _, pmf = stitch_pmfs(windows, pmfs, [0.0, 1.0])
        assert pmf[-1] == pytest.approx(-8.0)

    def test_input_validation(self):
        with pytest.raises(AnalysisError):
            stitch_pmfs([], [], [])
        with pytest.raises(AnalysisError):
            stitch_pmfs([np.array([0.0, 1.0])], [np.array([0.0])], [0.0])
