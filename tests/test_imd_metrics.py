"""Tests for interactivity metrics."""

import pytest

from repro.errors import AnalysisError
from repro.imd import InteractivityReport


class TestInteractivityReport:
    def make(self, compute=10.0, stall=2.0, wall=12.0, n=100):
        return InteractivityReport(
            n_frames=n, compute_time=compute, stall_time=stall, wall_time=wall,
            frame_stalls=[0.0] * (n - 1) + [stall],
            round_trip_delays=[0.05] * n,
        )

    def test_slowdown(self):
        r = self.make()
        assert r.slowdown == pytest.approx(1.2)

    def test_stall_fraction(self):
        r = self.make()
        assert r.stall_fraction == pytest.approx(2.0 / 12.0)

    def test_fps(self):
        r = self.make()
        assert r.fps == pytest.approx(100 / 12.0)


    def test_p95_round_trip(self):
        r = InteractivityReport(
            n_frames=100, compute_time=1.0, stall_time=0.0, wall_time=1.0,
            round_trip_delays=list(range(100)),
        )
        assert r.p95_round_trip == pytest.approx(94.05, rel=0.01)

    def test_wasted_cpu_hours(self):
        r = self.make(stall=3600.0, wall=7200.0)
        assert r.wasted_cpu_hours(procs=256) == pytest.approx(256.0)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            InteractivityReport(0, 1.0, 0.0, 1.0)
        with pytest.raises(AnalysisError):
            InteractivityReport(1, -1.0, 0.0, 1.0)

    def test_degenerate_zero_wall(self):
        r = InteractivityReport(1, 0.0, 0.0, 0.0)
        assert r.stall_fraction == 0.0
        assert r.slowdown == float("inf")
