"""Tests for trajectory recording and observables."""

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.md import Frame, ObservableRecorder, Trajectory


class TestFrame:
    def test_copies_positions(self):
        pos = np.zeros((2, 3))
        f = Frame(0, 0.0, pos)
        pos += 1.0
        np.testing.assert_array_equal(f.positions, 0.0)

    def test_scalars_default(self):
        assert Frame(0, 0.0, np.zeros((1, 3))).scalars == {}


class TestTrajectory:
    def test_append_and_access(self):
        t = Trajectory()
        t.append(Frame(0, 0.0, np.zeros((2, 3))))
        t.append(Frame(5, 1.0, np.ones((2, 3))))
        assert len(t) == 2
        assert t[1].step == 5
        np.testing.assert_array_equal(t.steps, [0, 5])
        np.testing.assert_array_equal(t.times, [0.0, 1.0])

    def test_out_of_order_rejected(self):
        t = Trajectory()
        t.append(Frame(5, 1.0, np.zeros((1, 3))))
        with pytest.raises(ConfigurationError):
            t.append(Frame(3, 0.5, np.zeros((1, 3))))

    def test_iteration(self):
        t = Trajectory()
        t.append(Frame(0, 0.0, np.zeros((1, 3))))
        assert [f.step for f in t] == [0]


class TestObservableRecorder:
    class SimStub:
        def __init__(self):
            self.step_count = 0
            self.time = 0.0
            self.potential_energy = -1.0

    def test_stride_sampling(self):
        rec = ObservableRecorder(stride=2)
        rec.track("pe", lambda s: s.potential_energy)
        sim = self.SimStub()
        for step in range(1, 7):
            sim.step_count = step
            sim.time = step * 0.1
            rec(sim)
        np.testing.assert_array_equal(rec.series("pe"), [-1.0, -1.0, -1.0])
        np.testing.assert_allclose(rec.times, [0.2, 0.4, 0.6])

    def test_duplicate_name_rejected(self):
        rec = ObservableRecorder()
        rec.track("x", lambda s: 0.0)
        with pytest.raises(ConfigurationError):
            rec.track("x", lambda s: 1.0)

    def test_unknown_series(self):
        with pytest.raises(AnalysisError):
            ObservableRecorder().series("nope")

    def test_bad_stride(self):
        with pytest.raises(ConfigurationError):
            ObservableRecorder(stride=0)

    def test_with_real_simulation(self, dimer_simulation):
        rec = ObservableRecorder(stride=5)
        rec.track("pe", lambda s: s.potential_energy)
        dimer_simulation.add_reporter(rec)
        dimer_simulation.step(20)
        assert rec.series("pe").size == 4
