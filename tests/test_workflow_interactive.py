"""Tests for co-allocated interactive sessions (the SC05 demo path)."""

import pytest

from repro.errors import ConfigurationError
from repro.grid import (
    BatchQueue,
    ComputeResource,
    EventLoop,
    ManualReservationWorkflow,
)
from repro.workflow import InteractiveSessionRunner


def make_runner(error_rate=0.0, lightpath_rate=1.0, seed=0):
    loop = EventLoop()
    queues = {"NCSA": BatchQueue(ComputeResource("NCSA", "TeraGrid", 1024), loop)}
    workflows = {"NCSA": ManualReservationWorkflow(error_rate=error_rate, seed=seed)}
    return InteractiveSessionRunner(
        queues, workflows, lightpath_success_rate=lightpath_rate,
        n_frames=20, seed=seed,
    )


class TestInteractiveSession:
    def test_clean_allocation_runs_on_lightpath(self):
        runner = make_runner()
        out = runner.attempt("NCSA", start=10.0, duration=4.0)
        assert out.ran
        assert out.network_used == "lightpath"
        assert out.allocation.lightpath_allocated
        # Lightpath: essentially no waste.
        assert out.imd.slowdown < 1.05

    def test_lightpath_failure_falls_back_to_production(self):
        runner = make_runner(lightpath_rate=0.0)
        out = runner.attempt("NCSA", start=10.0, duration=4.0)
        assert out.ran
        assert out.network_used == "production-internet"
        assert not out.allocation.lightpath_allocated
        assert out.imd.slowdown > 1.05
        assert out.wasted_cpu_hours > 0.0

    def test_coordination_cost_tracked(self):
        runner = make_runner(error_rate=0.5, seed=3)
        out = runner.attempt("NCSA", start=10.0, duration=4.0)
        assert out.allocation.total_emails >= 1

    def test_unknown_resource(self):
        runner = make_runner()
        with pytest.raises(ConfigurationError):
            runner.attempt("Atlantis", start=1.0, duration=1.0)
