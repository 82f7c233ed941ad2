"""Tests for pulling protocols and the parameter grid."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.smd import (
    DIRECTIONS,
    PAPER_KAPPAS,
    PAPER_VELOCITIES,
    PullingProtocol,
    parameter_grid,
)
from repro.units import pn_per_angstrom


class TestPullingProtocol:
    def test_duration(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=10.0)
        assert p.duration_ns == pytest.approx(0.8)

    def test_kappa_conversion(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=25.0)
        assert p.kappa_internal == pytest.approx(pn_per_angstrom(100.0))

    def test_trap_position_schedule(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=10.0, distance=5.0, start_z=-2.0)
        assert p.trap_position(0.0) == -2.0
        assert p.trap_position(0.25) == pytest.approx(0.5)
        # Clamped at the end of the pull.
        assert p.trap_position(10.0) == pytest.approx(3.0)
        assert p.trap_position(-1.0) == -2.0

    def test_with_start(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=10.0, start_z=0.0)
        q = p.with_start(5.0)
        assert q.start_z == 5.0
        assert q.kappa_pn == p.kappa_pn

    def test_label(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=12.5)
        assert "100" in p.label() and "12.5" in p.label()

    @pytest.mark.parametrize("bad", [
        dict(kappa_pn=0.0, velocity=1.0),
        dict(kappa_pn=1.0, velocity=-1.0),
        dict(kappa_pn=1.0, velocity=1.0, distance=0.0),
        dict(kappa_pn=1.0, velocity=1.0, equilibration_ns=-0.1),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            PullingProtocol(**bad)

    def test_frozen(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=12.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.velocity = 25.0


class TestDirection:
    def test_forward_is_the_default(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=12.5)
        assert p.direction == "forward"
        assert DIRECTIONS == ("forward", "reverse")

    def test_unknown_direction_rejected(self):
        with pytest.raises(ConfigurationError, match="direction"):
            PullingProtocol(kappa_pn=100.0, velocity=12.5,
                            direction="sideways")

    def test_reversed_is_an_involution(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=10.0,
                            start_z=-5.0)
        r = p.reversed()
        assert r.direction == "reverse"
        assert r.reversed() == p

    def test_reverse_geometry(self):
        """A reverse pull launches its trap at the window top and moves
        down: same window, mirrored schedule, same duration."""
        p = PullingProtocol(kappa_pn=100.0, velocity=10.0, distance=5.0,
                            start_z=-2.0)
        r = p.reversed()
        assert r.origin_z == pytest.approx(3.0)
        assert r.axis_sign == -1.0
        assert r.signed_velocity == pytest.approx(-10.0)
        assert r.duration_ns == pytest.approx(p.duration_ns)
        assert r.trap_position(0.0) == pytest.approx(3.0)
        assert r.trap_position(0.25) == pytest.approx(0.5)
        # Clamped at the window bottom.
        assert r.trap_position(10.0) == pytest.approx(-2.0)

    def test_mirror_schedules_coincide(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=10.0, distance=5.0,
                            start_z=-2.0)
        r = p.reversed()
        for frac in (0.0, 0.2, 0.5, 0.8, 1.0):
            t = frac * p.duration_ns
            assert r.trap_position(p.duration_ns - t) == pytest.approx(
                p.trap_position(t))

    def test_reverse_label_is_tagged(self):
        p = PullingProtocol(kappa_pn=100.0, velocity=12.5)
        assert "reverse" in p.reversed().label()
        assert "reverse" not in p.label()


class TestParameterGrid:
    def test_paper_grid_is_12_cells(self):
        grid = parameter_grid()
        assert len(grid) == 12
        kappas = {p.kappa_pn for p in grid}
        velocities = {p.velocity for p in grid}
        assert kappas == set(PAPER_KAPPAS)
        assert velocities == set(PAPER_VELOCITIES)

    def test_custom_grid(self):
        grid = parameter_grid(kappas=[50.0], velocities=[5.0, 10.0], distance=4.0)
        assert len(grid) == 2
        assert all(p.distance == 4.0 for p in grid)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            parameter_grid(kappas=[])
