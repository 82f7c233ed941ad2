"""Tests for the full 3-D translocation system assembly."""

import inspect

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md import DebyeHuckelForce
from repro.pore import build_translocation_simulation


class TestAssembly:
    def test_builds_and_steps(self):
        ts = build_translocation_simulation(n_bases=6, seed=1)
        assert ts.simulation.system.n == 6
        ts.simulation.step(50)
        ts.simulation.system.validate()

    def test_dna_indices(self):
        ts = build_translocation_simulation(n_bases=5, seed=2)
        np.testing.assert_array_equal(ts.dna_indices, np.arange(5))

    def test_com_reaction_coordinate(self):
        ts = build_translocation_simulation(n_bases=6, start_z=12.0, seed=3)
        # Chain laid upward from z=12; COM near 12 + 2.5*6.5.
        assert ts.dna_com_z == pytest.approx(12.0 + 2.5 * 6.5, abs=3.0)

    def test_deterministic(self):
        a = build_translocation_simulation(n_bases=6, seed=7)
        b = build_translocation_simulation(n_bases=6, seed=7)
        a.simulation.step(20)
        b.simulation.step(20)
        np.testing.assert_array_equal(
            a.simulation.system.positions, b.simulation.system.positions
        )

    def test_debye_huckel_always_in_stack(self):
        forces = build_translocation_simulation(n_bases=6, seed=4).simulation.forces
        assert sum(isinstance(f, DebyeHuckelForce) for f in forces) == 1

    def test_inputs_are_the_pulling_task_3d_key(self):
        """The system is fixed by (n_bases, start_z, seed): a new builder
        input must be recorded by pulling_task_3d before this passes."""
        params = inspect.signature(build_translocation_simulation).parameters
        assert tuple(params) == ("n_bases", "start_z", "seed")

    def test_min_bases(self):
        with pytest.raises(ConfigurationError):
            build_translocation_simulation(n_bases=1)

    def test_stable_over_longer_run(self):
        ts = build_translocation_simulation(n_bases=10, seed=5)
        ts.simulation.step(500)
        ts.simulation.system.validate()
        # Chain held together: max bond length below FENE rmax.
        pos = ts.simulation.system.positions
        bonds = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert bonds.max() < 1.6 * 6.5

    def test_temperature_reasonable_after_run(self):
        ts = build_translocation_simulation(n_bases=12, seed=6)
        ts.simulation.step(2000)
        # A 12-bead system fluctuates hard; just require the right ballpark.
        assert 100.0 < ts.simulation.system.temperature() < 700.0
