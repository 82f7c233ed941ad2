"""Tests for tabulated potentials and the full-axis chain potential."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.pore import (
    HemolysinPore,
    ReducedTranslocationModel,
    TabulatedPotential1D,
    full_axis_chain_potential,
)
from repro.pore.tabulated import CHAIN_SCALE, CHAIN_TILT
from repro.smd import PullingProtocol
from repro.smd.plan import run_cells
from repro.store import ResultStore, pulling_task, task_fingerprint

from ._potentials import assert_evaluator_is_derivative, stacked_calls


class TestTabulatedPotential:
    def test_value_interpolation(self):
        p = TabulatedPotential1D.from_callable(lambda z: z**2, -2.0, 2.0)
        assert p.value(1.0) == pytest.approx(1.0, abs=1e-3)
        assert p.value(0.5) == pytest.approx(0.25, abs=1e-3)

    def test_derivative_interpolation(self):
        p = TabulatedPotential1D.from_callable(lambda z: z**2, -2.0, 2.0)
        assert p.derivative(1.0) == pytest.approx(2.0, abs=1e-2)
        assert p.derivative(-0.5) == pytest.approx(-1.0, abs=1e-2)

    def test_array_and_scalar(self):
        p = TabulatedPotential1D.from_callable(np.sin, 0.0, 6.0)
        out = p.value(np.array([1.0, 2.0]))
        assert out.shape == (2,)
        assert isinstance(p.value(1.0), float)

    def test_clamped_extrapolation(self):
        p = TabulatedPotential1D.from_callable(lambda z: z, 0.0, 1.0)
        assert p.value(5.0) == pytest.approx(1.0)
        assert p.value(-5.0) == pytest.approx(0.0)

    def test_support(self):
        p = TabulatedPotential1D.from_callable(lambda z: z, -3.0, 7.0)
        assert p.support == (-3.0, 7.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TabulatedPotential1D(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            TabulatedPotential1D(np.array([0.0, 1.0, 0.5, 2.0]),
                                 np.zeros(4))
        with pytest.raises(ConfigurationError):
            TabulatedPotential1D.from_callable(lambda z: z, 1.0, 1.0)

    def test_works_with_reduced_model(self):
        from repro.pore import ReducedTranslocationModel

        p = TabulatedPotential1D.from_callable(lambda z: 0.1 * z**2, -5, 5)
        m = ReducedTranslocationModel(p)
        assert m.max_curvature(-4.0, 4.0) == pytest.approx(0.2, rel=0.1)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), values=arrays(
        np.float64, st.integers(4, 64),
        elements=st.floats(-50.0, 50.0, allow_nan=False)))
    def test_stacked_derivative_bits_equal_derivative(self, data, values):
        """The engine's evaluator is ``np.interp`` on the flat prefix: the
        bits of ``derivative`` for any stack, flat or column, on grid
        points, between them and clamped outside the grid."""
        grid = np.linspace(-3.0, 5.0, values.size)
        p = TabulatedPotential1D(grid, values)
        assert_evaluator_is_derivative(p, *data.draw(stacked_calls(
            [*grid[:3], grid[-1], 0.0, -0.0], lo=-10.0, hi=12.0)))


class TestFullAxisChainPotential:
    def test_covers_whole_pore(self):
        p = full_axis_chain_potential()
        lo, hi = p.support
        pore = HemolysinPore()
        assert lo < pore.geometry.z_bottom
        assert hi > pore.geometry.z_top

    def test_is_the_scaled_on_axis_potential_plus_tilt(self):
        p = full_axis_chain_potential()
        pore = HemolysinPore()
        for z in (-20.0, 0.0, 18.0):
            want = (CHAIN_SCALE * float(pore.axial_potential(np.array([z]))[0])
                    + CHAIN_TILT * z)
            assert p.value(z) == pytest.approx(want, rel=1e-3, abs=1e-3)

    def test_tilt_dominates_far_field(self):
        p = full_axis_chain_potential()
        # Outside the pore only the tilt remains.
        assert p.derivative(60.0) == pytest.approx(CHAIN_TILT, rel=0.05)

    def test_constriction_barrier_present(self):
        p = full_axis_chain_potential()
        # De-tilted landscape has the constriction barrier above the
        # vestibule well.
        assert p.value(0.0) > p.value(18.0) - CHAIN_TILT * 18.0


class TestFingerprint:
    """The default production model is store-addressable."""

    def table(self):
        grid = np.linspace(-2.0, 2.0, 41)
        return grid, grid**2

    def test_equal_tables_fingerprint_equal(self):
        grid, values = self.table()
        a = TabulatedPotential1D(grid, values).fingerprint_data()
        b = TabulatedPotential1D(grid.copy(), list(values)).fingerprint_data()
        assert a == b
        assert (a["kind"], a["n"], a["support"]) == (
            "tabulated-1d", 41, [-2.0, 2.0])

    @pytest.mark.parametrize("which", ["grid", "values"])
    def test_one_ulp_rekeys(self, which):
        grid, values = self.table()
        base = TabulatedPotential1D(grid, values).fingerprint_data()
        moved = {"grid": grid.copy(), "values": values.copy()}
        moved[which][7] = np.nextafter(moved[which][7], np.inf)
        other = TabulatedPotential1D(
            moved["grid"], moved["values"]).fingerprint_data()
        assert other["sha256"] != base["sha256"]
        assert {k: other[k] for k in ("kind", "n", "support")} == \
            {k: base[k] for k in ("kind", "n", "support")}

    def test_production_window_round_trips_through_a_store(self, tmp_path):
        model = ReducedTranslocationModel(full_axis_chain_potential())
        store = ResultStore(tmp_path / "store")
        cells = [(PullingProtocol(kappa_pn=100.0, velocity=12.5,
                                  distance=10.0, start_z=z,
                                  equilibration_ns=0.05),
                  ("production-window", i))
                 for i, z in enumerate((-10.0, 0.0))]
        cold = list(run_cells(model, cells, None, 3, seed=4,
                              store=store).values())
        planned = [task_fingerprint(pulling_task(
            model, e.protocol, n_samples=3, n_records=41,
            seed_key=(4, "production-window", i)))
            for i, e in enumerate(cold)]
        assert store.fingerprints() == sorted(planned)
        for fingerprint, ensemble in zip(planned, cold):
            loaded = store.get(fingerprint)
            np.testing.assert_array_equal(loaded.works, ensemble.works)
            np.testing.assert_array_equal(loaded.positions,
                                          ensemble.positions)
            assert loaded.protocol == ensemble.protocol
