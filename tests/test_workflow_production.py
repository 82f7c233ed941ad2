"""Tests for the full-axis PMF production sweep."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import Obs
from repro.pore import (
    AxialLandscape,
    ReducedTranslocationModel,
    default_reduced_potential,
    full_axis_chain_potential,
)
from repro.rng import stream_for
from repro.smd import (
    PullingProtocol,
    run_bidirectional_ensemble,
    run_pulling_ensemble,
)
from repro.smd.plan import run_cells
from repro.store import ResultStore, pulling_task, task_fingerprint
from repro.workflow import run_full_axis_production


class TestFullAxisProduction:
    def test_windows_cover_range(self):
        res = run_full_axis_production(axis_range=(-20.0, 20.0), window=10.0,
                                       n_samples=8, seed=1)
        assert res.n_windows == 4
        assert res.z[0] == pytest.approx(-20.0)
        assert res.z[-1] == pytest.approx(20.0)
        assert np.all(np.diff(res.z) > 0)

    def test_tracks_reference_within_few_percent(self):
        res = run_full_axis_production(axis_range=(-30.0, 30.0),
                                       n_samples=16, seed=2)
        drop = abs(res.reference[-1] - res.reference[0])
        assert res.rms_error < 0.05 * drop

    def test_exact_on_linear_potential(self):
        model = ReducedTranslocationModel(AxialLandscape([], tilt=-3.0),
                                          friction=0.004)
        res = run_full_axis_production(model=model, axis_range=(0.0, 20.0),
                                       n_samples=24, seed=3)
        np.testing.assert_allclose(res.pmf, -3.0 * (res.z - res.z[0]),
                                   atol=1.5)

    def test_barrier_height_detects_structure(self):
        flat = ReducedTranslocationModel(AxialLandscape([], tilt=-3.0),
                                         friction=0.004)
        res_flat = run_full_axis_production(model=flat,
                                            axis_range=(0.0, 20.0),
                                            n_samples=16, seed=4)
        bump = ReducedTranslocationModel(
            AxialLandscape([(6.0, 10.0, 1.5)], tilt=-3.0), friction=0.004)
        res_bump = run_full_axis_production(model=bump,
                                            axis_range=(0.0, 20.0),
                                            n_samples=16, seed=5)
        assert res_bump.barrier_height() > res_flat.barrier_height() + 3.0

    def test_cpu_accounting_sums_windows(self):
        res = run_full_axis_production(axis_range=(-10.0, 10.0),
                                       n_samples=8, seed=6)
        assert res.total_cpu_hours == pytest.approx(
            sum(e.cpu_hours for e in res.ensembles))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_full_axis_production(axis_range=(10.0, -10.0))

    def test_deterministic(self):
        a = run_full_axis_production(axis_range=(-10.0, 0.0), n_samples=6,
                                     seed=7)
        b = run_full_axis_production(axis_range=(-10.0, 0.0), n_samples=6,
                                     seed=7)
        np.testing.assert_array_equal(a.pmf, b.pmf)


def assert_same(a, b):
    np.testing.assert_array_equal(a.works, b.works)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.displacements, b.displacements)
    assert a.cpu_hours == b.cpu_hours


def landscape_model():
    return ReducedTranslocationModel(
        AxialLandscape([(6.0, 10.0, 1.5)], tilt=-3.0), friction=0.004)


class TestProductionIsOnePlan:
    """Production is the unsplit plan of its windows' cells."""

    @pytest.mark.parametrize("make_model", [
        lambda: ReducedTranslocationModel(full_axis_chain_potential()),
        landscape_model,
    ], ids=["tabulated", "landscape"])
    def test_windows_equal_the_oracle_on_their_historical_streams(
            self, make_model):
        model = make_model()
        res = run_full_axis_production(model=model, axis_range=(0.0, 25.0),
                                       n_samples=3, seed=11)
        assert [e.protocol.distance for e in res.ensembles] == [10, 10, 5]
        for i, ensemble in enumerate(res.ensembles):
            assert_same(ensemble, run_pulling_ensemble(
                model, ensemble.protocol, 3, kernel="reference",
                seed=stream_for(11, "production-window", i)))

    def test_store_is_bit_neutral_and_a_rerun_computes_nothing(
            self, tmp_path):
        kwargs = dict(axis_range=(-10.0, 10.0), n_samples=3, seed=5)
        bare = run_full_axis_production(**kwargs)
        store = ResultStore(tmp_path / "store")
        for stage, traffic in (("cold", (0, 2, 2)), ("warm", (2, 2, 2))):
            res = run_full_axis_production(store=store, **kwargs)
            for a, b in zip(bare.ensembles, res.ensembles):
                assert_same(a, b)
            np.testing.assert_array_equal(bare.pmf, res.pmf)
            assert (store.hits, store.misses, store.writes) == traffic, stage

    def test_axis_shorter_than_the_window_is_one_window(self, tmp_path):
        """Regression: the clamp to the axis length reached the base
        protocol but not ``plan_subtrajectories``, which refused
        ``window > total_distance``."""
        model = landscape_model()
        cell = ("production-window", 0)
        store = ResultStore(tmp_path / "store")
        res = run_full_axis_production(
            model=model, axis_range=(-2.0, 2.0), window=10.0, n_samples=3,
            seed=7, store=store)
        [ensemble] = res.ensembles
        assert (ensemble.protocol.start_z, ensemble.protocol.distance) == (
            -2.0, 4.0)
        assert store.fingerprints() == [task_fingerprint(pulling_task(
            model, ensemble.protocol, n_samples=3, n_records=41,
            seed_key=(7, *cell)))]
        alone = run_cells(model, [(ensemble.protocol, cell)], None, 3, seed=7)
        assert list(alone) == [cell]
        assert_same(ensemble, alone[cell])

    def test_one_engine_call_as_long_as_its_longest_window(
            self, monkeypatch):
        model = landscape_model()
        calls = []
        bind = model.potential.stacked_derivative

        def spy(total, column):
            evaluate = bind(total, column)
            return lambda z: calls.append(len(z)) or evaluate(z)

        monkeypatch.setattr(model.potential, "stacked_derivative", spy)

        def loop_sizes(lo, hi, n_windows):
            """Replicas stepped at each loop iteration of the one engine
            call (its first evaluation is the set-up shape check)."""
            del calls[:]
            obs = Obs()
            res = run_full_axis_production(
                model=model, axis_range=(lo, hi), velocity=100.0,
                n_samples=4, seed=1, obs=obs)
            assert res.n_windows == n_windows
            assert [s.attrs["n_cells"]
                    for s in obs.tracer.named("smd.ensemble")] == [n_windows]
            return calls[1:]

        alone = [len(loop_sizes(lo, hi, 1))
                 for lo, hi in ((0.0, 10.0), (10.0, 20.0), (20.0, 25.0))]
        stacked = loop_sizes(0.0, 25.0, 3)
        assert len(stacked) == max(alone) < sum(alone)
        assert (stacked[0], stacked[-1]) == (12, 8)


class TestBidirectionalIsOnePlan:
    """The forward/reverse pair is a two-cell unsplit plan."""

    def pair(self, **kwargs):
        model = ReducedTranslocationModel(default_reduced_potential())
        proto = PullingProtocol(kappa_pn=100.0, velocity=100.0, distance=3.0,
                                start_z=-1.5, equilibration_ns=0.005)
        return model, proto, run_bidirectional_ensemble(
            model, proto, 3, n_records=7, seed=8, **kwargs)

    def test_legs_equal_the_oracle_in_one_engine_call(self):
        obs = Obs()
        model, proto, pair = self.pair(obs=obs)
        for leg, protocol, tag in ((pair.forward, proto, "fwd"),
                                   (pair.reverse, proto.reversed(), "rev")):
            assert_same(leg, run_pulling_ensemble(
                model, protocol, 3, n_records=7, kernel="reference",
                seed=stream_for(8, "smd.bidir", tag)))
        assert [(s.attrs["n_cells"], s.attrs["n_samples"])
                for s in obs.tracer.named("smd.ensemble")] == [(2, 6)]

    def test_store_is_bit_neutral_under_the_historical_keys(self, tmp_path):
        model, proto, bare = self.pair()
        store = ResultStore(tmp_path / "store")
        for stage, traffic in (("cold", (0, 2, 2)), ("warm", (2, 2, 2))):
            _, _, pair = self.pair(store=store)
            assert_same(bare.forward, pair.forward)
            assert_same(bare.reverse, pair.reverse)
            assert (store.hits, store.misses, store.writes) == traffic, stage
        assert store.fingerprints() == sorted(
            task_fingerprint(pulling_task(
                model, protocol, n_samples=3, n_records=7,
                seed_key=(8, "smd.bidir", tag)))
            for protocol, tag in ((proto, "fwd"), (proto.reversed(), "rev")))
