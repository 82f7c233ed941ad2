"""Sharded work ensemble: shard identity, replica order and bookkeeping.

The contract (see :func:`repro.smd.run_pulling_ensemble_parallel`): the
shard decomposition and per-shard RNG streams depend only on
``(n_samples, shard_size, seed)``, and shards merge in index order.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import Obs
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.rng import stream_for
from repro.smd import (
    PullingProtocol,
    run_pulling_ensemble,
    run_pulling_ensemble_parallel,
)

SEED = 421


@pytest.fixture(scope="module")
def workload():
    model = ReducedTranslocationModel(default_reduced_potential())
    protocol = PullingProtocol(kappa_pn=100.0, velocity=25.0,
                               distance=10.0, start_z=-5.0)
    return model, protocol


def solo_shards(workload, sizes, kernel="vectorized"):
    """One explicit engine call per shard of ``run``'s layout."""
    model, protocol = workload
    return [run_pulling_ensemble(model, protocol, n, kernel=kernel,
                                 seed=stream_for(SEED, "smd.shard", b))
            for b, n in enumerate(sizes)]


def run(workload, **kwargs):
    model, protocol = workload
    kwargs.setdefault("n_samples", 12)
    kwargs.setdefault("shard_size", 4)
    kwargs.setdefault("seed", SEED)
    return run_pulling_ensemble_parallel(model, protocol, **kwargs)


class TestWorkerCountInvariance:
    def test_shard_size_is_part_of_result_identity(self, workload):
        # Documented: shard_size re-keys the RNG streams, so results change.
        a = run(workload, shard_size=4)
        b = run(workload, shard_size=6)
        assert not np.array_equal(a.works, b.works)

    def test_uneven_final_shard(self, workload):
        # 10 samples at shard_size=4 -> shards of 4, 4, 2; the remainder
        # shard draws from its own stream, stacked or pulled alone by the
        # oracle.
        stacked = run(workload, n_samples=10)
        assert stacked.n_samples == 10
        np.testing.assert_array_equal(stacked.works, np.concatenate(
            [e.works for e in solo_shards(workload, (4, 4, 2),
                                          kernel="reference")]))

    def test_one_replica_shard_runs_alone(self, workload):
        # 17 samples at shard_size=8 -> shards of 8, 8, 1: the two full
        # shards share one engine call, the one-replica shard gets its own
        # (BLAS's one-row path is not bit-identical to a row of a stack),
        # and every shard equals its solo run.
        obs = Obs()
        mixed = run(workload, n_samples=17, shard_size=8, obs=obs)
        spans = obs.tracer.named("smd.ensemble")
        assert [(s.attrs["n_groups"], s.attrs["n_samples"])
                for s in spans] == [(2, 16), (1, 1)]
        solo = solo_shards(workload, (8, 8, 1))
        np.testing.assert_array_equal(
            mixed.works, np.concatenate([e.works for e in solo]))
        np.testing.assert_array_equal(
            mixed.positions, np.concatenate([e.positions for e in solo]))


class TestBookkeeping:
    def test_obs_counters(self, workload):
        obs = Obs()
        ensemble = run(workload, obs=obs)
        assert obs.metrics.counter("smd.je_samples").value == 12
        assert obs.metrics.counter("smd.cpu_hours").value == pytest.approx(
            ensemble.cpu_hours)

    def test_instrumented_run_bit_identical(self, workload):
        bare = run(workload)
        instrumented = run(workload, obs=Obs())
        np.testing.assert_array_equal(bare.works, instrumented.works)

    def test_replica_order_stable(self, workload):
        # The first shard of a larger ensemble is the whole of a smaller
        # one: shard streams are keyed by index, not by ensemble size.
        small = run(workload, n_samples=4)
        large = run(workload, n_samples=12)
        np.testing.assert_array_equal(large.works[:4], small.works)


class TestValidation:
    def test_bad_arguments_raise(self, workload):
        with pytest.raises(ConfigurationError):
            run(workload, n_samples=0)
        with pytest.raises(ConfigurationError):
            run(workload, shard_size=0)
