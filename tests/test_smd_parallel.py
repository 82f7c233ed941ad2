"""Work ensemble as seeded tasks: task identity, replica order, bookkeeping.

The contract (see :func:`repro.smd.run_work_ensemble`): a cell is
``n_tasks`` independently seeded shards of ``samples_per_task`` replicas,
shard ``t`` draws from ``stream_for(seed, *labels, "task", t)`` whatever
else shares its engine call, and the shards merge in index order.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import Obs
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.rng import stream_for
from repro.smd import PullingProtocol, run_pulling_ensemble, run_work_ensemble

SEED = 421


@pytest.fixture(scope="module")
def workload():
    model = ReducedTranslocationModel(default_reduced_potential())
    protocol = PullingProtocol(kappa_pn=100.0, velocity=25.0,
                               distance=10.0, start_z=-5.0)
    return model, protocol


def solo_shards(workload, n_tasks, samples_per_task, kernel="vectorized"):
    """One explicit engine call per shard of ``run``'s layout."""
    model, protocol = workload
    return [run_pulling_ensemble(model, protocol, samples_per_task,
                                 kernel=kernel,
                                 seed=stream_for(SEED, "task", t))
            for t in range(n_tasks)]


def run(workload, n_tasks=3, samples_per_task=4, **kwargs):
    model, protocol = workload
    kwargs.setdefault("seed", SEED)
    return run_work_ensemble(model, protocol, n_tasks, samples_per_task,
                             **kwargs)


class TestWorkerCountInvariance:
    def test_shard_size_is_part_of_result_identity(self, workload):
        # Documented: the task size re-keys the RNG streams (12 replicas
        # as 3 x 4 or as 2 x 6), so results change.
        a = run(workload, 3, 4)
        b = run(workload, 2, 6)
        assert a.n_samples == b.n_samples == 12
        assert not np.array_equal(a.works, b.works)

    def test_one_replica_shards_share_a_call(self, workload):
        # One-replica shards stack like any others — the engine evaluates
        # the potential on a column, one one-row product per replica — and
        # each still equals its solo oracle run bit for bit.
        obs = Obs()
        singles = run(workload, 3, 1, obs=obs)
        spans = obs.tracer.named("smd.ensemble")
        assert [(s.attrs["n_groups"], s.attrs["n_samples"])
                for s in spans] == [(3, 3)]
        solo = solo_shards(workload, 3, 1, kernel="reference")
        np.testing.assert_array_equal(
            singles.works, np.concatenate([e.works for e in solo]))
        np.testing.assert_array_equal(
            singles.positions, np.concatenate([e.positions for e in solo]))
        # ...exactly as shards of two or more replicas do.
        obs = Obs()
        run(workload, 3, 2, obs=obs)
        assert [(s.attrs["n_groups"], s.attrs["n_samples"])
                for s in obs.tracer.named("smd.ensemble")] == [(3, 6)]


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
        small = run(workload, 1)
        large = run(workload, 3)
        np.testing.assert_array_equal(large.works[:4], small.works)
        np.testing.assert_array_equal(
            large.works, np.concatenate(
                [e.works for e in solo_shards(workload, 3, 4)]))


class TestValidation:
    def test_bad_arguments_raise(self, workload):
        with pytest.raises(ConfigurationError):
            run(workload, n_tasks=0)
        with pytest.raises(ConfigurationError):
            run(workload, samples_per_task=0)
