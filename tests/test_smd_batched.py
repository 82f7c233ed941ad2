"""Bit-identity contract of the replica-batched SMD execution path.

The batched kernel's entire value rests on one guarantee: stacking R
replicas on a leading axis changes the wall clock, never the numbers.
These tests pin that guarantee against the vectorized per-trajectory
runner and the scalar reference oracle, through the parallel shard
decomposition, through the result store (fingerprints are kernel-blind),
and against the committed Fig-4 golden master.
"""

import json
import os

import numpy as np
import pytest

from repro.core import estimate_pmf
from repro.errors import ConfigurationError
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.rng import stream_for
from repro.smd import (
    PullingProtocol,
    run_pulling_ensemble,
    run_pulling_ensemble_parallel,
    run_pulling_groups,
    run_work_ensemble,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_pmf.json")


def fast_protocol(**overrides):
    params = dict(kappa_pn=100.0, velocity=100.0, distance=3.0,
                  start_z=-1.5, equilibration_ns=0.005)
    params.update(overrides)
    return PullingProtocol(**params)


def assert_ensembles_identical(a, b):
    np.testing.assert_array_equal(a.works, b.works)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.displacements, b.displacements)
    assert a.cpu_hours == b.cpu_hours


class TestBitIdentity:
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 16])
    def test_batched_equals_vectorized_and_reference(self, reduced_model,
                                                     n_samples):
        proto = fast_protocol()
        kwargs = dict(n_records=9, seed=42)
        vec = run_pulling_ensemble(reduced_model, proto, n_samples, **kwargs)
        bat = run_pulling_ensemble(reduced_model, proto, n_samples,
                                   kernel="batched", **kwargs)
        ref = run_pulling_ensemble(reduced_model, proto, n_samples,
                                   kernel="reference", **kwargs)
        assert_ensembles_identical(vec, bat)
        assert_ensembles_identical(vec, ref)

    def test_exact_work_mode_also_identical(self, reduced_model):
        proto = fast_protocol()
        vec = run_pulling_ensemble(reduced_model, proto, 5, n_records=7,
                                   seed=3, force_sample_time=None)
        bat = run_pulling_ensemble(reduced_model, proto, 5, n_records=7,
                                   seed=3, force_sample_time=None,
                                   kernel="batched")
        assert_ensembles_identical(vec, bat)

    @pytest.mark.parametrize("n_samples", [2, 16])
    def test_pmf_identical_across_kernels(self, reduced_model, n_samples):
        proto = fast_protocol()
        estimates = [
            estimate_pmf(run_pulling_ensemble(
                reduced_model, proto, n_samples, n_records=9, seed=11,
                kernel=kernel))
            for kernel in ("vectorized", "batched", "reference")
        ]
        for other in estimates[1:]:
            np.testing.assert_array_equal(estimates[0].values, other.values)

    def test_unknown_kernel_rejected(self, reduced_model):
        with pytest.raises(ConfigurationError):
            run_pulling_ensemble(reduced_model, fast_protocol(), 2,
                                 kernel="gpu")


class TestShardDecomposition:
    @pytest.mark.parametrize("shard_size", [3, 7, 8])
    def test_parallel_batched_matches_serial_vectorized(self, reduced_model,
                                                        shard_size):
        """Uneven shard splits must not perturb any replica's stream."""
        proto = fast_protocol()
        serial = run_pulling_ensemble_parallel(
            reduced_model, proto, 17, shard_size=shard_size,
            n_records=7, seed=8)
        batched = run_pulling_ensemble_parallel(
            reduced_model, proto, 17, shard_size=shard_size,
            n_records=7, seed=8, kernel="batched")
        assert_ensembles_identical(serial, batched)


class TestGoldenMaster:
    def test_fig4_cell_unchanged_under_batched_kernel(self, reduced_model):
        """The committed Fig-4 PMF must survive kernel="batched" bit-for-bit
        (same tolerance the vectorized golden test uses)."""
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        p = golden["params"]
        model = ReducedTranslocationModel(default_reduced_potential())
        proto = PullingProtocol(
            kappa_pn=p["kappa_pn"], velocity=p["velocity"],
            distance=p["distance"], start_z=p["start_z"],
            equilibration_ns=p["equilibration_ns"])
        ensemble = run_pulling_ensemble(
            model, proto, n_samples=p["n_samples"], n_records=p["n_records"],
            seed=p["seed"], kernel="batched")
        estimate = estimate_pmf(ensemble, estimator=p["estimator"])
        np.testing.assert_allclose(estimate.values, np.asarray(golden["pmf"]),
                                   rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(estimate.displacements,
                                   np.asarray(golden["displacements"]),
                                   rtol=0.0, atol=1e-8)


class TestStoreInteroperability:
    def test_fingerprints_are_kernel_blind(self, reduced_model, result_store):
        """A vectorized-written record must satisfy a batched request, and
        vice versa — the kernel is an execution detail, not physics."""
        proto = fast_protocol()
        run_work_ensemble(reduced_model, proto, 2, 3, seed=5,
                          store=result_store, n_records=7)
        assert result_store.hits == 0
        hit = run_work_ensemble(reduced_model, proto, 2, 3, seed=5,
                                store=result_store, n_records=7,
                                kernel="batched")
        assert result_store.hits == 2
        fresh = run_work_ensemble(reduced_model, proto, 2, 3, seed=5,
                                  n_records=7, kernel="batched")
        assert_ensembles_identical(hit, fresh)

    def test_batched_writes_readable_by_vectorized(self, reduced_model,
                                                   result_store):
        proto = fast_protocol()
        run_work_ensemble(reduced_model, proto, 2, 3, seed=5,
                          store=result_store, n_records=7, kernel="batched")
        run_work_ensemble(reduced_model, proto, 2, 3, seed=5,
                          store=result_store, n_records=7)
        assert result_store.hits == 2

    def test_partial_cache_fills_only_misses(self, reduced_model,
                                             result_store):
        """With some tasks cached, the batched runner recomputes only the
        misses — and still returns the full bit-identical task list."""
        proto = fast_protocol()
        run_work_ensemble(reduced_model, proto, 1, 3, seed=5,
                          store=result_store, n_records=7)
        out = run_work_ensemble(reduced_model, proto, 3, 3, seed=5,
                                store=result_store, n_records=7,
                                kernel="batched")
        assert result_store.hits == 1
        plain = run_work_ensemble(reduced_model, proto, 3, 3, seed=5,
                                  n_records=7)
        assert_ensembles_identical(out, plain)


class TestWorkEnsembleContract:
    def test_batched_matches_vectorized(self, reduced_model):
        proto = fast_protocol()
        vec = run_work_ensemble(reduced_model, proto, 3, 4, seed=6,
                                labels=("grid", 0), n_records=7)
        bat = run_work_ensemble(reduced_model, proto, 3, 4, seed=6,
                                labels=("grid", 0), n_records=7,
                                kernel="batched")
        assert vec.works.shape[0] == bat.works.shape[0] == 12
        assert_ensembles_identical(vec, bat)


class TestRunPullingGroups:
    def test_groups_concatenate_like_separate_runs(self, reduced_model):
        """One stacked call over two streams == two independent runs."""
        proto = fast_protocol()
        streams = [stream_for(7, "g", i) for i in range(2)]
        grouped = run_pulling_groups(reduced_model, proto,
                                     [(streams[0], 3), (streams[1], 2)],
                                     n_records=7)
        solo = [
            run_pulling_ensemble(reduced_model, proto, n, n_records=7,
                                 seed=stream_for(7, "g", i))
            for i, n in enumerate((3, 2))
        ]
        assert len(grouped) == 2
        for a, b in zip(grouped, solo):
            assert_ensembles_identical(a, b)

    def test_rejects_non_generator_seeds(self, reduced_model):
        """Accepting raw seeds here would tempt the runner into minting its
        own streams — the caller owns stream derivation (SPICE105)."""
        with pytest.raises(ConfigurationError, match="stream_for"):
            run_pulling_groups(reduced_model, fast_protocol(), [(7, 3)])

    def test_rejects_empty_and_invalid_groups(self, reduced_model):
        with pytest.raises(ConfigurationError):
            run_pulling_groups(reduced_model, fast_protocol(), [])
        with pytest.raises(ConfigurationError):
            run_pulling_groups(reduced_model, fast_protocol(),
                               [(stream_for(1, "g"), 0)])

    def test_rejects_too_few_records(self, reduced_model):
        with pytest.raises(ConfigurationError):
            run_pulling_groups(reduced_model, fast_protocol(),
                               [(stream_for(1, "g"), 2)], n_records=1)
