"""Bit-identity contract of the replica-batched SMD execution path.

The stacked engine's entire value rests on one guarantee: stacking R
replicas — and several independently seeded groups of them — on one
array axis changes the wall clock, never the numbers.  These tests pin
that guarantee against the scalar reference oracle
(``kernel="reference"``, one explicit call per group), through the task
decomposition, through the result store (fingerprints are kernel-blind),
and against the committed Fig-4 golden master.
"""

import json
import os
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import estimate_pmf
from repro.errors import ConfigurationError
from repro.md.kernels import validate_kernel
from repro.obs import Obs
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.rng import stream_for
from repro.smd import (
    PullingProtocol,
    WorkEnsemble,
    run_pulling_ensemble,
    run_pulling_ensemble_3d,
    run_pulling_stack,
)
from repro.smd.plan import plan_tasks, run_cells
from repro.store import pulling_task

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


def oracle_tasks(model, proto, n_tasks, samples_per_task, *, seed,
                 labels=(), store=None, n_records):
    """One cell's ``run_cells`` tasks pulled one by one by the scalar
    oracle, each from its own ``stream_for`` key (memoized under that key's
    task descriptor when a store is given), merged in task order."""
    def pull(key):
        def run():
            return run_pulling_ensemble(
                model, proto, samples_per_task, seed=stream_for(*key),
                n_records=n_records, kernel="reference")

        if store is None:
            return run()
        return store.get_or_run(pulling_task(
            model, proto, n_samples=samples_per_task, n_records=n_records,
            seed_key=key), run)

    return reduce(WorkEnsemble.merged_with, (
        pull((seed, *labels, "task", t)) for t in range(n_tasks)))


class TestBitIdentity:
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 16])
    def test_batched_equals_vectorized_and_reference(self, reduced_model,
                                                     n_samples):
        proto = fast_protocol()
        kwargs = dict(n_records=9, seed=42)
        vec = run_pulling_ensemble(reduced_model, proto, n_samples, **kwargs)
        ref = run_pulling_ensemble(reduced_model, proto, n_samples,
                                   kernel="reference", **kwargs)
        assert_ensembles_identical(vec, ref)

    def test_exact_work_mode_also_identical(self, reduced_model):
        proto = fast_protocol()
        vec = run_pulling_ensemble(reduced_model, proto, 5, n_records=7,
                                   seed=3, force_sample_time=None)
        ref = run_pulling_ensemble(reduced_model, proto, 5, n_records=7,
                                   seed=3, force_sample_time=None,
                                   kernel="reference")
        assert_ensembles_identical(vec, ref)

    @pytest.mark.parametrize("n_samples", [2, 16])
    def test_pmf_identical_across_kernels(self, reduced_model, n_samples):
        proto = fast_protocol()
        estimates = [
            estimate_pmf(run_pulling_ensemble(
                reduced_model, proto, n_samples, n_records=9, seed=11,
                kernel=kernel))
            for kernel in ("vectorized", "reference")
        ]
        for other in estimates[1:]:
            np.testing.assert_array_equal(estimates[0].values, other.values)

    def test_unknown_kernel_rejected(self, reduced_model):
        """``"batched"`` was a kernel name once; stacking is now the plan
        layer's decision and the name is as unknown as any other."""
        for kernel in ("gpu", "batched"):
            with pytest.raises(ConfigurationError):
                validate_kernel(kernel)
            with pytest.raises(ConfigurationError):
                run_pulling_ensemble(reduced_model, fast_protocol(), 2,
                                     kernel=kernel)
            with pytest.raises(ConfigurationError):
                run_pulling_ensemble_3d(fast_protocol(), 2, kernel=kernel)


class TestShardDecomposition:
    @pytest.mark.parametrize("shard_size", [3, 7, 8])
    def test_parallel_batched_matches_serial_vectorized(self, reduced_model,
                                                        shard_size):
        """Odd task sizes must not perturb any replica's stream: a cell's
        stacked tasks equal one oracle call per task."""
        proto = fast_protocol()
        n_tasks = 17 // shard_size
        serial = oracle_tasks(reduced_model, proto, n_tasks, shard_size,
                              seed=8, n_records=7)
        batched = run_cells(reduced_model, [(proto, ())], n_tasks,
                            shard_size, seed=8, n_records=7)[()]
        assert_ensembles_identical(serial, batched)


class TestGoldenMaster:
    def test_fig4_cell_unchanged_under_reference_kernel(self, reduced_model):
        """The scalar oracle must reproduce the committed Fig-4 PMF (same
        tolerance the default-layout golden test uses)."""
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
            seed=p["seed"], kernel="reference")
        estimate = estimate_pmf(ensemble, estimator=p["estimator"])
        np.testing.assert_allclose(estimate.values, np.asarray(golden["pmf"]),
                                   rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(estimate.displacements,
                                   np.asarray(golden["displacements"]),
                                   rtol=0.0, atol=1e-8)


class TestStoreInteroperability:
    def test_fingerprints_are_kernel_blind(self, reduced_model, result_store):
        """Records written task by task by the oracle must satisfy the
        stacked plan's request — the layout is an execution detail, not
        physics."""
        proto = fast_protocol()
        oracle_tasks(reduced_model, proto, 2, 3, seed=5, store=result_store,
                     n_records=7)
        assert (result_store.hits, result_store.writes) == (0, 2)
        hit = run_cells(reduced_model, [(proto, ())], 2, 3, seed=5,
                        store=result_store, n_records=7)[()]
        assert (result_store.hits, result_store.writes) == (2, 2)
        fresh = run_cells(reduced_model, [(proto, ())], 2, 3, seed=5,
                          n_records=7)[()]
        assert_ensembles_identical(hit, fresh)

    def test_batched_writes_readable_by_vectorized(self, reduced_model,
                                                   result_store):
        """...and the other way round: the stacked plan's records are hits
        for one-task-at-a-time oracle calls."""
        proto = fast_protocol()
        run_cells(reduced_model, [(proto, ())], 2, 3, seed=5,
                  store=result_store, n_records=7)
        oracle_tasks(reduced_model, proto, 2, 3, seed=5, store=result_store,
                     n_records=7)
        assert (result_store.hits, result_store.writes) == (2, 2)

    def test_partial_cache_fills_only_misses(self, reduced_model,
                                             result_store):
        """With some tasks cached, the plan stacks and recomputes only the
        misses — and still returns the full bit-identical task list."""
        proto = fast_protocol()
        run_cells(reduced_model, [(proto, ())], 1, 3, seed=5,
                  store=result_store, n_records=7)
        obs = Obs()
        out = run_cells(reduced_model, [(proto, ())], 3, 3, seed=5,
                        store=result_store, n_records=7, obs=obs)[()]
        assert result_store.hits == 1
        assert [(s.attrs["n_groups"], s.attrs["n_samples"])
                for s in obs.tracer.named("smd.ensemble")] == [(2, 6)]
        assert_ensembles_identical(
            out, oracle_tasks(reduced_model, proto, 3, 3, seed=5,
                              n_records=7))


class TestWorkEnsembleContract:
    def test_batched_matches_vectorized(self, reduced_model):
        """A cell's stacked tasks equal one oracle call per task."""
        proto = fast_protocol()
        bat = run_cells(reduced_model, [(proto, ("grid", 0))], 3, 4, seed=6,
                        n_records=7)[("grid", 0)]
        ref = oracle_tasks(reduced_model, proto, 3, 4, seed=6,
                           labels=("grid", 0), n_records=7)
        assert ref.works.shape[0] == bat.works.shape[0] == 12
        assert_ensembles_identical(ref, bat)


class TestRunPullingGroups:
    def test_groups_concatenate_like_separate_runs(self, reduced_model):
        """One stacked call over two streams == two independent runs."""
        proto = fast_protocol()
        streams = [stream_for(7, "g", i) for i in range(2)]
        grouped = run_pulling_stack(
            reduced_model, [(proto, streams[0], 3), (proto, streams[1], 2)],
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
            run_pulling_stack(reduced_model, [(fast_protocol(), 7, 3)])

    def test_rejects_empty_and_invalid_groups(self, reduced_model):
        with pytest.raises(ConfigurationError):
            run_pulling_stack(reduced_model, [])
        with pytest.raises(ConfigurationError):
            run_pulling_stack(reduced_model,
                              [(fast_protocol(), stream_for(1, "g"), 0)])

    def test_rejects_too_few_records(self, reduced_model):
        with pytest.raises(ConfigurationError):
            run_pulling_stack(reduced_model,
                              [(fast_protocol(), stream_for(1, "g"), 2)],
                              n_records=1)


#: Cells of a mixed stack: every protocol field the engine turns into a
#: per-replica vector or a per-cell clock, kept short enough (fast, short
#: pulls) that the scalar oracle stays cheap.
short_protocols = st.builds(
    PullingProtocol,
    kappa_pn=st.sampled_from([10.0, 100.0, 400.0, 1000.0]),
    velocity=st.sampled_from([100.0, 150.0, 250.0, 400.0]),
    distance=st.sampled_from([0.25, 0.5, 1.0]),
    start_z=st.sampled_from([-2.0, -0.5, 0.0, 1.5]),
    equilibration_ns=st.sampled_from([0.0, 0.0005, 0.002]),
    direction=st.sampled_from(["forward", "reverse"]),
)
mixed_cells = st.lists(
    st.tuples(
        short_protocols,
        st.lists(st.integers(2, 5), min_size=1, max_size=3),    # group sizes
    ),
    min_size=2, max_size=4, unique_by=lambda cell: cell[0])


def assert_stack_equals_solo_and_oracle(layout, n_records, exact):
    """Pull ``(protocol, stream key, n_samples)`` groups in one stack: each
    equals the same group pulled alone and by the scalar oracle, and leaves
    its generator where a solo run leaves it."""
    model = ReducedTranslocationModel(default_reduced_potential())
    kwargs = dict(n_records=n_records)
    if exact:
        kwargs["force_sample_time"] = None
    rngs = [stream_for(*key) for _proto, key, _m in layout]
    stacked = run_pulling_stack(
        model, [(proto, rng, m)
                for (proto, _key, m), rng in zip(layout, rngs)],
        **kwargs)
    assert len(stacked) == len(layout)
    for (proto, key, m), rng, ensemble in zip(layout, rngs, stacked):
        solo_rng = stream_for(*key)
        assert_ensembles_identical(ensemble, run_pulling_ensemble(
            model, proto, m, seed=solo_rng, **kwargs))
        assert_ensembles_identical(ensemble, run_pulling_ensemble(
            model, proto, m, seed=stream_for(*key), kernel="reference",
            **kwargs))
        # The block draws never over-draw: a generator that drew one
        # variate too many would be in a different state here.
        assert rng.bit_generator.state == solo_rng.bit_generator.state


class TestCrossCellStack:
    """One step loop for cells that differ in everything: each group of a
    mixed stack equals the same group pulled alone and the scalar oracle,
    and leaves its generator where a solo run leaves it."""

    @settings(max_examples=25, deadline=None)
    @given(cells=mixed_cells, exact=st.booleans(),
           n_records=st.integers(2, 9), interleave=st.booleans())
    def test_mixed_stack_equals_solo_and_oracle(self, cells, exact,
                                                n_records, interleave):
        layout = [(proto, (5, c, g), m) for c, (proto, sizes) in
                  enumerate(cells) for g, m in enumerate(sizes)]
        if interleave:          # cell-mates need not be adjacent on input
            layout = layout[::2] + layout[1::2]
        assert_stack_equals_solo_and_oracle(layout, n_records, exact)

    @settings(max_examples=25, deadline=None)
    @given(protocols=st.lists(short_protocols, min_size=2, max_size=24),
           exact=st.booleans(), n_records=st.integers(2, 9))
    def test_one_replica_stack_equals_solo_and_oracle(self, protocols,
                                                      exact, n_records):
        # A window of one-replica tasks: the engine evaluates the potential
        # on a column, so each pull gets the one-row product it gets alone.
        assert_stack_equals_solo_and_oracle(
            [(proto, (6, g), 1) for g, proto in enumerate(protocols)],
            n_records, exact)

    def test_potential_that_flattens_a_column_is_refused(self):
        class Flattening:
            """Its column evaluator lays the column on its side: an
            ``(1, n)`` row instead of the ``(n,)`` the engine steps."""

            def __init__(self):
                self.inner = default_reduced_potential()

            def value(self, z):
                return self.inner.value(z)

            def derivative(self, z):
                return self.inner.derivative(z)

            def stacked_derivative(self, total, column):
                if column:
                    return lambda z: self.inner.derivative(z[None, :])
                return self.inner.stacked_derivative(total, column)

        model = ReducedTranslocationModel(Flattening())
        pulls = [(fast_protocol(), stream_for(2, g), 1) for g in range(3)]
        with pytest.raises(ConfigurationError, match="leading-axis contract"):
            run_pulling_stack(model, pulls, n_records=5)
        # Larger pulls never take the column form.
        run_pulling_stack(model, [(fast_protocol(), stream_for(2, g), 2)
                                  for g in range(2)], n_records=5)

    def test_span_names_a_protocol_only_when_it_has_one(self, reduced_model):
        soft, stiff = fast_protocol(kappa_pn=10.0), fast_protocol()
        obs = Obs()
        run_pulling_stack(reduced_model, [(soft, stream_for(1, "a"), 2),
                                          (stiff, stream_for(1, "b"), 3),
                                          (soft, stream_for(1, "c"), 2)],
                          n_records=5, obs=obs)
        run_pulling_ensemble(reduced_model, stiff, 3, n_records=5, seed=4,
                             obs=obs)
        run_pulling_ensemble(reduced_model, stiff, 3, n_records=5, seed=4,
                             obs=obs, kernel="reference")
        mixed, one_cell, oracle = [
            s.attrs for s in obs.tracer.named("smd.ensemble")]
        assert mixed == dict(n_cells=2, n_groups=3, n_samples=7)
        assert one_cell == oracle == dict(
            n_cells=1, n_groups=1, n_samples=3, kappa_pn=stiff.kappa_pn,
            velocity=stiff.velocity)
        # Counters accumulate per group whatever the stack's shape.
        assert obs.metrics.counter("smd.je_samples").value == 7 + 3 + 3


class TestCellsCarryTheirOwnTaskRange:
    """One plan may give every cell a different task range (an adaptive
    refine round): each cell resolves as if it had been run alone."""

    @settings(max_examples=15, deadline=None)
    @given(cells=st.lists(st.tuples(short_protocols, st.integers(0, 3),
                                    st.integers(0, 3)),
                          min_size=1, max_size=4),
           samples=st.integers(1, 3))
    def test_unequal_ranges_equal_each_cell_alone(self, cells, samples):
        model = ReducedTranslocationModel(default_reduced_potential())
        plan = [(proto, ("bin", b), range(first, first + count))
                for b, (proto, first, count) in enumerate(cells)]
        merged = run_cells(model, plan, None, samples, seed=3, n_records=5)
        assert list(merged) == [labels for _proto, labels, numbers in plan
                                if numbers]
        for proto, labels, numbers in plan:
            if numbers:
                assert_ensembles_identical(merged[labels], run_cells(
                    model, [(proto, labels, numbers)], None, samples, seed=3,
                    n_records=5)[labels])

    def test_a_cell_without_a_range_takes_the_plans(self, reduced_model):
        proto = fast_protocol()
        tasks = plan_tasks(
            reduced_model, [(proto, ("a",)), (proto, ("b",), range(2, 5)),
                            (proto, ("c",), range(0))], 2, 2, seed=1)
        assert [(t.index, t.key[1:]) for t in tasks] == [
            (0, ("a", "task", 0)), (1, ("a", "task", 1)),
            (2, ("b", "task", 2)), (3, ("b", "task", 3)),
            (4, ("b", "task", 4))]

    def test_negative_task_numbers_rejected(self, reduced_model):
        with pytest.raises(ConfigurationError, match="negative"):
            list(plan_tasks(reduced_model,
                            [(fast_protocol(), ("a",), range(-1, 2))],
                            None, 2, seed=1))
        with pytest.raises(ConfigurationError, match="negative"):
            run_cells(reduced_model,
                      [(fast_protocol(), ("a",), range(-1, 1))], None, 2,
                      seed=1)
