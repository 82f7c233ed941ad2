"""Task streaming: bit-identity across window sizes and against the scalar
oracle, the stacked window step, resume by store membership, and degraded
completion through the dead-letter queue.
"""

import ast
import importlib
import inspect
import os
import pkgutil
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.smd.ensemble as ensemble_module
import repro.workflow as workflow_package
import repro.smd.plan as plan_module
from repro.core import run_parameter_study
from repro.errors import (
    CampaignInterrupted,
    ConfigurationError,
    PermanentTaskFailure,
    SimulationError,
    StoreError,
)
from repro.obs import Obs
from repro.pore.reduced import ReducedTranslocationModel, default_reduced_potential
from repro.resil.dlq import DeadLetterQueue
from repro.rng import stream_for
from repro.smd import (
    WorkEnsemble,
    cell_labels,
    run_pulling_ensemble,
    run_pulling_stack,
)
from repro.smd.plan import TaskResolver, plan_tasks
from repro.smd.protocol import PullingProtocol
from repro.store import ResultStore, ShardedResultStore, pulling_task
from repro.workflow import (
    StreamTask,
    run_streamed_study,
    run_streamed_tasks,
    stream_study_tasks,
)
from repro.workflow.streaming import TASK_ATTEMPTS

from ._streams import synthetic_stream

SEED = 2005


def model():
    return ReducedTranslocationModel(default_reduced_potential())


def grid_protocols():
    return [
        PullingProtocol(kappa_pn=kappa, velocity=velocity, distance=2.0,
                        equilibration_ns=0.0)
        for kappa in (100.0, 1000.0) for velocity in (25.0, 50.0)
    ]


def run_study(store, **kwargs):
    defaults = dict(n_samples=4, n_records=11, n_bootstrap=10, seed=SEED,
                    samples_per_task=2, store=store)
    defaults.update(kwargs)
    return run_parameter_study(model(), grid_protocols(), **defaults)


def run_windowed(store, window, samples_per_task=2, **kwargs):
    """The same study's per-cell ensembles at an explicit window size
    (always two tasks per cell, of ``samples_per_task`` replicas)."""
    return run_streamed_study(
        model(), grid_protocols(), n_samples=2 * samples_per_task,
        samples_per_task=samples_per_task, seed=SEED, store=store,
        window=window, n_records=11, **kwargs)


def study_tasks(samples_per_task=2):
    """The 8 tasks (4 cells x 2) of the study above, in stream order."""
    return list(stream_study_tasks(model(), grid_protocols(), 2,
                                   samples_per_task, seed=SEED, n_records=11))


def oracle(protocol, key, n_samples=2):
    """One task pulled alone by the per-replica scalar oracle."""
    return run_pulling_ensemble(model(), protocol, n_samples, n_records=11,
                                seed=stream_for(*key), kernel="reference")


def oracle_cell(protocol, samples_per_task=2):
    """A study cell as the oracle sees it: its tasks one by one, merged."""
    return reduce(WorkEnsemble.merged_with, (
        oracle(protocol, (SEED, *cell_labels(protocol), "task", t),
               samples_per_task)
        for t in range(2)))


def assert_same(a, b):
    np.testing.assert_array_equal(a.works, b.works)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.displacements, b.displacements)


def assert_same_record_bytes(ours, theirs, fingerprints):
    for fingerprint in fingerprints:
        with open(ours.path_for(fingerprint), "rb") as a, \
                open(theirs.path_for(fingerprint), "rb") as b:
            assert a.read() == b.read()


def patch_engine(monkeypatch, bad, error):
    """Make every engine call that carries a pull of ``bad`` raise
    ``error`` — stacked (the plan's call) or alone (``compute()``)."""
    def engine(model, pulls, **settings):
        if any(protocol == bad for protocol, _rng, _m in pulls):
            raise error
        return run_pulling_stack(model, pulls, **settings)

    monkeypatch.setattr(plan_module, "run_pulling_stack", engine)
    monkeypatch.setattr(ensemble_module, "run_pulling_stack", engine)


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def classic(self, tmp_path_factory):
        root = os.fspath(tmp_path_factory.mktemp("classic") / "store")
        return run_study(ResultStore(root))

    def test_streamed_study_matches_classic(self, classic, tmp_path):
        """The window size places the stacked calls, never the numbers:
        any window equals the study front door and the scalar oracle."""
        oracles = {cell_labels(p): oracle_cell(p) for p in grid_protocols()}
        for window in (1, 3, 64):
            merged, report = run_windowed(
                ShardedResultStore(os.fspath(tmp_path / str(window))), window)
            assert report.computed == 8
            assert len(merged) == len(classic.ensembles) == 4
            for proto in grid_protocols():
                ens = merged[cell_labels(proto)]
                assert_same(ens, classic.ensembles[(proto.kappa_pn,
                                                    proto.velocity)])
                assert_same(ens, oracles[cell_labels(proto)])

    def test_streamed_accepts_a_generator(self, classic, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"))
        streamed = run_parameter_study(
            model(), (p for p in grid_protocols()), n_samples=4,
            n_records=11, n_bootstrap=10, seed=SEED, samples_per_task=2,
            store=store)
        assert streamed.optimal == classic.optimal
        for key, est in classic.estimates.items():
            np.testing.assert_array_equal(est.values,
                                          streamed.estimates[key].values)

    def test_streamed_and_classic_share_store_records(self, tmp_path):
        """Same descriptors, same fingerprints: whichever driver and window
        filled a store, every other one resolves from it as all hits."""
        root = os.fspath(tmp_path / "s")
        run_study(ResultStore(root, sync=False))
        protocols = grid_protocols()
        store = ResultStore(os.fspath(tmp_path / "streamed"))
        run_windowed(store, 3)
        assert (sorted(ResultStore(root).fingerprints())
                == sorted(store.fingerprints()))
        assert len(protocols) * 2 == len(store)  # 2 tasks per cell
        reopened = ResultStore(store.root)
        run_study(reopened)
        assert (reopened.stats()["hits"], reopened.stats()["writes"]) == (8, 0)

    def test_whole_cell_plan_is_the_historical_layout(self, tmp_path):
        """``samples_per_task=None``: one task per cell under the bare cell
        key — the stream ``stream_for(seed, *labels)`` and the record of
        ``pulling_task(..., seed_key=(seed, *labels))``."""
        protocols = grid_protocols()
        store = ResultStore(os.fspath(tmp_path / "engine"), sync=False)
        direct = {
            (p.kappa_pn, p.velocity): store.get_or_run(
                pulling_task(model(), p, n_samples=4, n_records=11,
                             seed_key=(SEED, *cell_labels(p))),
                lambda p=p: run_pulling_ensemble(
                    model(), p, 4, n_records=11,
                    seed=stream_for(SEED, *cell_labels(p))))
            for p in protocols}
        study = run_study(store, samples_per_task=None)
        assert (store.stats()["hits"], store.stats()["writes"]) == (4, 4)
        for key, ens in direct.items():
            assert_same(ens, study.ensembles[key])
        bare = run_study(None, samples_per_task=None)
        for key, ens in direct.items():
            assert_same(ens, bare.ensembles[key])

    def test_fingerprints_pinned_from_the_parent_commit(self):
        """Literal hex from before the executors were unified: neither the
        whole-cell nor the per-task identity moved."""
        proto = grid_protocols()[0]
        [whole] = stream_study_tasks(model(), [proto], None, 4, seed=SEED,
                                     n_records=11)
        assert whole.key == (SEED, "cell", 100000, 25000)
        assert whole.fingerprint == (
            "3d9b43b9264e828c68c6ea4038eb02e2d6c3874524cd36dcb389e546989cb66c")
        task0, task1 = stream_study_tasks(model(), [proto], 2, 2, seed=SEED,
                                          n_records=11)
        assert task0.key == (SEED, "cell", 100000, 25000, "task", 0)
        assert task0.fingerprint == (
            "d2575ce31c417ce21fc916cad519c1f8349c0288d07693e24f742c48b0b97ac6")
        assert task1.fingerprint == (
            "2f7ba1351c73ed6f311a8079c2b84f5876f27c83ff982fa9876a20ef58984dde")


#: The modules whose functions and classes are the drivers above the two
#: engines: every study, the service's runner and the plan layer itself.
DRIVER_MODULES = (
    *(f"repro.workflow.{info.name}"
      for info in pkgutil.iter_modules(workflow_package.__path__)),
    "repro.core.optimizer",
    "repro.service.runner",
    "repro.smd.plan",
    "repro.smd.bidirectional",
)

#: Settings the engines own (execution layout, numerics) and the
#: executor owns (a task's attempt count): no driver takes them.
ENGINE_SETTINGS = frozenset({
    "kernel", "dt", "force_sample_time", "cpu_hours_per_ns", "retry"})


def driver_signatures():
    """``(qualified name, parameter names)`` of every function, class
    constructor and method defined in :data:`DRIVER_MODULES`."""
    for module_name in DRIVER_MODULES:
        module = importlib.import_module(module_name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isfunction(obj):
                yield f"{module_name}.{name}", inspect.signature(obj).parameters
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield (f"{module_name}.{name}.{attr}",
                               inspect.signature(member).parameters)


def calls_of(function_name):
    """Source files under ``src/repro`` (relative, posix) that call
    ``function_name`` by name or as an attribute."""
    root = Path(repro.__file__).parent
    callers = set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = (func.id if isinstance(func, ast.Name)
                          else getattr(func, "attr", None))
                if called == function_name:
                    callers.add(path.relative_to(root).as_posix())
    return callers


class TestDriverSurface:
    """Execution layout, numerics and the attempt count are decisions of
    the engines and the executor, and the drivers reach the engine only
    through the plan layer's window step."""

    def test_no_driver_takes_an_engine_setting(self):
        signatures = dict(driver_signatures())
        assert "repro.workflow.streaming.run_streamed_tasks" in signatures
        assert "repro.service.runner.CampaignRunner.__init__" in signatures
        offenders = {name: sorted(ENGINE_SETTINGS & set(params))
                     for name, params in signatures.items()
                     if ENGINE_SETTINGS & set(params)}
        assert offenders == {}

    def test_one_executor_above_the_engine(self):
        stack_callers = calls_of("run_pulling_stack")
        assert "smd/plan.py" in stack_callers
        assert stack_callers <= {"smd/batched.py", "smd/ensemble.py",
                                 "smd/plan.py"}
        assert not {path for path in calls_of("run_pulling_ensemble")
                    if path.startswith("workflow/")
                    or path == "smd/bidirectional.py"}


class TestWindowStep:
    """One executor: every driver's window resolves through
    ``TaskResolver.resolve_window`` — hits, stacked misses, lone misses."""

    def test_every_driver_defaults_to_the_one_window(self):
        """The task executor and the streamed study step in windows of
        ``smd.plan.DEFAULT_WINDOW`` unless told otherwise (the service
        spec's default is pinned in ``test_service_api``)."""
        for driver in (run_streamed_tasks, run_streamed_study):
            window = inspect.signature(driver).parameters["window"]
            assert window.default == plan_module.DEFAULT_WINDOW

    def test_mixed_window_equals_oracle_and_stacks_once_per_cell(
            self, tmp_path):
        """(Once per *plan* since the cross-cell stack: cells ``a`` and
        ``b`` of one plan share the window's one engine call.)"""
        obs = Obs()
        a, b, c = grid_protocols()[:3]
        settings = dict(seed=SEED, n_records=11, obs=obs)
        cells = list(plan_tasks(model(), [(a, ("a",)), (b, ("b",))], 3, 2,
                                **settings))
        cell_a, cell_b = cells[:3], cells[3:5]
        [single] = plan_tasks(model(), [(c, ("c",))], 1, 1, **settings)
        hand_key = (SEED, "hand-built")
        hand_task = dict(cell_a[0].task, seed_key=list(hand_key))
        hand = StreamTask(
            index=0, key=hand_key, cell=("hand",), task=hand_task,
            compute=lambda: run_pulling_ensemble(
                model(), a, 2, n_records=11, seed=stream_for(*hand_key)))
        store = ResultStore(os.fspath(tmp_path / "s"), sync=False)
        store.put(cell_a[0].task, oracle(a, cell_a[0].key))  # a stored hit
        window = [cell_a[0], cell_b[0], cell_a[1], single, hand, cell_a[2],
                  cell_a[1], cell_b[1]]                  # a[1] twice
        window = [replace(t, index=i) for i, t in enumerate(window)]
        protos = [a, b, a, c, a, a, a, b]

        report = run_streamed_tasks(window, store=store, window=len(window),
                                    obs=obs)

        assert (report.hits, report.computed) == (2, 6)  # stored + duplicate
        for task, proto in zip(window, protos):
            n = 1 if proto is c else 2
            assert_same(report.results[task.index],
                        oracle(proto, task.key, n))
        # One engine call for the plan's stacked members, both cells in it
        # (the duplicate was never planned), then plan ``c``'s lone miss
        # on its own; the hand-built task carries no obs.
        spans = obs.tracer.named("smd.ensemble")
        assert [(s.attrs["n_cells"], s.attrs["n_groups"],
                 s.attrs["n_samples"]) for s in spans] == [
                     (2, 4, 8), (1, 1, 1)]
        # A span names a protocol only when it has exactly one.
        assert "kappa_pn" not in spans[0].attrs
        assert (spans[1].attrs["kappa_pn"], spans[1].attrs["velocity"]) == (
            c.kappa_pn, c.velocity)

    def test_kappa_row_window_is_one_engine_call(self):
        """The Fig. 4 shape: a 16-task window holding the four cells of one
        kappa row opens exactly one ``smd.ensemble`` span."""
        obs = Obs()
        row = [PullingProtocol(kappa_pn=1000.0, velocity=v, distance=0.5,
                               equilibration_ns=0.001)
               for v in (12.5, 25.0, 50.0, 100.0)]
        merged, report = run_streamed_study(
            model(), row, n_samples=16, samples_per_task=4, seed=SEED,
            store=None, window=16, n_records=5, obs=obs)
        assert report.computed == 16
        [span] = obs.tracer.named("smd.ensemble")
        assert (span.attrs["n_cells"], span.attrs["n_groups"],
                span.attrs["n_samples"]) == (4, 16, 64)
        assert obs.metrics.counter("smd.je_samples").value == 64
        for proto in row:
            assert_same(merged[cell_labels(proto)], reduce(
                WorkEnsemble.merged_with, (run_pulling_ensemble(
                    model(), proto, 4, n_records=5, kernel="reference",
                    seed=stream_for(SEED, *cell_labels(proto), "task", t))
                    for t in range(4))))

    def test_kappa_row_window_steps_its_longest_cell_not_the_sum(
            self, monkeypatch):
        """What the cross-cell stack saves, without a clock: the potential's
        bound evaluator is called once per loop iteration, and the row's
        one loop runs as long as its longest cell — not the four cells'
        loops back to back."""
        pore = model()
        calls = []
        bind = pore.potential.stacked_derivative

        def spy(total, column):
            evaluate = bind(total, column)
            return lambda z: calls.append(len(z)) or evaluate(z)

        monkeypatch.setattr(pore.potential, "stacked_derivative", spy)
        row = [PullingProtocol(kappa_pn=1000.0, velocity=v, distance=0.5,
                               equilibration_ns=0.001)
               for v in (12.5, 25.0, 50.0, 100.0)]

        def loop_sizes(cells, n_samples):
            """Replicas stepped at each loop iteration of the run's one
            engine call (its first evaluation is the set-up shape check)."""
            del calls[:]
            run_streamed_study(pore, cells, n_samples=n_samples,
                               samples_per_task=4, seed=SEED, store=None,
                               window=16, n_records=5)
            return calls[1:]

        alone = [len(loop_sizes([cell], 4)) for cell in row]
        assert sorted(alone, reverse=True) == alone     # slowest pull first
        stacked = loop_sizes(row, 16)
        assert len(stacked) == max(alone) < sum(alone)
        # ...and an iteration touches only the cells still integrating.
        assert (stacked[0], stacked[-1]) == (64, 16)

    def test_two_plans_in_one_window_never_stack_into_each_other(self):
        """Tasks stack by the identity of their plan: a different model
        object or ``n_records`` is a different engine call, even for the
        same cell in the same window."""
        obs = Obs()
        a, b = grid_protocols()[:2]
        cells = [(a, ("a",)), (b, ("b",))]
        again = [(a, ("a", "again")), (b, ("b", "again"))]
        plans = [
            plan_tasks(model(), cells, 1, 2, seed=SEED, n_records=11,
                       obs=obs),
            plan_tasks(model(), again, 1, 2, seed=SEED, n_records=11,
                       obs=obs),                    # another model object
            plan_tasks(model(), cells, 1, 2, seed=SEED, n_records=7,
                       obs=obs),
        ]
        window = [task for round_ in zip(*plans) for task in round_]
        window = [replace(t, index=i) for i, t in enumerate(window)]
        report = run_streamed_tasks(window, store=None, window=len(window),
                                    obs=obs)
        assert report.computed == 6
        assert [(s.attrs["n_cells"], s.attrs["n_groups"])
                for s in obs.tracer.named("smd.ensemble")] == [(2, 2)] * 3
        for task in window:
            proto = a if task.cell[0] == "a" else b
            n_records = report.results[task.index].works.shape[1]
            assert_same(report.results[task.index], run_pulling_ensemble(
                model(), proto, 2, n_records=n_records,
                seed=stream_for(*task.key), kernel="reference"))

    def test_poisoned_index_inside_a_stacked_group(self, tmp_path,
                                                   samples_per_task=2):
        """Counters, DLQ entries and surviving records pinned from the
        one-call-per-task executor this step replaced."""
        store = ResultStore(os.fspath(tmp_path / "s"), sync=False)
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"), sync=False)
        poisoned = {1, 5}

        def poison(spec, attempt):
            if spec.index in poisoned:
                raise SimulationError(f"task {spec.index} is poisoned")

        merged, report = run_windowed(
            store, 4, samples_per_task, dlq=dlq, fault=poison)
        assert (report.total, report.computed, report.retries,
                report.dead_lettered) == (8, 6, 4, 2)
        assert sorted(report.failures) == [1, 5]
        assert [(e["task_key"][-1], e["reason"], e["attempts"])
                for e in dlq.entries()] == [(1, "retry-exhausted", 3)] * 2
        assert sorted(store.fingerprints()) == sorted(
            t.fingerprint for t in study_tasks(samples_per_task)
            if t.index not in poisoned)
        assert sorted(merged) == [("cell", 100000, 50000),
                                  ("cell", 1000000, 50000)]
        for proto in grid_protocols():
            if cell_labels(proto) in merged:
                assert_same(merged[cell_labels(proto)],
                            oracle_cell(proto, samples_per_task))

    def test_poisoned_one_replica_task_inside_a_stacked_window(self,
                                                               tmp_path):
        """One-replica tasks stack too — and a poisoned one still fails on
        its own: the pins above, unchanged."""
        self.test_poisoned_index_inside_a_stacked_group(tmp_path, 1)

    def test_failing_stacked_call_falls_back_per_task(self, tmp_path,
                                                      monkeypatch):
        """A stacked call that raises is abandoned: every member runs its
        own compute(), so only the bad task is retried and dead-lettered."""
        stacked_calls = []

        def blow_up(model, pulls, **settings):
            stacked_calls.append(
                (len({protocol for protocol, _rng, _m in pulls}), len(pulls)))
            raise FloatingPointError("overflow in the stacked step loop")

        monkeypatch.setattr(plan_module, "run_pulling_stack", blow_up)

        def boom():
            raise FloatingPointError("task 2 overflows alone, too")

        tasks = [replace(t, compute=boom) if t.index == 2 else t
                 for t in study_tasks()]
        store = ResultStore(os.fspath(tmp_path / "s"), sync=False)
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"), sync=False)
        report = run_streamed_tasks(
            tasks, store=store, window=4, dlq=dlq)
        assert stacked_calls == [(2, 4), (2, 4)]    # once per window
        assert (report.computed, report.retries, report.dead_lettered) == (
            7, 2, 1)
        [entry] = dlq.entries()
        assert entry["task_key"] == list(tasks[2].key)
        assert (entry["reason"], entry["attempts"]) == ("retry-exhausted", 3)
        assert "FloatingPointError" in entry["last_error"]
        protos = [p for p in grid_protocols() for _ in range(2)]
        for task, proto in zip(tasks, protos):
            if task.index != 2:
                assert_same(report.results[task.index],
                            oracle(proto, task.key))

    def test_failing_cell_inside_a_cross_cell_stack(self, tmp_path,
                                                    monkeypatch):
        """One cell of the window's stack overflows: the stacked call is
        abandoned, that cell's tasks retry and dead-letter alone, and the
        other cells' records are byte for byte those of a clean run —
        counters and DLQ entries pinned from the one-call-per-cell step."""
        bad = grid_protocols()[1]
        patch_engine(monkeypatch, bad,
                     FloatingPointError("overflow in the step loop"))
        store = ResultStore(os.fspath(tmp_path / "s"), sync=False)
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"), sync=False)
        merged, report = run_windowed(
            store, 8, dlq=dlq)
        assert (report.total, report.hits, report.computed, report.retries,
                report.dead_lettered) == (8, 0, 6, 4, 2)
        assert sorted(report.failures) == [2, 3]
        assert [(e["task_key"], e["reason"], e["attempts"], e["last_error"])
                for e in dlq.entries()] == [
            ([SEED, *cell_labels(bad), "task", t], "retry-exhausted", 3,
             "FloatingPointError: overflow in the step loop")
            for t in range(2)]
        assert cell_labels(bad) not in merged and len(merged) == 3
        monkeypatch.undo()
        clean = ResultStore(os.fspath(tmp_path / "clean"), sync=False)
        run_windowed(clean, 8)
        assert len(store) == 6 and len(clean) == 8
        assert_same_record_bytes(store, clean, store.fingerprints())

    def test_interrupt_inside_a_stacked_window(self, tmp_path,
                                               samples_per_task=2):
        """CampaignInterrupted at task k: exactly the tasks before k are
        durable — the stack computed ahead, but nothing was put ahead."""
        k = 3
        store = ResultStore(os.fspath(tmp_path / "s"), sync=False)

        def kill(spec, attempt):
            if spec.index == k:
                raise CampaignInterrupted(f"killed at task {k}")

        with pytest.raises(CampaignInterrupted):
            run_windowed(store, 4, samples_per_task, fault=kill)
        assert sorted(store.fingerprints()) == sorted(
            t.fingerprint for t in study_tasks(samples_per_task)
            if t.index < k)
        # The resumed study recomputes exactly the rest, bit-identically.
        survivor = ResultStore(store.root, sync=False)
        merged, report = run_windowed(survivor, 4, samples_per_task)
        assert (report.hits, report.computed) == (k, 8 - k)
        for proto in grid_protocols():
            assert_same(merged[cell_labels(proto)],
                        oracle_cell(proto, samples_per_task))
        # Killed or resumed, a study leaves nothing beside its records.
        assert ".stream" not in os.listdir(store.root)

    def test_interrupt_inside_a_one_replica_window(self, tmp_path):
        """A cancel at task k of a stacked one-replica window leaves
        exactly k records, as above."""
        self.test_interrupt_inside_a_stacked_window(tmp_path, 1)

    def test_one_replica_stream_is_one_engine_call_per_window(self,
                                                              tmp_path):
        """40 one-replica tasks at ``window=16``: three engine calls cold,
        none warm, and the store — counters, digest, every record's bytes —
        is the one ``task.compute()`` fills a task at a time."""
        obs = Obs()
        cells = [(proto, cell_labels(proto)) for proto in grid_protocols()]
        tasks = list(plan_tasks(model(), cells, 10, 1, seed=SEED,
                                n_records=11, obs=obs))
        store = ResultStore(os.fspath(tmp_path / "s"), sync=False)
        report = run_streamed_tasks(tasks, store=store, window=16, obs=obs)
        assert (report.hits, report.computed) == (0, 40)
        assert [(s.attrs["n_groups"], s.attrs["n_samples"])
                for s in obs.tracer.named("smd.ensemble")] == [
                    (16, 16), (16, 16), (8, 8)]

        alone = ResultStore(os.fspath(tmp_path / "alone"), sync=False)
        resolver = TaskResolver(alone)
        for task in tasks:
            resolver.resolve(task, lambda t: t.compute())
        assert (store.hits, store.misses, store.writes) == (
            alone.hits, alone.misses, alone.writes) == (0, 40, 40)
        assert store.content_digest() == alone.content_digest()
        assert_same_record_bytes(store, alone,
                                 (task.fingerprint for task in tasks))

        warm_obs = Obs()
        warm = ResultStore(store.root, sync=False)
        report = run_streamed_tasks(
            plan_tasks(model(), cells, 10, 1, seed=SEED, n_records=11,
                       obs=warm_obs),
            store=warm, window=16, obs=warm_obs)
        assert (report.hits, report.computed) == (40, 0)
        assert (warm.hits, warm.misses, warm.writes) == (40, 0, 0)
        assert warm_obs.tracer.named("smd.ensemble") == []

    def test_all_hits_window_computes_nothing(self, tmp_path):
        store = ResultStore(os.fspath(tmp_path / "s"), sync=False)
        run_windowed(store, 4)
        obs = Obs()
        _merged, report = run_windowed(ResultStore(store.root), 4, obs=obs)
        assert (report.hits, report.computed) == (8, 0)
        assert obs.tracer.named("smd.ensemble") == []

    def test_window_is_planned_at_its_first_miss(self, tmp_path,
                                                 monkeypatch):
        """A window of hits plans nothing — each task is hashed and loaded
        as its turn comes, the operations and order of resolving them one
        by one, not a burst of hashing ahead of the first load — and a
        window that does miss hashes the rest of itself only then."""
        import repro.store.fingerprint as fingerprint_module

        log = []
        hashed = fingerprint_module.task_fingerprint

        def spy_hash(task):
            log.append("hash")
            return hashed(task)

        def resolve_logged(root, tasks):
            store = ResultStore(root, sync=False)
            loaded = store.get

            def spy_get(fingerprint):
                log.append("get")
                return loaded(fingerprint)

            monkeypatch.setattr(store, "get", spy_get)
            del log[:]
            return [outcome for _task, outcome, _ensemble
                    in TaskResolver(store).resolve_window(tasks)]

        root = os.fspath(tmp_path / "s")
        filler = TaskResolver(ResultStore(root, sync=False))
        for task in study_tasks(1)[:3]:
            filler.resolve(task, lambda t: t.compute())
        monkeypatch.setattr(fingerprint_module, "task_fingerprint", spy_hash)

        assert resolve_logged(root, study_tasks(1)) == (
            ["hit"] * 3 + ["computed"] * 5)
        assert log == ["hash", "get"] * 3 + ["hash"] * 5
        assert resolve_logged(root, study_tasks(1)) == ["hit"] * 8
        assert log == ["hash", "get"] * 8

    def test_without_a_store_every_task_is_computed(self):
        """``store=None``: the same loop, no membership."""
        merged, report = run_windowed(None, 3)
        assert (report.hits, report.computed) == (0, 8)
        for proto in grid_protocols():
            assert_same(merged[cell_labels(proto)], oracle_cell(proto))


class TestCursorResume:
    def test_fully_complete_resume_is_all_hits(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"))
        first = run_study(store)
        resumed_store = ShardedResultStore(store.root)
        resumed = run_study(resumed_store)
        assert resumed_store.stats()["misses"] == 0
        assert resumed.optimal == first.optimal
        for key, est in first.estimates.items():
            np.testing.assert_array_equal(est.values,
                                          resumed.estimates[key].values)

    def test_warm_resume_hashes_each_task_once(self, tmp_path, monkeypatch):
        """A hit is hashed once, for membership: the record it loads is
        verified by its stored task's bytes, not by re-hashing the task."""
        import repro.store.fingerprint as fingerprint_module
        import repro.store.record as record_module
        import repro.store.store as store_module

        store = ResultStore(os.fspath(tmp_path / "s"), sync=False)
        run_windowed(store, 4)
        hashed = []
        real = fingerprint_module.task_fingerprint

        def spy(task):
            hashed.append(task)
            return real(task)

        for module in (fingerprint_module, record_module, store_module):
            monkeypatch.setattr(module, "task_fingerprint", spy)
        warm = ResultStore(store.root, sync=False)
        _merged, report = run_windowed(warm, 4)
        assert (report.hits, report.computed) == (8, 0)
        assert len(hashed) == 8
        assert warm.stats()["hits"] == 8

    def test_kill_mid_stream_then_resume_bit_identical(self, tmp_path):
        """Killed at one window size, resumed at another: the records that
        survive and the final numbers do not depend on either."""
        control = run_study(
            ShardedResultStore(os.fspath(tmp_path / "control")))
        root = os.fspath(tmp_path / "killed")
        store = ShardedResultStore(root)
        store.interrupt_after_writes = 3
        with pytest.raises(CampaignInterrupted):
            run_windowed(store, 3)
        survivor = ShardedResultStore(root)
        assert len(survivor) == 3
        resumed = run_study(survivor)
        assert survivor.stats()["hits"] == 3
        assert survivor.stats()["writes"] == 5  # 8 tasks total, 3 done
        assert resumed.optimal == control.optimal
        for key, est in control.estimates.items():
            np.testing.assert_array_equal(est.values,
                                          resumed.estimates[key].values)

    def test_cursor_file_is_hidden_from_the_store_scan(self, tmp_path):
        """The legacy directory: releases before resume-by-membership left
        a cursor file under ``<store>/.stream/``.  Such a store opens,
        resumes as all hits with nothing written, and the entry is left
        exactly as found."""
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        cold = run_streamed_tasks(synthetic_stream(10, SEED), store=store,
                                  window=4)
        assert cold.computed == 10
        assert not os.path.exists(os.path.join(store.root, ".stream"))
        digest = store.content_digest()
        cursor = os.path.join(store.root, ".stream", "0123456789abcdef" * 2
                              + ".json")
        os.makedirs(os.path.dirname(cursor))
        legacy = (b'{"campaign_fingerprint":"' + b"0123456789abcdef" * 4
                  + b'","schema":"repro.store.cursor/v1","watermark":10}\n')
        with open(cursor, "wb") as handle:
            handle.write(legacy)
        reopened = ShardedResultStore(store.root, sync=False)
        assert len(reopened) == 10
        warm = run_streamed_tasks(synthetic_stream(10, SEED), store=reopened,
                                  window=4)
        assert (warm.hits, warm.computed, reopened.writes) == (10, 0, 0)
        assert reopened.content_digest() == digest
        assert os.listdir(os.path.dirname(cursor)) == [
            os.path.basename(cursor)]
        with open(cursor, "rb") as handle:
            assert handle.read() == legacy

    def test_resume_at_scale_is_all_hits_without_a_cursor(self, tmp_path):
        """20 000 stored tasks re-run on a fresh handle: every one is a
        membership hit, nothing is computed, written or re-indexed."""
        n = 20_000
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        cold = run_streamed_tasks(synthetic_stream(n, SEED), store=store,
                                  window=4096)
        assert (cold.hits, cold.computed) == (0, n)
        fresh = ResultStore(store.root, sync=False)
        warm = run_streamed_tasks(synthetic_stream(n, SEED), store=fresh,
                                  window=4096)
        assert (warm.hits, warm.computed, fresh.writes) == (n, 0, 0)
        assert fresh.stats()["reindexed_shards"] == 0
        assert warm.fingerprints == cold.fingerprints

    def test_window_validation(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"))
        with pytest.raises(ConfigurationError):
            run_streamed_tasks(synthetic_stream(2, SEED), store=store,
                               window=0)


class TestDegradedCompletion:
    def test_poisoned_tasks_dead_letter_and_campaign_completes(
            self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))
        report = run_streamed_tasks(
            synthetic_stream(40, SEED, poisoned=frozenset({7, 23})),
            store=store, window=8, dlq=dlq)
        assert report.computed == 38
        assert report.dead_lettered == 2
        assert report.degraded is True
        assert report.retries == 2 * 2  # two failed attempts before the last
        assert sorted(report.failures) == [7, 23]
        assert 7 not in report.results and 23 not in report.results
        assert len(dlq) == 2
        for entry in dlq.entries():
            assert entry["reason"] == "retry-exhausted"
            assert entry["attempts"] == 3

    def test_same_seed_twins_agree_on_store_digest_and_dead_letters(
            self, tmp_path):
        """Two independent cold passes over the same seed end byte-equal:
        record content and the dead-letter entries of the poisoned tasks."""
        def cold(name):
            store = ResultStore(os.fspath(tmp_path / name / "s"), sync=False)
            dlq = DeadLetterQueue(os.fspath(tmp_path / name / "DLQ.jsonl"),
                                  sync=False)
            run_streamed_tasks(
                synthetic_stream(40, SEED, poisoned=frozenset({13, 26})),
                store=store, window=8, dlq=dlq)
            return store, dlq

        (store_a, dlq_a), (store_b, dlq_b) = cold("a"), cold("b")
        assert len(store_a) == 38 and len(dlq_a) == 2
        assert store_a.content_digest() == store_b.content_digest()
        assert dlq_a.entries() == dlq_b.entries()

    def test_terminal_failure_without_dlq_refuses_silent_loss(
            self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        with pytest.raises(StoreError):
            run_streamed_tasks(
                synthetic_stream(10, SEED, poisoned=frozenset({3})),
                store=store, window=4)

    def test_permanent_failure_skips_the_retry_loop(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))

        def tasks():
            for spec in synthetic_stream(5, SEED):
                if spec.index == 2:
                    def boom():
                        raise PermanentTaskFailure("bad parameters")
                    spec = StreamTask(index=spec.index, key=spec.key,
                                      cell=spec.cell, task=spec.task,
                                      compute=boom)
                yield spec

        report = run_streamed_tasks(
            tasks(), store=store, window=4, dlq=dlq)
        assert report.retries == 0
        [entry] = dlq.entries()
        assert entry["reason"] == "permanent-failure"
        assert entry["attempts"] == 1

    def test_resume_keeps_dead_letters_dead(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"), sync=False)
        path = os.fspath(tmp_path / "DLQ.jsonl")
        kwargs = dict(store=store, window=8)
        run_streamed_tasks(
            synthetic_stream(30, SEED, poisoned=frozenset({11})),
            dlq=DeadLetterQueue(path), **kwargs)
        dlq = DeadLetterQueue(path)
        resumed = run_streamed_tasks(
            synthetic_stream(30, SEED, poisoned=frozenset({11})),
            dlq=dlq, **kwargs)
        # The poisoned task is recognized from the durable queue — not
        # re-attempted, not re-recorded.
        assert resumed.computed == 0
        assert resumed.retries == 0
        assert resumed.dead_lettered == 1
        assert len(dlq) == 1
        assert dlq.redeliveries == 0

    def test_streamed_study_omits_failed_cells(self, tmp_path):
        store = ShardedResultStore(os.fspath(tmp_path / "s"))
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"))
        poisoned_cell = ("cell", 100000, 25000)

        def poison(spec, attempts):
            if spec.cell == poisoned_cell:
                raise PermanentTaskFailure("cell poisoned")

        merged, report = run_streamed_study(
            model(), grid_protocols(), n_samples=4, samples_per_task=2,
            seed=SEED, store=store, window=3, dlq=dlq,
            fault=poison, n_records=11)
        assert report.degraded is True
        assert poisoned_cell not in merged
        assert len(merged) == 3  # the other cells completed
        # Degraded cells are omitted wholesale, not half-assembled.
        assert all(ens.works.shape[0] == 4 for ens in merged.values())


    def test_study_front_door_dead_letters_without_any_window_option(
            self, tmp_path, monkeypatch):
        """Regression: ``dlq=`` used to be read only on the
        ``window=N`` branch, so ``campaign --store D --dlq`` raised out of
        a terminally failing pull instead of dead-lettering it."""
        bad = grid_protocols()[1]
        patch_engine(monkeypatch, bad,
                     SimulationError("this cell blows up in the engine"))
        store = ResultStore(os.fspath(tmp_path / "s"), sync=False)
        dlq = DeadLetterQueue(os.fspath(tmp_path / "DLQ.jsonl"), sync=False)
        study = run_study(store, dlq=dlq)
        assert (bad.kappa_pn, bad.velocity) not in study.ensembles
        assert len(study.ensembles) == 3
        assert len(dlq) == 2                    # the bad cell's two tasks
        for entry in dlq.entries():
            assert entry["task_key"][1:4] == list(cell_labels(bad))
            assert (entry["reason"], entry["attempts"]) == (
                "retry-exhausted", TASK_ATTEMPTS)
        assert len(store) == 6
        # ...and without a queue the failure still propagates loudly.
        with pytest.raises(StoreError, match="no dead-letter queue"):
            run_study(ResultStore(os.fspath(tmp_path / "t"), sync=False))
