"""Task plans over the pulling engine: identity, hit/miss/merge, stacking.

The paper turns one intractable simulation into many short *independent*
pulls; this module is the one place that says what such a pull **is** and
how a set of them is resolved:

* :func:`plan_tasks` — the task-plan generator.  A cell's ensemble is
  ``n_tasks`` sub-ensembles of ``samples_per_task`` replicas; task ``t``
  runs RNG stream ``stream_for(seed, *labels, "task", t)`` and is described
  by :func:`repro.store.pulling_task` over that key.  Grid cells are
  labelled by :func:`cell_labels`.  Every driver — inline, streamed,
  adaptive, the grid-job view, the service — gets its tasks from here, so
  their store fingerprints cannot drift apart.
* :class:`TaskResolver` — the hit/miss/put step against an optional store,
  with the same ``store.hits/misses/writes`` traffic on every path.
* :func:`run_work_ensemble` / :func:`run_pulling_ensemble_parallel` — the
  inline plan builders: tasks of one cell, shards of one ensemble.

Stacking is decided here, from the group sizes alone: all the groups of two
or more replicas an entry point has to compute share one engine call, and a
one-replica group runs in a call of its own (:mod:`repro.smd.batched`
documents why).  Each group's result is bit-identical to running it alone,
so the layout is never part of a fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import (
    Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple,
)

import numpy as np

from ..errors import ConfigurationError
from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel
from ..rng import SeedLike, as_seed_int, stream_for
from .batched import (
    DEFAULT_FORCE_SAMPLE_TIME,
    PAPER_CPU_HOURS_PER_NS,
    run_pulling_groups,
)
from .ensemble import _store_seed_key, run_pulling_ensemble
from .protocol import PullingProtocol
from .work import WorkEnsemble

__all__ = [
    "StreamTask",
    "TaskResolver",
    "cell_labels",
    "plan_tasks",
    "run_pulling_ensemble_parallel",
    "run_work_ensemble",
    "DEFAULT_SHARD_SIZE",
]

#: Default replicas per shard for :func:`run_pulling_ensemble_parallel`.
#: The shard decomposition is part of the *result's identity*: changing the
#: shard size changes which RNG stream drives which replica.
DEFAULT_SHARD_SIZE: int = 8


@dataclass(frozen=True)
class StreamTask:
    """One planned unit of work.

    ``task`` is the canonical store descriptor; ``key`` is its seed/stream
    key (``stream_for(*key)`` is the task's RNG stream), doubling as the
    DLQ task key; ``cell`` groups tasks for per-cell assembly; ``compute``
    produces the ensemble when the store misses.
    """

    index: int
    key: Tuple[Any, ...]
    cell: Tuple[Any, ...]
    task: Dict[str, Any]
    compute: Callable[[], WorkEnsemble]

    @cached_property
    def fingerprint(self) -> str:
        """The task's store fingerprint, hashed at most once."""
        from ..store.fingerprint import task_fingerprint

        return task_fingerprint(self.task)


def cell_labels(protocol: PullingProtocol) -> Tuple[Any, ...]:
    """Stream/store labels of a (kappa, v) grid cell (milli-unit ints)."""
    return ("cell", int(protocol.kappa_pn * 1000),
            int(protocol.velocity * 1000))


def plan_tasks(
    model: ReducedTranslocationModel,
    cells: Iterable[Tuple[PullingProtocol, Tuple[Any, ...]]],
    n_tasks: int,
    samples_per_task: int,
    *,
    seed: SeedLike,
    task_offset: int = 0,
    dt: Optional[float] = None,
    n_records: int = 41,
    force_sample_time: Optional[float] = DEFAULT_FORCE_SAMPLE_TIME,
    cpu_hours_per_ns: float = PAPER_CPU_HOURS_PER_NS,
    obs: Optional[Obs] = None,
) -> Iterator[StreamTask]:
    """Lazily yield the tasks of ``(protocol, labels)`` cells, cell-major.

    Cell ``c``'s tasks are ``t = task_offset .. task_offset + n_tasks - 1``
    with stream key ``(seed, *labels, "task", t)``; ``index`` counts tasks
    across the whole plan from 0.  ``cells`` may be a generator — it is
    consumed one cell at a time.  The integration settings pass verbatim
    into both the descriptor and the compute thunk (``None`` for
    ``force_sample_time`` means exact per-step work, not "default").
    """
    from ..store.fingerprint import pulling_task

    if n_tasks < 1:
        raise ConfigurationError("n_tasks must be at least 1")
    if samples_per_task < 1:
        raise ConfigurationError("samples_per_task must be at least 1")
    if task_offset < 0:
        raise ConfigurationError("task_offset cannot be negative")
    settings = dict(dt=dt, n_records=n_records,
                    force_sample_time=force_sample_time,
                    cpu_hours_per_ns=cpu_hours_per_ns)
    base = as_seed_int(seed)
    index = 0
    for protocol, labels in cells:
        for t in range(task_offset, task_offset + n_tasks):
            key = (base, *labels, "task", t)
            task = pulling_task(model, protocol, n_samples=samples_per_task,
                                seed_key=key, **settings)

            def compute(protocol: PullingProtocol = protocol,
                        key: Tuple[Any, ...] = key) -> WorkEnsemble:
                return run_pulling_ensemble(
                    model, protocol, samples_per_task, seed=stream_for(*key),
                    obs=obs, **settings)

            yield StreamTask(index=index, key=key, cell=labels,
                             task=task, compute=compute)
            index += 1


class TaskResolver:
    """Resolve tasks against an optional store: load hits, compute and
    persist misses.

    Membership is read once from the store's index layer and maintained
    incrementally — never a per-task directory probe — and the store's
    ``hits`` / ``misses`` / ``writes`` counters move identically whichever
    driver is resolving.  ``collect=False`` is completion-only mode: a hit
    is proven by membership and not loaded.
    """

    def __init__(self, store: Any = None, *, collect: bool = True) -> None:
        self.store = store
        self.collect = collect
        self.known = store.fingerprint_set() if store is not None else set()

    def __contains__(self, task: StreamTask) -> bool:
        return self.store is not None and task.fingerprint in self.known

    def resolve(
        self,
        task: StreamTask,
        compute: Callable[[StreamTask], Optional[WorkEnsemble]],
    ) -> Tuple[str, Optional[WorkEnsemble]]:
        """Returns ``("hit" | "computed" | "failed", ensemble)``.

        ``compute`` returning ``None`` means the task failed terminally
        (the caller has dead-lettered it): nothing is written.
        """
        store = self.store
        if store is None:
            return "computed", compute(task)
        fingerprint = task.fingerprint
        if fingerprint in self.known:
            if not self.collect:
                store.note_hit()
                return "hit", None
            ensemble = store.get(fingerprint)
            if ensemble is not None:
                return "hit", ensemble
            # Evicted as corrupt on read: recompute in place (get()
            # already counted the store-level miss).
            self.known.discard(fingerprint)
        else:
            store.note_miss()
        ensemble = compute(task)
        if ensemble is None:
            return "failed", None
        store.put(task.task, ensemble)
        self.known.add(fingerprint)
        return "computed", ensemble


def _run_groups(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    groups: Sequence[Tuple[np.random.Generator, int]],
    **settings: Any,
) -> Iterator[WorkEnsemble]:
    """The stacking rule: every group of two or more replicas shares one
    engine call; a one-replica group runs alone, because BLAS's one-row
    path is not bit-identical to its row of a stack.  Nothing is computed
    until the first result is asked for; results come in input order."""
    multi = [group for group in groups if group[1] >= 2]
    stacked = iter(run_pulling_groups(model, protocol, multi, **settings)
                   if multi else ())
    for group in groups:
        if group[1] >= 2:
            yield next(stacked)
        else:
            yield run_pulling_groups(model, protocol, [group], **settings)[0]


def _shard_sizes(n_samples: int, shard_size: int) -> list:
    """Fixed decomposition of ``n_samples`` replicas into shards (a pure
    function of its arguments, so the per-shard streams are too)."""
    full, rest = divmod(n_samples, shard_size)
    return [shard_size] * full + ([rest] if rest else [])


def run_pulling_ensemble_parallel(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    n_samples: int,
    shard_size: int = DEFAULT_SHARD_SIZE,
    dt: Optional[float] = None,
    n_records: int = 41,
    force_sample_time: Optional[float] = DEFAULT_FORCE_SAMPLE_TIME,
    seed: SeedLike = None,
    cpu_hours_per_ns: float = PAPER_CPU_HOURS_PER_NS,
    obs: Optional[Obs] = None,
    store=None,
    store_key=None,
) -> WorkEnsemble:
    """Run a pulling ensemble as independently seeded fixed-size shards.

    SMD-JE's replicas are *independent* pulls, so the ensemble splits into
    shards that could execute anywhere: shard ``b`` draws from
    ``stream_for(seed, "smd.shard", b)`` and the shards merge in index
    order, so replica row ``i`` always refers to the same pull and the
    first shards of a larger ensemble are the whole of a smaller one.
    All shards of two or more replicas are pulled in one stacked engine
    call, bit-identical to pulling each shard alone.

    Parameters
    ----------
    shard_size:
        Replicas per shard.  Part of the result's identity: changing it
        re-keys the RNG streams (documented, deliberate).
    obs:
        Instrumentation handle.  The whole run executes inside an
        ``smd.ensemble.parallel`` host-clock span carrying ``n_shards``;
        work counters accumulate per shard exactly as the serial runner's.
    store / store_key:
        Optional result-store memoization of the *whole* ensemble, as in
        :func:`run_pulling_ensemble`.  The fingerprint includes the shard
        size under ``executor`` — the sharded RNG layout differs from the
        serial runner's, so the two never share records.

    Remaining parameters match :func:`run_pulling_ensemble`.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be at least 1")
    if shard_size < 1:
        raise ConfigurationError("shard_size must be at least 1")
    settings = dict(dt=dt, n_records=n_records,
                    force_sample_time=force_sample_time,
                    cpu_hours_per_ns=cpu_hours_per_ns)
    if store is not None:
        from ..store import pulling_task

        task = pulling_task(model, protocol, n_samples=n_samples,
                            seed_key=_store_seed_key(seed, store_key),
                            executor="sharded", shard_size=shard_size,
                            **settings)
        return store.get_or_run(task, lambda: run_pulling_ensemble_parallel(
            model, protocol, n_samples, shard_size=shard_size, seed=seed,
            obs=obs, **settings))
    obs = as_obs(obs)
    base = as_seed_int(seed)
    groups = [(stream_for(base, "smd.shard", b), shard_n)
              for b, shard_n in enumerate(_shard_sizes(n_samples, shard_size))]
    with obs.span("smd.ensemble.parallel", kappa_pn=protocol.kappa_pn,
                  velocity=protocol.velocity, n_samples=n_samples,
                  n_shards=len(groups)):
        return reduce(WorkEnsemble.merged_with, _run_groups(
            model, protocol, groups, obs=obs, **settings))


def run_work_ensemble(
    model: ReducedTranslocationModel,
    protocol: PullingProtocol,
    n_tasks: int,
    samples_per_task: int,
    *,
    seed: SeedLike = None,
    labels: Tuple = (),
    store=None,
    dt: Optional[float] = None,
    n_records: int = 41,
    force_sample_time: Optional[float] = DEFAULT_FORCE_SAMPLE_TIME,
    cpu_hours_per_ns: float = PAPER_CPU_HOURS_PER_NS,
    obs: Optional[Obs] = None,
    task_offset: int = 0,
) -> WorkEnsemble:
    """Run one (kappa, v) cell as ``n_tasks`` restartable store-addressed tasks.

    This is the resumable front door the campaign drivers use: the cell's
    ensemble is the :func:`plan_tasks` plan for ``(protocol, labels)`` —
    the paper's "72 independent jobs" granularity — resolved through a
    :class:`TaskResolver` and merged in task order.  A task's physics
    depends only on ``(seed, labels, t)`` and the integration settings,
    never on which process ran it or in what order, so with a ``store``
    attached a killed campaign re-run recomputes exactly the tasks whose
    records are missing and the merged ensemble is bit-identical either
    way.

    Parameters
    ----------
    n_tasks:
        Number of restartable units (e.g. replicas-per-cell: 6).
    samples_per_task:
        JE samples each task contributes; the merged ensemble has
        ``n_tasks * samples_per_task`` rows, in task order.
    seed / labels:
        Stream key prefix; ``labels`` names the cell (e.g.
        ``("cell", 100000, 12500)``) so distinct cells never share streams.
    store:
        Optional :class:`repro.store.ResultStore`; each task is memoized
        individually under its full stream key.  The tasks that are not
        already in the store are computed together (one stacked engine
        call when ``samples_per_task >= 2``), each from its own
        ``stream_for`` stream, then persisted in task order.
    task_offset:
        First task index (default 0).  A later call with
        ``task_offset=n_tasks`` *extends* the same cell: concatenating the
        two results is bit-identical to one call of ``n_tasks + n_extra``
        tasks — the contract the adaptive controller's pilot/refine rounds
        are built on.

    Remaining parameters match :func:`run_pulling_ensemble`.
    """
    obs = as_obs(obs)
    settings = dict(dt=dt, n_records=n_records,
                    force_sample_time=force_sample_time,
                    cpu_hours_per_ns=cpu_hours_per_ns, obs=obs)
    tasks = list(plan_tasks(
        model, [(protocol, labels)], n_tasks, samples_per_task, seed=seed,
        task_offset=task_offset, **settings))
    resolver = TaskResolver(store)
    with obs.span("smd.work_ensemble", kappa_pn=protocol.kappa_pn,
                  velocity=protocol.velocity, n_tasks=n_tasks,
                  samples_per_task=samples_per_task):
        # Decide the misses up front (membership only, no store traffic)
        # so the stacking rule sees them as one set of groups; they are
        # then handed out in the order the resolver asks for them.
        missing = [t for t in tasks if t not in resolver]
        planned = {t.index for t in missing}
        stacked = _run_groups(
            model, protocol,
            [(stream_for(*t.key), samples_per_task) for t in missing],
            **settings)

        def compute(task: StreamTask) -> WorkEnsemble:
            # A hit whose record proves corrupt on read was not planned as
            # a miss: it is recomputed on its own.
            return next(stacked) if task.index in planned else task.compute()

        parts = [resolver.resolve(t, compute)[1] for t in tasks]
    return reduce(WorkEnsemble.merged_with, parts)
