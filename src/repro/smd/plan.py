"""Task plans over the pulling engine: identity, hit/miss/merge, stacking.

The paper turns one intractable simulation into many short *independent*
pulls; this module is the one place that says what such a pull **is** and
how a set of them is resolved:

* :func:`plan_tasks` — the task-plan generator.  A study is a list of
  cells; a cell's ensemble is ``n_tasks`` sub-ensembles of
  ``samples_per_task`` replicas (or the task range the cell names); task
  ``t`` runs RNG stream ``stream_for(seed, *labels, "task", t)`` and is
  described by :func:`repro.store.pulling_task` over that key
  (``n_tasks=None`` is the historical unsplit layout: one task per cell
  under the bare cell key ``(seed, *labels)``).  Grid cells are labelled by
  :func:`cell_labels`.  Every driver — studies, production, the
  forward/reverse pair, the adaptive rounds, the grid-job view, the service
  — gets its tasks from here, so their store fingerprints cannot drift.
* :class:`TaskResolver` — the one executor above the engine:
  :meth:`~TaskResolver.resolve_window` resolves a batch of planned tasks
  against an optional store (load hits, compute and persist misses,
  strictly in task order) with the same ``store.hits/misses/writes``
  traffic whoever is driving.
* :func:`run_cells` — that step over one plan, assembled per cell by
  :func:`merge_cells`: what production, the forward/reverse pair and each
  adaptive round call (one cell is ``run_cells(model, [(protocol, labels)],
  ...)[labels]``); :func:`repro.workflow.streaming.run_streamed_tasks` is
  the same step per bounded window, plus what only streaming owns
  (retries, DLQ).

Stacking is decided here, from what the window step can observe: the
missing tasks of one window and plan — whatever cells they belong to and
however many replicas the plan gives each — share one engine call when
there are two or more of them; a hand-built task and a lone miss run their
own ``compute()``.  Each task's result is bit-identical to running it alone
(:mod:`repro.smd.batched` documents why, one-replica tasks included), so
the layout is never part of a fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any, Callable, Collection, Dict, Iterable, Iterator, List, Optional,
    Sequence, Tuple,
)

from ..errors import CampaignInterrupted, ConfigurationError, ReproError
from ..obs import Obs
from ..pore.reduced import ReducedTranslocationModel
from ..rng import SeedLike, as_seed_int, stream_for
from .batched import run_pulling_stack
from .ensemble import run_pulling_ensemble
from .protocol import PullingProtocol
from .work import WorkEnsemble

__all__ = [
    "DEFAULT_WINDOW",
    "PlanStack",
    "StreamTask",
    "TASK_ERRORS",
    "TaskResolver",
    "cell_labels",
    "merge_cells",
    "plan_tasks",
    "run_cells",
]

#: What a failing pull raises (a numerical blow-up, a rejected parameter):
#: a stacked call is abandoned on these and the streamed retry loop may
#: attempt them again.  Anything else is a bug and propagates;
#: :class:`~repro.errors.CampaignInterrupted` (and, in the retry loop,
#: :class:`~repro.errors.PermanentTaskFailure`) is handled before them.
TASK_ERRORS = (ReproError, FloatingPointError)

#: Tasks per :meth:`TaskResolver.resolve_window` step for every caller that
#: does not choose: the streamed study and the campaign service.  A grid of
#: at most this many tasks is one window, hence one stacked loop as long as
#: its longest cell.  (Defined here, not in :mod:`repro.workflow.streaming`,
#: so the service's spec layer reads it without importing the workflow
#: package.)
DEFAULT_WINDOW = 64


@dataclass(frozen=True, eq=False)
class PlanStack:
    """What the tasks of one plan share — enough to pull any of them, of
    whatever cells, in one engine call.  Tasks are grouped by the *identity*
    of this object, so two plans never stack into each other."""

    model: ReducedTranslocationModel
    n_samples: int
    n_records: int
    obs: Optional[Obs]

    def run(self, tasks: Iterable["StreamTask"]) -> List[WorkEnsemble]:
        """One ensemble per task of this plan, all pulled in one engine
        call."""
        return run_pulling_stack(
            self.model,
            [(task.protocol, stream_for(*task.key), self.n_samples)
             for task in tasks],
            n_records=self.n_records, obs=self.obs)


@dataclass(frozen=True)
class StreamTask:
    """One planned unit of work.

    ``task`` is the canonical store descriptor; ``key`` is its seed/stream
    key (``stream_for(*key)`` is the task's RNG stream), doubling as the
    DLQ task key; ``cell`` groups tasks for per-cell assembly; ``compute``
    produces the ensemble when the store misses.  ``stack`` and
    ``protocol`` are set by :func:`plan_tasks` only: the plan context and
    the pull through which the window step may compute this task together
    with the window's other misses of the same plan.
    """

    index: int
    key: Tuple[Any, ...]
    cell: Tuple[Any, ...]
    task: Dict[str, Any]
    compute: Callable[[], WorkEnsemble]
    stack: Optional[PlanStack] = field(default=None, repr=False)
    protocol: Optional[PullingProtocol] = field(default=None, repr=False)

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
    cells: Iterable[Tuple[Any, ...]],
    n_tasks: Optional[int],
    samples_per_task: int,
    *,
    seed: SeedLike,
    n_records: int = 41,
    obs: Optional[Obs] = None,
) -> Iterator[StreamTask]:
    """Lazily yield the tasks of ``(protocol, labels)`` cells, cell-major.

    A cell's tasks are ``t = 0 .. n_tasks - 1`` with stream key ``(seed,
    *labels, "task", t)``; ``n_tasks=None`` leaves the cell unsplit — one
    task under the bare cell key ``(seed, *labels)``, the layout of
    releases before tasks existed.  A cell entry ``(protocol, labels,
    numbers)`` names its own task numbers instead (a ``range``, possibly
    empty): ``range(n, n + extra)`` *extends* a cell that already ran ``n``
    tasks, which is how one plan holds an adaptive refine round whose bins
    get different numbers of extra tasks.  ``index`` counts tasks across
    the whole plan from 0.  ``cells`` may be a generator — it is consumed
    one cell at a time.  ``n_records`` passes verbatim into both the
    descriptor and the compute thunk; the timestep, force-sampling stride
    and cost rate are the engine's own constants.
    """
    from ..store.fingerprint import pulling_task

    if n_tasks is not None and n_tasks < 1:
        raise ConfigurationError("n_tasks must be at least 1")
    if samples_per_task < 1:
        raise ConfigurationError("samples_per_task must be at least 1")
    shared = [None] if n_tasks is None else range(n_tasks)
    base = as_seed_int(seed)
    stack = PlanStack(model, samples_per_task, n_records, obs)
    index = 0
    for protocol, labels, *own in cells:
        numbers = own[0] if own else shared
        if own and min(numbers, default=0) < 0:
            raise ConfigurationError("task numbers cannot be negative")
        for t in numbers:
            key = (base, *labels) if t is None else (base, *labels, "task", t)
            task = pulling_task(model, protocol, n_samples=samples_per_task,
                                n_records=n_records, seed_key=key)

            def compute(protocol: PullingProtocol = protocol,
                        key: Tuple[Any, ...] = key) -> WorkEnsemble:
                return run_pulling_ensemble(
                    model, protocol, samples_per_task, n_records=n_records,
                    seed=stream_for(*key), obs=obs)

            yield StreamTask(index=index, key=key, cell=labels, task=task,
                             compute=compute, stack=stack, protocol=protocol)
            index += 1


#: What :meth:`TaskResolver.resolve_window` hands its ``compute`` callback:
#: the task and ``run``, which produces a task's ensemble (from the plan's
#: stacked call when the window planned one, else ``task.compute()``).
WindowCompute = Callable[[StreamTask, Callable[[StreamTask], WorkEnsemble]],
                         Optional[WorkEnsemble]]


class TaskResolver:
    """Resolve tasks against an optional store: load hits, compute and
    persist misses.

    Membership is the store's own memoized fingerprint set — read once
    from its index layer, never a per-task directory probe — and the store's
    ``hits`` / ``misses`` / ``writes`` counters move identically whichever
    driver is resolving.
    """

    def __init__(self, store: Any = None) -> None:
        self.store = store

    def __contains__(self, task: StreamTask) -> bool:
        return self.store is not None and task.fingerprint in self.store

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
            ensemble = compute(task)
            return ("failed" if ensemble is None else "computed"), ensemble
        fingerprint = task.fingerprint
        if fingerprint in store:
            ensemble = store.get(fingerprint)
            if ensemble is not None:
                return "hit", ensemble
            # Evicted as corrupt on read: recompute in place (get()
            # already counted the store-level miss).
        else:
            store.note_miss()
        ensemble = compute(task)
        if ensemble is None:
            return "failed", None
        store.put(task.task, ensemble, fingerprint)
        return "computed", ensemble

    def resolve_window(
        self,
        tasks: Sequence[StreamTask],
        compute: WindowCompute = lambda task, run: run(task),
        dead: Collection[str] = (),
    ) -> Iterator[Tuple[StreamTask, str, Optional[WorkEnsemble]]]:
        """The window step: yield ``(task, outcome, ensemble)`` for every
        task, hit / compute / ``put`` strictly in task order.

        The misses are decided from membership alone (no store traffic),
        at the window's first demand for a computed ensemble.  Those of one
        plan — first occurrence of each fingerprint, two or more of them,
        of any mix of cells and any replica count — are pulled in one
        stacked engine call, run on the first demand for any of them; every
        other task runs its own ``compute()``.  A window of hits therefore
        plans nothing: it hashes and loads each task as its turn comes, the
        very operations, in the very order, of resolving them one by one
        (so a served campaign's progress events stay evenly spaced — a
        burst of hashing ahead of every window doubled ``warm_service``'s
        run-to-run spread; PERFORMANCE.md's claim log, commit 2eb57fb).
        The stacked results are only a cache in front of the per-task loop:
        a duplicate fingerprint later in the window resolves as a hit after
        the first ``put``, a hit that proves corrupt on read once the
        window is planned is recomputed on its own, and a stacked call that
        fails is abandoned so that each member runs — and fails, where it
        must — alone.

        ``compute(task, run)`` wraps the production of one ensemble
        (retries, fault injection; ``None`` = failed terminally).
        Fingerprints in ``dead`` are never planned or computed and come
        back ``"failed"``; ``dead`` is read as each task's turn comes, so
        the caller may grow it between yields.
        """
        def plan() -> Dict[str, Tuple[PlanStack, List[StreamTask]]]:
            plans: Dict[PlanStack, List[StreamTask]] = {}
            planned: set = set()
            for task in tasks:
                if (task.stack is None or task in self
                        or task.fingerprint in planned
                        or task.fingerprint in dead):
                    continue
                planned.add(task.fingerprint)
                plans.setdefault(task.stack, []).append(task)
            return {member.fingerprint: (stack, group)
                    for stack, group in plans.items() if len(group) >= 2
                    for member in group}

        stacked: Optional[Dict[str, Tuple[PlanStack, List[StreamTask]]]] = None
        cache: Dict[str, WorkEnsemble] = {}

        def run(task: StreamTask) -> WorkEnsemble:
            nonlocal stacked
            if stacked is None:
                stacked = plan()
            if task.fingerprint in stacked:
                stack, group = stacked[task.fingerprint]
                for member in group:
                    del stacked[member.fingerprint]
                try:
                    cache.update(zip(
                        (member.fingerprint for member in group),
                        stack.run(group)))
                except CampaignInterrupted:
                    raise
                except TASK_ERRORS:
                    pass        # abandoned: each member runs alone
            ensemble = cache.pop(task.fingerprint, None)
            return task.compute() if ensemble is None else ensemble

        for task in tasks:
            if task.fingerprint in dead:
                yield task, "failed", None
            else:
                yield (task, *self.resolve(task, lambda t: compute(t, run)))


def merge_cells(
    parts: Iterable[Tuple[Tuple[Any, ...], Optional[WorkEnsemble]]],
) -> Dict[Tuple[Any, ...], WorkEnsemble]:
    """Per-cell assembly: ``(cell, ensemble)`` pairs in task order become
    ``{cell: merged ensemble}``, cells in order of first appearance.  A
    cell with any ``None`` part (a dead-lettered task) is left out — the
    degraded-completion contract."""
    merged: Dict[Tuple[Any, ...], WorkEnsemble] = {}
    failed = set()
    for cell, ensemble in parts:
        if ensemble is None:
            failed.add(cell)
        else:
            merged[cell] = (merged[cell].merged_with(ensemble)
                            if cell in merged else ensemble)
    return {cell: ensemble for cell, ensemble in merged.items()
            if cell not in failed}


def run_cells(
    model: ReducedTranslocationModel,
    cells: Iterable[Tuple[Any, ...]],
    n_tasks: Optional[int],
    samples_per_task: int,
    *,
    store: Any = None,
    **plan: Any,
) -> Dict[Tuple[Any, ...], WorkEnsemble]:
    """Run a list of cells: their :func:`plan_tasks` plan (``**plan`` is
    its keywords — ``seed``, ``n_records``, ``obs``) resolved as
    one :meth:`TaskResolver.resolve_window` step — hits loaded, the misses
    pulled in one stacked engine call, ``put`` in task order — and merged
    per cell by :func:`merge_cells`.  A cell whose task range is empty has
    no entry."""
    tasks = list(plan_tasks(model, cells, n_tasks, samples_per_task, **plan))
    return merge_cells(
        (task.cell, ensemble) for task, _outcome, ensemble
        in TaskResolver(store).resolve_window(tasks))

