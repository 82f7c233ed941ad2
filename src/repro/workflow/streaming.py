"""The task stream: every study's driver, up to million-task campaigns.

Every study — :func:`repro.core.run_parameter_study`, hence
:class:`~repro.workflow.SpiceCampaign` and ``repro campaign``, and the
campaign service — hands its task plan to this module; there is no other
executor.  It never materializes the task grid, because in the ROADMAP's
10^6-task regime the descriptor list alone dwarfs the physics:

* :class:`StreamTask` — one lazily-built task: global index, cell labels,
  the canonical store descriptor, and a ``compute`` thunk (defined with
  the task plan in :mod:`repro.smd.plan`, re-exported here).
* :func:`stream_study_tasks` — the :func:`~repro.smd.plan.plan_tasks` plan
  of a whole (kappa, v) study over a (possibly lazy) protocol iterable:
  the very tasks :func:`~repro.smd.run_work_ensemble` runs per cell, so
  every driver shares store records with every other.
* :func:`run_streamed_tasks` — the bounded-window loop.  Each window is
  one :meth:`~repro.smd.plan.TaskResolver.resolve_window` step (hits
  loaded, the window's misses pulled in one stacked engine call, ``put`` in
  stream order); this module adds only what streaming owns — the durable
  dead set, seeded per-task retries, dead-letter-queue degradation and the
  ``fault`` hook.
* :func:`run_streamed_study` — per-cell assembly on top
  (:func:`~repro.smd.plan.merge_cells`): merged ensembles for every cell
  whose tasks all resolved, and a degradation report for the rest.

Determinism: a task's physics depends only on its descriptor (the store
fingerprint covers model, protocol, shape and seed key); the window size,
what the window stacked, retries and the DLQ affect only *which* tasks are
recomputed and in which engine call, never their values — so output is
bit-identical at every window size and to one scalar-oracle call per task,
and a chaos run's completed cells are bit-identical across same-seed runs.

Resume has one mechanism, store membership: a re-run hashes each task,
loads the ones the store holds and recomputes the rest bit-identically from
their seed keys.  Nothing is written outside the store's own record I/O
layer and the dead-letter queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from ..errors import (
    CampaignInterrupted,
    ConfigurationError,
    PermanentTaskFailure,
    StoreError,
)
from ..obs import Obs, as_obs
from ..rng import SeedLike
from ..smd.batched import DEFAULT_FORCE_SAMPLE_TIME, PAPER_CPU_HOURS_PER_NS
from ..smd.plan import (
    TASK_ERRORS,
    StreamTask,
    TaskResolver,
    cell_labels,
    merge_cells,
    plan_tasks,
)
from ..smd.work import WorkEnsemble

__all__ = [
    "StreamTask",
    "StreamReport",
    "stream_study_tasks",
    "run_streamed_tasks",
    "run_streamed_study",
]


@dataclass
class StreamReport:
    """Counters from one :func:`run_streamed_tasks` pass."""

    hits: int = 0             # resolved via store membership
    computed: int = 0
    dead_lettered: int = 0
    retries: int = 0
    #: Every streamed task's store fingerprint, in stream order.
    fingerprints: List[str] = field(default_factory=list)
    #: index → ensemble for every task that resolved (dead-lettered tasks
    #: are absent).
    results: Dict[int, WorkEnsemble] = field(default_factory=dict)
    #: index → DLQ entry for tasks that failed terminally this pass or a
    #: previous one (when the stream re-encounters them).
    failures: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Tasks streamed: hits, computed and dead-lettered together."""
        return len(self.fingerprints)

    @property
    def degraded(self) -> bool:
        """True when any task in the pass is dead-lettered (old or new)."""
        return bool(self.failures)


def stream_study_tasks(
    model: Any,
    protocols: Iterable[Any],
    n_tasks: Optional[int],
    samples_per_task: int,
    *,
    seed: SeedLike = 2005,
    dt: Optional[float] = None,
    n_records: int = 41,
    force_sample_time: Optional[float] = DEFAULT_FORCE_SAMPLE_TIME,
    cpu_hours_per_ns: float = PAPER_CPU_HOURS_PER_NS,
    obs: Optional[Obs] = None,
) -> Iterator[StreamTask]:
    """Lazily yield every task of a (kappa, v) study, grid never built.

    This is :func:`~repro.smd.plan.plan_tasks` over the study's grid cells
    (labelled by :func:`~repro.smd.plan.cell_labels`), so streamed task
    fingerprints are identical to :func:`~repro.smd.run_work_ensemble`'s
    and the two share store records.  ``protocols`` may be any iterable,
    including a generator — it is consumed one cell at a time.
    """
    return plan_tasks(
        model, ((proto, cell_labels(proto)) for proto in protocols),
        n_tasks, samples_per_task, seed=seed, dt=dt, n_records=n_records,
        force_sample_time=force_sample_time,
        cpu_hours_per_ns=cpu_hours_per_ns, obs=obs,
    )


def run_streamed_tasks(
    tasks: Iterable[StreamTask],
    *,
    store: Any,
    window: int = 64,
    dlq: Any = None,
    retry: Any = None,
    fault: Optional[Callable[[StreamTask, int], None]] = None,
    obs: Optional[Obs] = None,
) -> StreamReport:
    """Drain a task stream through the store with bounded in-flight state.

    At most ``window`` task descriptors are materialized at once; each
    window is one :meth:`~repro.smd.plan.TaskResolver.resolve_window` step
    — store hits loaded, the misses of the plan, whatever cells they belong
    to, pulled in one stacked engine call, everything ``put`` in stream
    order.  ``store=None`` runs the same loop with no membership: every
    task is computed.

    Resume semantics: every task is resolved by store membership — loaded
    from the per-shard indexes once, O(changed shards) — so a re-run loads
    what the store holds and recomputes the misses bit-identically from
    their seed keys.

    Failure semantics are per task, whatever the window stacked: a compute
    raising :class:`PermanentTaskFailure` is dead-lettered immediately;
    other :class:`ReproError` failures are retried per the seeded ``retry``
    policy (attempts only — simulation tasks have no wall-clock backoff to
    wait out) and dead-lettered on exhaustion.  Without a ``dlq`` the
    failure propagates: silent loss is never an option.  ``fault`` is the
    chaos hook, called before every attempt — hence before any compute of
    the window.  :class:`CampaignInterrupted` always propagates (that *is*
    the kill switch).
    """
    if window < 1:
        raise ConfigurationError("window must be >= 1")
    obs = as_obs(obs)
    report = StreamReport()
    resolver = TaskResolver(store)
    dead: set = set()
    if dlq is not None:
        # Only *active* entries are terminal; requeued ones (handed back
        # by `repro dlq retry` / the service's retry endpoint) must be
        # recomputed, so they stay out of the dead set.
        listing = getattr(dlq, "active_entries", dlq.entries)
        dead = {entry.get("fingerprint") for entry in listing()
                if entry.get("fingerprint")}

    def compute(spec: StreamTask, run: Callable[[StreamTask], WorkEnsemble]
                ) -> Optional[WorkEnsemble]:
        return _compute_with_retry(spec, run, report, dlq=dlq, retry=retry,
                                   fault=fault, obs=obs)

    pending: List[StreamTask] = []

    def resolve_window() -> None:
        # Tasks in ``dead`` were durably dead-lettered by a previous pass
        # (or earlier in this one): they stay failed (degraded resume).
        for spec, outcome, ensemble in resolver.resolve_window(
                pending, compute, dead):
            report.fingerprints.append(spec.fingerprint)
            if outcome == "failed":
                dead.add(spec.fingerprint)
                report.failures[spec.index] = {"fingerprint": spec.fingerprint}
            elif outcome == "hit":
                report.hits += 1
                obs.inc("stream.hits")
            else:
                report.computed += 1
                obs.inc("stream.computed")
            if ensemble is not None:
                report.results[spec.index] = ensemble
        pending.clear()

    for spec in tasks:
        pending.append(spec)
        if len(pending) >= window:
            resolve_window()
    if pending:
        resolve_window()
    report.dead_lettered = len(report.failures)
    if obs.enabled:
        obs.set_gauge("stream.failures", report.dead_lettered)
    return report


def _compute_with_retry(
    spec: StreamTask,
    run: Callable[[StreamTask], WorkEnsemble],
    report: StreamReport,
    *,
    dlq: Any,
    retry: Any,
    fault: Optional[Callable[[StreamTask, int], None]],
    obs: Obs,
) -> Optional[WorkEnsemble]:
    """Produce one task's ensemble (through ``run``, the window step's way
    of computing it) under the retry policy; None means dead-lettered."""
    attempts = 0
    while True:
        attempts += 1
        try:
            if fault is not None:
                fault(spec, attempts)
            return run(spec)
        except CampaignInterrupted:
            raise
        except PermanentTaskFailure as exc:
            return _dead_letter(spec, "permanent-failure", attempts, exc,
                                dlq=dlq, obs=obs)
        except TASK_ERRORS as exc:
            exhausted = retry is None or retry.exhausted(attempts)
            if exhausted:
                return _dead_letter(spec, "retry-exhausted", attempts, exc,
                                    dlq=dlq, obs=obs)
            report.retries += 1
            obs.inc("stream.retries")


def _dead_letter(spec: StreamTask, reason: str, attempts: int,
                 exc: Exception, *, dlq: Any, obs: Obs) -> None:
    if dlq is None:
        raise StoreError(
            f"task {spec.key!r} failed terminally ({reason}: {exc}) and no "
            f"dead-letter queue is attached; refusing to drop it silently"
        ) from exc
    dlq.record(
        task_key=spec.key,
        fingerprint=spec.fingerprint,
        reason=reason,
        attempts=attempts,
        last_error=f"{type(exc).__name__}: {exc}",
    )
    obs.inc("stream.dead_lettered")
    return None


def run_streamed_study(
    model: Any,
    protocols: Iterable[Any],
    *,
    n_samples: int = 32,
    samples_per_task: Optional[int] = 4,
    seed: SeedLike = 2005,
    store: Any,
    window: int = 64,
    dlq: Any = None,
    retry: Any = None,
    fault: Optional[Callable[[StreamTask, int], None]] = None,
    n_records: int = 41,
    obs: Optional[Obs] = None,
) -> Tuple[Dict[Tuple[Any, ...], WorkEnsemble], StreamReport]:
    """The study loop: per-cell merged ensembles of a (kappa, v) grid.

    Returns ``(ensembles, report)`` where ``ensembles`` maps each cell's
    labels to its merged :class:`WorkEnsemble` — *only* cells whose every
    task resolved; cells with dead-lettered tasks are omitted (the
    degraded-completion contract) and identified in ``report.failures``.
    Fault-free, the per-cell ensembles are bit-identical to
    :func:`~repro.smd.run_work_ensemble` on the same arguments, whatever
    the ``window``.  ``samples_per_task=None`` is the unsplit plan: one
    task per cell under the bare cell key (see
    :func:`~repro.smd.plan.plan_tasks`).
    """
    size = n_samples if samples_per_task is None else samples_per_task
    if size < 1 or n_samples % size:
        raise ConfigurationError(
            f"samples_per_task ({samples_per_task}) must divide "
            f"n_samples ({n_samples}) evenly")
    n_tasks = n_samples // size
    specs = stream_study_tasks(
        model, protocols, None if samples_per_task is None else n_tasks,
        size, seed=seed, n_records=n_records, obs=obs,
    )
    # Remember each task's cell as it streams past (no descriptors kept).
    cells: List[Tuple[Any, ...]] = []

    def tagged() -> Iterator[StreamTask]:
        for spec in specs:
            cells.append(spec.cell)
            yield spec

    report = run_streamed_tasks(
        tagged(), store=store, window=window, dlq=dlq, retry=retry,
        fault=fault, obs=obs,
    )
    return merge_cells((cell, report.results.get(index))
                       for index, cell in enumerate(cells)), report
