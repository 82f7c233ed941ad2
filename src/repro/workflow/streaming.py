"""The task stream: every study's driver, up to million-task campaigns.

Every study — :func:`repro.core.run_parameter_study`, hence
:class:`~repro.workflow.SpiceCampaign` and ``repro campaign``, and the
campaign service — hands its task plan to this module; there is no other
executor.  It never materializes the task grid, because in the ROADMAP's
10^6-task regime the descriptor list alone dwarfs the physics and a resume
must not re-fingerprint a million completed tasks just to find the first
miss:

* :class:`StreamTask` — one lazily-built task: global index, cell labels,
  the canonical store descriptor, and a ``compute`` thunk (defined with
  the task plan in :mod:`repro.smd.plan`, re-exported here).
* :func:`stream_study_tasks` — the :func:`~repro.smd.plan.plan_tasks` plan
  of a whole (kappa, v) study over a (possibly lazy) protocol iterable:
  the very tasks :func:`~repro.smd.run_work_ensemble` runs per cell, so
  every driver shares store records with every other.
* :class:`StreamCursor` — a durable watermark under
  ``<store>/.stream/``: the contiguous prefix of the stream known
  resolved (completed or dead-lettered).  Resume skips the prefix without
  fingerprinting it — the fingerprint-based check only starts at the
  watermark — so a fully-complete million-task campaign resumes in
  seconds.
* :func:`run_streamed_tasks` — the bounded-window loop.  Each window is
  one :meth:`~repro.smd.plan.TaskResolver.resolve_window` step (hits
  loaded, the window's misses pulled in one stacked engine call, ``put`` in
  stream order); this module adds only what streaming owns — the cursor,
  the durable dead set, seeded per-task retries, dead-letter-queue
  degradation and the ``fault`` hook.
* :func:`run_streamed_study` — per-cell assembly on top
  (:func:`~repro.smd.plan.merge_cells`): merged ensembles for every cell
  whose tasks all resolved, and a degradation report for the rest.

Determinism: a task's physics depends only on its descriptor (the store
fingerprint covers model, protocol, shape and seed key); the window size,
what the window stacked, the cursor, retries and the DLQ affect only
*which* tasks are recomputed and in which engine call, never their values
— so output is bit-identical at every window size and to one scalar-oracle
call per task, and a chaos run's completed cells are bit-identical across
same-seed runs.

Only the cursor file is written outside the store's record tree (under the
hidden ``.stream/`` entry, invisible to the store's meta/scan logic); all
record I/O goes through the store's own layer.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..errors import (
    CampaignInterrupted,
    ConfigurationError,
    PermanentTaskFailure,
    StoreError,
)
from ..obs import Obs, as_obs
from ..rng import SeedLike, as_seed_int
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
    "CURSOR_SCHEMA",
    "StreamTask",
    "StreamCursor",
    "StreamReport",
    "stream_study_tasks",
    "run_streamed_tasks",
    "run_streamed_study",
]

CURSOR_SCHEMA = "repro.store.cursor/v1"

#: The cursor is fsync'd at most once per this many windows (and once more
#: when the stream ends or is interrupted): a stale watermark only costs
#: fingerprint checks on resume.
_CHECKPOINT_WINDOWS = 4


class StreamCursor:
    """Durable resume watermark for one campaign over one store.

    The watermark is the length of the *contiguous resolved prefix* of the
    task stream: every task before it is either in the store or durably
    dead-lettered.  It is advanced conservatively (only after the
    underlying records are durable) and written atomically, so a crash can
    only leave it stale — a stale watermark costs fingerprint checks, a
    watermark ahead of the truth could skip real work and is impossible by
    construction.

    Identity: the file name and payload carry a fingerprint of the
    campaign key (seed, grid shape, task parameters...), so a cursor is
    never trusted for a different campaign sharing the store.
    """

    def __init__(self, store_root: str, campaign_key: Sequence[Any], *,
                 sync: bool = True) -> None:
        from ..store.fingerprint import canonical_json

        self._campaign = canonical_json(list(campaign_key))
        self._campaign_fp = hashlib.sha256(
            self._campaign.encode("utf-8")).hexdigest()
        self.path = os.path.join(
            os.fspath(store_root), ".stream", self._campaign_fp[:32] + ".json")
        self._sync = sync

    def load(self) -> int:
        """The stored watermark, or 0 when absent/foreign/invalid."""
        import json

        try:
            with open(self.path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            return 0
        if not isinstance(doc, dict) or doc.get("schema") != CURSOR_SCHEMA:
            return 0
        if doc.get("campaign_fingerprint") != self._campaign_fp:
            return 0
        watermark = doc.get("watermark")
        if not isinstance(watermark, int) or watermark < 0:
            return 0
        return watermark

    def save(self, watermark: int) -> None:
        """Atomically persist the watermark (fsync'd unless sync=False)."""
        from ..store.fingerprint import canonical_json
        from ..store.index import atomic_write_text

        doc = {
            "schema": CURSOR_SCHEMA,
            "campaign_fingerprint": self._campaign_fp,
            "watermark": int(watermark),
        }
        atomic_write_text(self.path, canonical_json(doc) + "\n",
                          sync=self._sync)


@dataclass
class StreamReport:
    """Counters from one :func:`run_streamed_tasks` pass."""

    total: int = 0
    skipped_prefix: int = 0   # resolved via the cursor, no fingerprinting
    hits: int = 0             # resolved via store membership
    computed: int = 0
    dead_lettered: int = 0
    retries: int = 0
    watermark: int = 0
    #: index → ensemble for collected tasks (collect=True only; tasks that
    #: were dead-lettered are absent).
    results: Dict[int, WorkEnsemble] = field(default_factory=dict)
    #: index → DLQ entry for tasks that failed terminally this pass or a
    #: previous one (when the stream re-encounters them).
    failures: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def resolved(self) -> int:
        """Tasks accounted for without fresh failure, however resolved."""
        return self.skipped_prefix + self.hits + self.computed

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
    campaign_key: Optional[Sequence[Any]] = None,
    window: int = 64,
    collect: bool = True,
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
    order — after which the durable cursor advances when the resolved
    prefix is contiguous.  ``store=None`` runs the same loop with no
    membership and no cursor: every task is computed.

    Resume semantics: tasks below the cursor watermark are skipped without
    even computing their fingerprint (the cursor is only ever behind the
    truth, never ahead).  The first post-watermark task of each window is
    resolved by store membership — loaded from the per-shard indexes once,
    O(changed shards) — and misses are recomputed bit-identically from
    their seed key.

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
    cursor: Optional[StreamCursor] = None
    watermark = 0
    if campaign_key is not None and store is not None:
        cursor = StreamCursor(store.root, campaign_key, sync=store.sync)
        watermark = cursor.load()
    report.watermark = watermark
    # Collect mode must *load* every hit anyway, so the cursor cannot skip
    # work for it — prefix tasks go through ordinary membership + get().
    # The cursor is still maintained for later completion-only passes.
    skip_watermark = 0 if collect else watermark

    resolver = TaskResolver(store, collect=collect)
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
    prefix_contiguous = True
    next_prefix_index = skip_watermark
    windows_since_checkpoint = 0

    def resolve_window() -> None:
        nonlocal prefix_contiguous, next_prefix_index, windows_since_checkpoint
        # Tasks in ``dead`` were durably dead-lettered by a previous pass
        # (or earlier in this one): they stay failed and count as resolved
        # for the watermark (degraded resume).
        for spec, outcome, ensemble in resolver.resolve_window(
                pending, compute, dead):
            if outcome == "failed":
                dead.add(spec.fingerprint)
                report.failures[spec.index] = {"fingerprint": spec.fingerprint}
            elif outcome == "hit":
                report.hits += 1
                obs.inc("stream.hits")
            else:
                report.computed += 1
                obs.inc("stream.computed")
            if collect and ensemble is not None:
                report.results[spec.index] = ensemble
            if prefix_contiguous and spec.index == next_prefix_index:
                next_prefix_index += 1
            else:
                prefix_contiguous = False
        pending.clear()
        windows_since_checkpoint += 1
        if (cursor is not None and prefix_contiguous
                and next_prefix_index > report.watermark
                and windows_since_checkpoint >= _CHECKPOINT_WINDOWS):
            cursor.save(next_prefix_index)
            report.watermark = next_prefix_index
            windows_since_checkpoint = 0

    try:
        for spec in tasks:
            report.total += 1
            if spec.index < skip_watermark:
                report.skipped_prefix += 1
                continue
            pending.append(spec)
            if len(pending) >= window:
                resolve_window()
        if pending:
            resolve_window()
    finally:
        # Persist whatever prefix progress was made, even on interrupt.
        if (cursor is not None and prefix_contiguous
                and next_prefix_index > report.watermark):
            cursor.save(next_prefix_index)
            report.watermark = next_prefix_index
    report.dead_lettered = len(report.failures)
    if obs.enabled:
        obs.set_gauge("stream.watermark", report.watermark)
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
    campaign_key = ["study", as_seed_int(seed), n_samples, samples_per_task,
                    n_records]
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
        tagged(), store=store, campaign_key=campaign_key, window=window,
        collect=True, dlq=dlq, retry=retry, fault=fault, obs=obs,
    )
    return merge_cells((cell, report.results.get(index))
                       for index, cell in enumerate(cells)), report
