"""Chaos harness: named fault scenarios against the federated campaign.

The paper's Section V-C is a catalogue of things that actually went wrong
in 2005 — a security breach on the one coordinated UK node, hardware
failures, flaky trans-Atlantic links, middleware auth refusals.  This
module turns that catalogue into *repeatable* experiments: a
:class:`ChaosScenario` bundles site outages, grid partitions, link faults
and middleware faults; :func:`run_chaos_scenario` builds the Fig. 5
federation, arms a :class:`~repro.grid.FailureInjector` from a dedicated
seeded stream, runs the 72-job campaign under a full
:class:`~repro.resil.Resilience` bundle, and reports what the resilience
machinery observed (detector transitions, breaker trips, retry
histograms, time-to-recovery) alongside the campaign outcome.

Everything is deterministic per seed: fault decisions come from
``stream_for(seed, "resil", "chaos", ...)`` streams that never touch the
physics or network streams, so the same seed reproduces the same run bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, RetryExhausted
from ..grid.des import EventLoop
from ..grid.failures import FailureInjector
from ..grid.federation import CampaignManager, FederatedGrid, Grid
from ..grid.jobs import spice_batch_jobs
from ..grid.middleware import GridMiddleware
from ..grid.resources import ngs_sites, teragrid_sites
from ..net.channel import ReliableChannel
from ..net.qos import PRODUCTION_INTERNET
from ..obs import Obs, as_obs
from ..rng import stream_for
from .core import Resilience
from .policy import RetryPolicy

__all__ = [
    "SiteFault",
    "PartitionFault",
    "LinkFault",
    "MiddlewareFault",
    "RandomOutages",
    "PermafailFault",
    "ChaosScenario",
    "SCENARIOS",
    "run_chaos_scenario",
    "render_chaos_report",
]


# -- fault descriptions --------------------------------------------------------


@dataclass(frozen=True)
class SiteFault:
    """An outage at one site: ``kind`` is ``"hardware"`` or ``"breach"``."""

    site: str
    at_hours: float
    duration_hours: float
    kind: str = "hardware"

    def __post_init__(self) -> None:
        if self.kind not in ("hardware", "breach"):
            raise ConfigurationError(f"unknown site fault kind {self.kind!r}")
        if self.duration_hours <= 0:
            raise ConfigurationError("fault duration must be positive")


@dataclass(frozen=True)
class PartitionFault:
    """A network partition cutting one grid off from the broker."""

    grid: str
    at_hours: float
    duration_hours: float


@dataclass(frozen=True)
class LinkFault:
    """A steering-link fault: ``kind`` is ``"flap"`` or ``"burst"``.

    Times are in *seconds* — link faults play out on the interactive
    steering channel's clock, not the campaign's hour clock.
    """

    at_s: float
    duration_s: float
    kind: str = "flap"
    n_flaps: int = 3
    loss_rate: float = 1.0
    extra_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("flap", "burst"):
            raise ConfigurationError(f"unknown link fault kind {self.kind!r}")


@dataclass(frozen=True)
class MiddlewareFault:
    """A control-plane fault: ``kind`` is ``"auth"`` or ``"transfer"``."""

    site: str
    kind: str
    at_hours: float
    duration_hours: float


@dataclass(frozen=True)
class RandomOutages:
    """Seeded Poisson hardware failures across every queue, at the
    injector's :attr:`~repro.grid.FailureInjector.MTBF_HOURS`."""

    horizon_hours: float


@dataclass(frozen=True)
class PermafailFault:
    """Stream tasks that fail deterministically at *every* attempt.

    Models the pathology the retry machinery cannot fix: a task whose
    input is poisoned (bad cell parameters, a reproducible numerical
    blow-up), so it fails identically at every site, every time.  The
    scenario runner drives a small streamed study in which the tasks at
    ``task_indices`` raise on every attempt; after the executor's
    attempts (:data:`~repro.workflow.streaming.TASK_ATTEMPTS`) each
    poisoned task lands in the durable dead-letter queue while the rest of
    the campaign completes degraded.
    """

    task_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.task_indices:
            raise ConfigurationError("permafail needs at least one task")
        if any(i < 0 for i in self.task_indices):
            raise ConfigurationError("permafail task indices must be >= 0")


@dataclass(frozen=True)
class ChaosScenario:
    """A named, fully declarative bundle of faults."""

    name: str
    description: str
    site_faults: Tuple[SiteFault, ...] = ()
    partitions: Tuple[PartitionFault, ...] = ()
    link_faults: Tuple[LinkFault, ...] = ()
    middleware_faults: Tuple[MiddlewareFault, ...] = ()
    random_outages: Optional[RandomOutages] = None
    permafail: Optional[PermafailFault] = None


#: The named scenarios the CLI exposes.  "breach-partition" is the
#: acceptance scenario: the SC05 security breach on the one
#: lightpath-equipped UK node, a TeraGrid hardware failure while the
#: campaign is in full swing, a trans-Atlantic partition hiding the whole
#: NGS, a flapping steering link and middleware faults on both sides.
SCENARIOS: Dict[str, ChaosScenario] = {
    "baseline": ChaosScenario(
        name="baseline",
        description="No injected faults — the control run. With a full "
                    "resilience bundle this must match the oracle campaign "
                    "bit for bit.",
    ),
    "breach": ChaosScenario(
        name="breach",
        description="The Section V-C4 incident alone: a security breach "
                    "takes the one coordinated UK node down for weeks.",
        site_faults=(
            SiteFault("NGS-Manchester", at_hours=4.0,
                      duration_hours=3.0 * 7 * 24, kind="breach"),
        ),
    ),
    "breach-partition": ChaosScenario(
        name="breach-partition",
        description="The full bad week: Manchester breached at t=4h, NCSA "
                    "loses hardware at t=6h for 12h, the trans-Atlantic "
                    "link partitions the NGS from t=8h to t=20h, the "
                    "steering link flaps, and middleware faults hit both "
                    "grids.",
        site_faults=(
            SiteFault("NGS-Manchester", at_hours=4.0,
                      duration_hours=3.0 * 7 * 24, kind="breach"),
            SiteFault("NCSA", at_hours=6.0, duration_hours=12.0,
                      kind="hardware"),
        ),
        partitions=(
            PartitionFault("NGS", at_hours=8.0, duration_hours=12.0),
        ),
        link_faults=(
            LinkFault(at_s=30.0, duration_s=60.0, kind="flap", n_flaps=3),
            LinkFault(at_s=100.0, duration_s=10.0, kind="burst",
                      loss_rate=0.5, extra_latency_ms=35.0),
        ),
        middleware_faults=(
            MiddlewareFault("SDSC", "transfer", at_hours=5.0,
                            duration_hours=2.0),
            MiddlewareFault("NGS-Leeds", "auth", at_hours=9.0,
                            duration_hours=6.0),
        ),
    ),
    "permafail": ChaosScenario(
        name="permafail",
        description="Two poisoned tasks that fail every attempt at every "
                    "site.  The streamed study must complete degraded: "
                    "every other task done, exactly two durable "
                    "dead-letter entries, and the completed cells "
                    "bit-identical across same-seed runs.",
        permafail=PermafailFault(task_indices=(1, 5)),
    ),
    "cascade": ChaosScenario(
        name="cascade",
        description="Seeded Poisson hardware failures across every site "
                    "over the first two weeks, plus a degraded steering "
                    "link — the slow-burn reliability regime.",
        random_outages=RandomOutages(horizon_hours=14 * 24),
        link_faults=(
            LinkFault(at_s=20.0, duration_s=40.0, kind="burst",
                      loss_rate=0.3),
        ),
    ),
}


# -- the runner ----------------------------------------------------------------

#: Steering-channel retransmission under chaos: fewer attempts than the
#: production default so a hard 10 s cut actually exhausts (and is counted)
#: instead of being ridden out by minutes of backoff.
_CHAOS_CHANNEL_RETRY = RetryPolicy(max_attempts=6, base_delay=1e-4)


def _build_federation(loop: EventLoop, obs) -> FederatedGrid:
    teragrid = Grid("TeraGrid", teragrid_sites(), loop, obs=obs)
    ngs = Grid("NGS", ngs_sites(), loop, obs=obs)
    return FederatedGrid([teragrid, ngs])


def _exercise_steering_link(scenario: ChaosScenario, seed: int, obs,
                            injector: FailureInjector) -> Dict[str, object]:
    """Drive a steering-message stream across the link-fault windows."""
    channel = ReliableChannel(
        PRODUCTION_INTERNET,
        seed=stream_for(seed, "resil", "chaos", "net"),
        obs=obs, name="steering", retry=_CHAOS_CHANNEL_RETRY,
    )
    for lf in scenario.link_faults:
        if lf.kind == "flap":
            injector.link_flap(channel, lf.at_s, lf.duration_s,
                               n_flaps=lf.n_flaps, loss_rate=lf.loss_rate)
        else:
            injector.loss_burst(channel, lf.at_s, lf.duration_s,
                                loss_rate=lf.loss_rate,
                                extra_latency_ms=lf.extra_latency_ms)
    delivered = 0
    for i in range(120):  # one steering update per second over two minutes
        try:
            channel.transmit(float(i), size_bytes=2048)
            delivered += 1
        except RetryExhausted:
            pass
    stats = channel.stats
    return {
        "messages_sent": 120,
        "delivered": delivered,
        "dropped": stats.exhausted,
        "retransmissions": stats.loss_recoveries,
        "mean_delay_s": round(stats.mean_delay, 6),
        "worst_delay_s": round(stats.worst_delay, 6),
    }


def _probe_middleware(scenario: ChaosScenario, middleware: GridMiddleware,
                      obs) -> List[Dict[str, object]]:
    """Exercise each middleware fault window: one retried call launched at
    the fault start (rides it out or exhausts), one after it clears."""
    probes: List[Dict[str, object]] = []
    for mf in scenario.middleware_faults:
        middleware.inject_fault(mf.site, mf.kind, mf.at_hours,
                                mf.duration_hours)
        call = (middleware.gatekeeper_submit if mf.kind == "auth"
                else middleware.gridftp_transfer)
        kwargs = ({"job_name": "smdje-probe"} if mf.kind == "auth"
                  else {"size_mb": 256.0})
        for when, label in ((mf.at_hours, "during"),
                            (mf.at_hours + mf.duration_hours + 0.5, "after")):
            try:
                outcome = call(mf.site, now=when, obs=obs, **kwargs)
                probes.append({
                    "site": mf.site, "kind": mf.kind, "phase": label,
                    "result": "ok", "attempts": outcome.attempts,
                    "backoff_hours": round(outcome.elapsed, 4),
                })
            except RetryExhausted as exc:
                probes.append({
                    "site": mf.site, "kind": mf.kind, "phase": label,
                    "result": "exhausted", "attempts": exc.attempts,
                })
    return probes


def _exercise_permafail(fault: PermafailFault, seed: int,
                        obs) -> Dict[str, object]:
    """Drive a small streamed study with poisoned tasks into the DLQ.

    Runs a 4-cell, 8-task study against a throwaway store; the
    tasks at ``fault.task_indices`` raise :class:`SimulationError` on
    every attempt, use up their attempts, and land in the dead-letter
    queue while every other task completes.  Returns a
    report with no paths or timestamps, so it is bit-identical per seed.
    """
    import tempfile

    from ..errors import SimulationError
    from ..pore.reduced import ReducedTranslocationModel, \
        default_reduced_potential
    from ..smd.protocol import PullingProtocol
    from ..store import ResultStore
    from ..workflow.streaming import StreamTask, run_streamed_study
    from .dlq import DeadLetterQueue

    model = ReducedTranslocationModel(default_reduced_potential())
    protocols = [
        PullingProtocol(kappa_pn=kappa, velocity=velocity, distance=2.0,
                        equilibration_ns=0.0)
        for kappa in (100.0, 1000.0)
        for velocity in (25.0, 50.0)
    ]
    poisoned = frozenset(fault.task_indices)

    def poison(spec: StreamTask, attempt: int) -> None:
        if spec.index in poisoned:
            raise SimulationError(
                f"permafail: task {spec.index} is poisoned at every site")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        store = ResultStore(f"{tmp}/store", obs=obs, sync=False)
        dlq = DeadLetterQueue(f"{tmp}/DLQ.jsonl", obs=obs, sync=False)
        ensembles, report = run_streamed_study(
            model, protocols, n_samples=4, samples_per_task=2,
            seed=stream_for(seed, "resil", "chaos", "permafail"),
            store=store, window=4, dlq=dlq, fault=poison,
            n_records=11, obs=obs,
        )
        summary = dlq.summary()
        entries = [
            {"task_key": entry["task_key"], "reason": entry["reason"],
             "attempts": entry["attempts"],
             "last_error": entry["last_error"]}
            for entry in dlq.entries()
        ]
    return {
        "tasks": report.total,
        "computed": report.computed,
        "retries": report.retries,
        "dead_lettered": report.dead_lettered,
        "completed_cells": sorted(list(cell) for cell in ensembles),
        "degraded": report.degraded,
        "depth": summary["depth"],
        "reasons": summary["reasons"],
        "entries": entries,
    }


def run_chaos_scenario(scenario: ChaosScenario, seed: int = 2005,
                       n_jobs: int = 72,
                       obs: Optional[Obs] = None) -> Dict[str, object]:
    """Run the paper's batch campaign under a chaos scenario.

    Returns a JSON-serializable report: campaign outcome, injected
    faults, detector transitions, breaker trips, steering-link and
    middleware probe results.  Deterministic per ``(scenario, seed)``.
    """
    obs = as_obs(obs)
    loop = EventLoop()
    federation = _build_federation(loop, obs)
    resil = Resilience.for_federation(federation, obs=obs)
    injector = FailureInjector(seed=stream_for(seed, "resil", "chaos"))
    queues = federation.all_queues()

    for sf in scenario.site_faults:
        if sf.site not in queues:
            raise ConfigurationError(f"unknown site {sf.site!r}")
        if sf.kind == "breach":
            injector.security_breach(queues[sf.site], sf.at_hours,
                                     weeks=sf.duration_hours / (7.0 * 24.0))
        else:
            injector.hardware_failure(queues[sf.site], sf.at_hours,
                                      repair_hours=sf.duration_hours)
    for pf in scenario.partitions:
        injector.network_partition(resil, pf.grid, pf.at_hours,
                                   pf.duration_hours)
    if scenario.random_outages is not None:
        ro = scenario.random_outages
        injector.random_failures(list(queues.values()), ro.horizon_hours)

    network = _exercise_steering_link(scenario, seed, obs, injector)
    middleware = GridMiddleware()
    probes = _probe_middleware(scenario, middleware, obs)
    dlq_report = (None if scenario.permafail is None
                  else _exercise_permafail(scenario.permafail, seed, obs))

    manager = CampaignManager(federation, obs=obs, resil=resil)
    jobs = spice_batch_jobs(n_jobs=n_jobs)
    report = manager.run(jobs)

    detector = resil.detector
    breakers = resil.breakers
    recoveries: Dict[str, float] = {}
    dead_at: Dict[str, float] = {}
    for t, site, _old, new in detector.transitions:
        if new.value == "dead":
            dead_at[site] = t
        elif new.value == "alive" and site in dead_at:
            recoveries[site] = round(t - dead_at.pop(site), 4)
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "seed": int(seed),
        "n_jobs": int(n_jobs),
        "campaign": {
            "makespan_hours": round(report.makespan_hours, 4),
            "completed": len(report.completed),
            "unplaced": len(report.unplaced),
            "requeues": report.requeues,
            "mean_wait_hours": round(report.mean_wait_hours, 4),
            "per_resource_jobs": dict(sorted(
                report.per_resource_jobs.items())),
        },
        "faults_injected": [list(entry) for entry in injector.injected],
        "detector": {
            "transitions": [
                [round(t, 4), site, old.value, new.value]
                for t, site, old, new in detector.transitions
            ],
            "final_health": {s: detector.health(s).value
                             for s in detector.sites},
            "recovery_hours": dict(sorted(recoveries.items())),
        },
        "breakers": {
            "total_trips": breakers.total_trips,
            "trips": breakers.trip_counts(),
        },
        "network": network,
        "middleware": probes,
        "dlq": dlq_report,
    }


def render_chaos_report(result: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_chaos_scenario` result."""
    camp = result["campaign"]
    det = result["detector"]
    brk = result["breakers"]
    net = result["network"]
    lines = [
        f"chaos scenario : {result['scenario']} (seed {result['seed']})",
        f"  {result['description']}",
        "",
        f"campaign       : {camp['completed']}/{result['n_jobs']} jobs "
        f"completed, {camp['unplaced']} unplaced, "
        f"{camp['requeues']} requeues, "
        f"makespan {camp['makespan_hours']:.1f} h",
        "  per-site jobs : " + ", ".join(
            f"{site}={n}" for site, n in camp["per_resource_jobs"].items()),
        f"faults injected: {len(result['faults_injected'])}",
    ]
    for entry in result["faults_injected"]:
        target, at, duration, reason = entry
        lines.append(f"  - {reason}: {target} at {at:.1f} for {duration:.1f}")
    lines.append(
        f"detector       : {len(det['transitions'])} transitions")
    for t, site, old, new in det["transitions"]:
        lines.append(f"  - t={t:7.2f} h  {site}: {old} -> {new}")
    if det["recovery_hours"]:
        lines.append("  recovery      : " + ", ".join(
            f"{s}={h:.1f} h" for s, h in det["recovery_hours"].items()))
    lines.append(
        f"breakers       : {brk['total_trips']} trips"
        + ("" if not brk["trips"] else " (" + ", ".join(
            f"{s}x{n}" for s, n in sorted(brk["trips"].items())) + ")"))
    lines.append(
        f"steering link  : {net['delivered']}/{net['messages_sent']} "
        f"delivered, {net['dropped']} dropped, "
        f"{net['retransmissions']} retransmissions, "
        f"worst delay {net['worst_delay_s']:.3f} s")
    for probe in result["middleware"]:
        lines.append(
            f"middleware     : {probe['kind']}@{probe['site']} "
            f"({probe['phase']}) -> {probe['result']} "
            f"after {probe['attempts']} attempt(s)")
    dlq = result.get("dlq")
    if dlq:
        lines.append(
            f"dead letters   : {dlq['depth']} of {dlq['tasks']} streamed "
            f"tasks ({dlq['computed']} computed, {dlq['retries']} retries, "
            f"{len(dlq['completed_cells'])} cells completed)")
        for entry in dlq["entries"]:
            key = ",".join(str(part) for part in entry["task_key"][1:])
            lines.append(
                f"  - [{key}] {entry['reason']} after "
                f"{entry['attempts']} attempts: {entry['last_error']}")
    return "\n".join(lines)
