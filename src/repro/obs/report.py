"""Run-report assembly: one machine-readable document per campaign run.

:func:`campaign_run_report` merges the two sources of truth about a run —
the campaign *result* object (physics outcome, per-site job placement) and
the *observability handle* it was run under (queue-wait histograms, channel
stall totals, ensemble wall times) — into a plain nested dict, the
document ``python -m repro campaign --json`` and ``python -m repro report``
emit.  :func:`render_run_report` renders the same document as an aligned
ASCII table for humans.  The campaign service's ``service.*`` counters
are not part of it: they are served at ``GET /v1/metrics``.

The result object is duck-typed (anything with ``.batch.campaign`` and
``.summary()`` works) so this module never imports :mod:`repro.workflow`
— observability stays a leaf dependency.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional

from .handle import Obs, as_obs
from .metrics import Histogram

__all__ = ["campaign_run_report", "canonical_run_report",
           "render_run_report", "REPORT_SCHEMA"]

#: Version tag embedded in every report so downstream tooling can evolve.
REPORT_SCHEMA = "repro.obs.run_report/v1"

#: Report fields that legitimately differ between two runs computing the
#: same campaign — host wall-clock rates, and work-performed counters that
#: shrink when a resumed run serves tasks from the store.  Everything
#: *outside* these lists is content-determined and must be bit-identical
#: between an uninterrupted run and an interrupt-plus-resume run.
_VOLATILE_ROOT = ("generated_at", "elapsed_s")
_VOLATILE_PHYSICS = ("je_samples", "sim_ns", "ensemble_wall_s",
                     "je_samples_per_sec")
_VOLATILE_COST = ("smd_cpu_hours",)


def _site_wait_stats(obs: Obs, campaign) -> Dict[str, dict]:
    """Queue-wait summary per site: the obs histogram when the run was
    instrumented end-to-end, else recomputed from completed jobs."""
    out: Dict[str, dict] = {}
    for inst in obs.metrics.matching("grid.queue_wait_hours"):
        if isinstance(inst, Histogram) and inst.name != "grid.queue_wait_hours":
            site = inst.name[len("grid.queue_wait_hours") + 1:]
            out[site] = inst.summary()
    if out:
        return out
    per_site: Dict[str, List[float]] = {}
    for job in campaign.completed:
        if job.wait_hours is not None:
            per_site.setdefault(job.resource or "?", []).append(job.wait_hours)
    for site, waits in per_site.items():
        h = Histogram(site)
        for w in waits:
            h.observe(w)
        out[site] = h.summary()
    return out


def _channel_stats(obs: Obs) -> Dict[str, dict]:
    """Per-channel transport stats from the ``net.*`` metric families.

    Channel names may themselves be dotted (``imd.down``), so the family
    prefix is stripped rather than splitting on the last dot.
    """
    channels: Dict[str, dict] = {}
    families = [("net.messages", "messages"),
                ("net.retransmissions", "retransmissions"),
                ("net.stall_s", "stall_s")]
    for prefix, key in families:
        for inst in obs.metrics.matching(prefix):
            if inst.name == prefix:
                continue
            name = inst.name[len(prefix) + 1:]
            channels.setdefault(name, {})[key] = inst.value
    for inst in obs.metrics.matching("net.delay_s"):
        if isinstance(inst, Histogram) and inst.name != "net.delay_s":
            name = inst.name[len("net.delay_s") + 1:]
            channels.setdefault(name, {})["delay_s"] = inst.summary()
    return channels


def _counter_value(obs: Obs, name: str) -> float:
    return obs.metrics.counter(name).value if name in obs.metrics else 0.0


def _family_values(obs: Obs, prefix: str) -> Dict[str, Any]:
    """Scrape one ``resil.*`` metric family into ``{suffix: value}``:
    counters contribute their value, histograms their summary dict."""
    out: Dict[str, Any] = {}
    for inst in obs.metrics.matching(prefix):
        if inst.name == prefix:
            continue
        suffix = inst.name[len(prefix) + 1:]
        if isinstance(inst, Histogram):
            out[suffix] = inst.summary()
        else:
            out[suffix] = inst.value
    return dict(sorted(out.items()))


def _resil_stats(obs: Obs) -> Dict[str, Any]:
    """Resilience section: detector transitions/recoveries, breaker trips,
    retry attempt histograms and exhaustion counters.  Empty families are
    omitted so un-instrumented / fault-free runs stay compact."""
    section: Dict[str, Any] = {}
    families = {
        "detector_transitions": "resil.detector.transitions",
        "recovery_hours": "resil.detector.recovery_hours",
        "breaker_trips": "resil.breaker.trips",
        "retry_attempts": "resil.retry.attempts",
        "retry_exhausted": "resil.retry.exhausted",
        "dlq": "resil.dlq",
    }
    for key, prefix in families.items():
        values = _family_values(obs, prefix)
        if values:
            section[key] = values
    return section


def campaign_run_report(result, obs: Optional[Obs] = None, store=None,
                        dlq=None, **extra: Any) -> dict:
    """Build the run report for a completed SPICE campaign.

    Parameters
    ----------
    result:
        A campaign result exposing ``.summary()`` and ``.batch.campaign``
        (a :class:`~repro.grid.federation.CampaignReport`).
    obs:
        The handle the run was instrumented with; ``None`` degrades
        gracefully to whatever the result object alone can supply.
    store:
        Optional result store the campaign ran against (duck-typed:
        ``len()``, ``content_digest()``, ``stats()``).  Contributes a
        ``store`` section: record count and content digest are determined
        purely by the completed work (so they survive
        :func:`canonical_run_report`), while the hit/miss ``traffic``
        counters describe *this* run and are canonically volatile.
    dlq:
        Optional :class:`~repro.resil.DeadLetterQueue`.  Contributes a
        ``dlq`` section: depth, reasons and task keys are determined by
        the terminal failures (canonical — two same-seed degraded runs
        agree byte for byte), while the ``redeliveries`` counter is
        per-run and canonically volatile.
    extra:
        Caller context merged into the document root (command, seed, ...).
    """
    obs = as_obs(obs)
    campaign = result.batch.campaign
    summary = result.summary()

    sites: Dict[str, dict] = {}
    wait_stats = _site_wait_stats(obs, campaign)
    for site, util in sorted(campaign.per_resource_utilization.items()):
        sites[site] = {
            "jobs_completed": campaign.per_resource_jobs.get(site, 0),
            "utilization": util,
            "queue_wait_hours": wait_stats.get(site, Histogram(site).summary()),
        }

    ensemble_wall_s = obs.tracer.total_duration("smd.ensemble")
    je_samples = _counter_value(obs, "smd.je_samples")
    physics = {
        "je_samples": je_samples,
        "sim_ns": _counter_value(obs, "smd.sim_ns"),
        "ensemble_wall_s": ensemble_wall_s,
        "je_samples_per_sec": (
            je_samples / ensemble_wall_s if ensemble_wall_s > 0 else None
        ),
        "optimal_kappa_pn": summary.get("optimal_kappa_pn"),
        "optimal_velocity": summary.get("optimal_velocity"),
    }

    cost = {
        "campaign_cpu_hours": campaign.total_cpu_hours,
        "smd_cpu_hours": _counter_value(obs, "smd.cpu_hours"),
        "makespan_hours": campaign.makespan_hours,
        "wall_clock_days": summary.get("campaign_days"),
        "mean_wait_hours": campaign.mean_wait_hours,
        "requeues": campaign.requeues,
        "jobs": summary.get("n_jobs"),
        "unplaced_jobs": len(campaign.unplaced),
        "dead_lettered_jobs": len(getattr(campaign, "dead_lettered", ())),
        "des_events": _counter_value(obs, "des.events"),
    }

    report = {
        "schema": REPORT_SCHEMA,
        **extra,
        "campaign": summary,
        "sites": sites,
        "network": {"channels": _channel_stats(obs)},
        "physics": physics,
        "cost": cost,
        "resilience": _resil_stats(obs),
    }
    if store is not None:
        report["store"] = {
            "records": len(store),
            "content_digest": store.content_digest(),
            "traffic": store.stats(),
        }
    if dlq is not None:
        report["dlq"] = dlq.summary()
    return report


def canonical_run_report(report: dict) -> dict:
    """The content-determined core of a run report.

    Strips the fields two equivalent runs may legitimately disagree on —
    wall-clock rates, work-performed counters, cache traffic — leaving a
    document that must be **bit-identical** between an uninterrupted
    campaign and the same campaign interrupted and resumed from its store.
    The resume tests serialize this with :func:`repro.store.canonical_json`
    and compare bytes.
    """
    out = copy.deepcopy(report)
    for key in _VOLATILE_ROOT:
        out.pop(key, None)
    if isinstance(out.get("physics"), dict):
        for key in _VOLATILE_PHYSICS:
            out["physics"].pop(key, None)
    if isinstance(out.get("cost"), dict):
        for key in _VOLATILE_COST:
            out["cost"].pop(key, None)
    if isinstance(out.get("store"), dict):
        out["store"].pop("traffic", None)
    if isinstance(out.get("dlq"), dict):
        # Redeliveries depend on when the run was interrupted; the DLQ
        # entries themselves are canonical.
        out["dlq"].pop("redeliveries", None)
    return out


def render_run_report(report: dict) -> str:
    """Aligned plain-text rendering of a run-report document."""
    lines: List[str] = []
    lines.append("SPICE run report")
    lines.append("================")

    lines.append("")
    lines.append("sites:")
    sites = report.get("sites", {})
    if sites:
        width = max(len(s) for s in sites)
        for site, row in sites.items():
            wait = row["queue_wait_hours"]
            lines.append(
                f"  {site:<{width}}  jobs {row['jobs_completed']:>3}  "
                f"util {row['utilization']:>5.2f}  "
                f"wait mean {wait['mean']:>6.2f} h  "
                f"p95 {wait['p95']:>6.2f} h  max {wait['max']:>6.2f} h"
            )
    else:
        lines.append("  (none)")

    channels = report.get("network", {}).get("channels", {})
    lines.append("")
    lines.append("network channels:")
    if channels:
        width = max(len(c) for c in channels)
        for name, row in channels.items():
            lines.append(
                f"  {name:<{width}}  messages {row.get('messages', 0):>6.0f}  "
                f"retransmissions {row.get('retransmissions', 0):>4.0f}  "
                f"stall {row.get('stall_s', 0.0):>8.3f} s"
            )
    else:
        lines.append("  (none)")

    physics = report.get("physics", {})
    lines.append("")
    lines.append("physics:")
    rate = physics.get("je_samples_per_sec")
    rate_txt = f"{rate:.1f} samples/s" if rate else "n/a"
    lines.append(
        f"  JE samples {physics.get('je_samples', 0):.0f}  "
        f"({rate_txt}, {physics.get('ensemble_wall_s', 0.0):.2f} s ensemble wall)"
    )
    if physics.get("optimal_kappa_pn") is not None:
        lines.append(
            f"  optimal kappa {physics['optimal_kappa_pn']:g} pN/A, "
            f"v {physics['optimal_velocity']:g} A/ns"
        )

    cost = report.get("cost", {})
    lines.append("")
    lines.append("cost:")
    lines.append(
        f"  {cost.get('jobs', 0)} jobs  "
        f"{cost.get('campaign_cpu_hours', 0.0):.0f} CPU-h  "
        f"makespan {cost.get('makespan_hours', 0.0):.1f} h  "
        f"mean wait {cost.get('mean_wait_hours', 0.0):.2f} h  "
        f"requeues {cost.get('requeues', 0):.0f}"
    )
    lines.append(
        f"  DES events {cost.get('des_events', 0):.0f}  "
        f"unplaced jobs {cost.get('unplaced_jobs', 0)}"
    )

    store = report.get("store")
    if store:
        lines.append("")
        lines.append("store:")
        lines.append(
            f"  {store.get('records', 0)} record(s)  "
            f"digest {str(store.get('content_digest', ''))[:16]}"
        )
        traffic = store.get("traffic", {})
        if traffic:
            lines.append(
                f"  hits {traffic.get('hits', 0)}  "
                f"misses {traffic.get('misses', 0)}  "
                f"writes {traffic.get('writes', 0)}  "
                f"corrupt evicted {traffic.get('corrupt_evicted', 0)}"
            )

    resilience = report.get("resilience", {})
    if resilience:
        lines.append("")
        lines.append("resilience:")
        transitions = resilience.get("detector_transitions", {})
        if transitions:
            lines.append("  detector transitions: " + ", ".join(
                f"{site}={int(n)}" for site, n in transitions.items()))
        recoveries = resilience.get("recovery_hours", {})
        for site, summary in recoveries.items():
            lines.append(
                f"  recovery {site}: mean {summary['mean']:.1f} h "
                f"over {summary['count']:.0f} outage(s)")
        trips = resilience.get("breaker_trips", {})
        if trips:
            lines.append("  breaker trips: " + ", ".join(
                f"{site}={int(n)}" for site, n in trips.items()))
        for op, summary in resilience.get("retry_attempts", {}).items():
            lines.append(
                f"  retries {op}: {summary['count']:.0f} calls, "
                f"mean {summary['mean']:.2f} attempts, "
                f"max {summary['max']:.0f}")
        exhausted = resilience.get("retry_exhausted", {})
        if exhausted:
            lines.append("  retry exhaustion: " + ", ".join(
                f"{op}={int(n)}" for op, n in exhausted.items()))

    dlq = report.get("dlq")
    if dlq is not None:
        lines.append("")
        lines.append("dead-letter queue:")
        if dlq.get("depth", 0):
            reasons = ", ".join(f"{r}={n}" for r, n
                                in sorted(dlq.get("reasons", {}).items()))
            lines.append(f"  {dlq['depth']} task(s) dead-lettered"
                         + (f" ({reasons})" if reasons else ""))
            for key in dlq.get("task_keys", []):
                lines.append("  - " + ",".join(str(p) for p in key))
        else:
            lines.append("  empty (campaign completed undegraded)")
    return "\n".join(lines)
