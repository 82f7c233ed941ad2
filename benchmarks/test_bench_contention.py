"""ABL-CONTENTION — contention-model ablation for the batch campaign.

The Fig. 5 benchmark models other users as a deterministic capacity
reduction.  This ablation compares three contention models for the same
72-job campaign:

1. idle machines (no other users at all),
2. the capacity-shave default,
3. explicit Poisson background jobs on warmed-up (one week of prior load)
   queues at ~80 % utilization.

Finding: all three finish in ~a day — the campaign's 128/256-proc jobs are
small against the ~6000-processor federation, so queue physics cannot
stretch it to the paper's "just under a week".  The residual gap is
operational (manual submission, reservations, human coordination — the
Section V-C3 story), not scheduling.
"""

from repro.analysis import Table
from repro.grid import (
    BackgroundWorkload,
    CampaignManager,
    ComputeResource,
    EventLoop,
    FederatedGrid,
    Grid,
    ngs_sites,
    spice_batch_jobs,
    teragrid_sites,
)

from conftest import once

WARMUP_HOURS = 168.0


def full_capacity_sites():
    """Fig. 5 sites with the capacity shave removed."""
    def strip(r: ComputeResource) -> ComputeResource:
        return ComputeResource(r.name, r.grid, r.total_procs, speed=r.speed,
                               hidden_ip=r.hidden_ip, has_gateway=r.has_gateway,
                               lightpath=r.lightpath, background_load=0.0)

    return [strip(r) for r in teragrid_sites()], [strip(r) for r in ngs_sites()]


def run_campaign(model: str, seed: int = 0):
    loop = EventLoop()
    if model == "shave":
        fed = FederatedGrid([
            Grid("TeraGrid", teragrid_sites(), loop),
            Grid("NGS", ngs_sites(), loop),
        ])
        warmup = 0.0
    else:
        tera, ngs = full_capacity_sites()
        fed = FederatedGrid([Grid("TeraGrid", tera, loop), Grid("NGS", ngs, loop)])
        warmup = 0.0
        if model == "explicit":
            for i, (name, q) in enumerate(fed.all_queues().items()):
                target = 0.8 if q.resource.grid == "TeraGrid" else 0.7
                BackgroundWorkload(target_utilization=target).inject(
                    q, horizon_hours=35 * 24.0, seed=seed + i)
            loop.run(until=WARMUP_HOURS)
            warmup = WARMUP_HOURS
    mgr = CampaignManager(fed)
    report = mgr.run(spice_batch_jobs(n_jobs=72))
    return report, warmup


def test_contention_model_ablation(benchmark, emit):
    def workload():
        return {
            "idle machines": run_campaign("idle"),
            "capacity-shave model (default)": run_campaign("shave"),
            "explicit background jobs (80% busy, warmed)": run_campaign(
                "explicit", seed=100),
        }

    results = once(benchmark, workload)
    table = Table("Contention-model ablation: 72-job campaign",
                  ["model", "makespan_days", "mean_wait_h", "jobs_done"])
    rows = {}
    for label, (rep, warmup) in results.items():
        days = (rep.makespan_hours - warmup) / 24.0
        rows[label] = (days, rep.mean_wait_hours, len(rep.completed))
        table.add_row(label, *rows[label])
    notes = ["",
             "finding: every contention model finishes in ~a day — the",
             "campaign's 128/256-proc jobs are small against the ~6000-proc",
             "federation, so the paper's 'just under a week' is operational",
             "overhead (manual submission, reservations, Section V-C3), not",
             "queue physics."]
    emit("ablation_contention", table.formatted("{:.2f}") + "\n"
         + "\n".join(notes), csv=table.to_csv())

    idle = rows["idle machines"][0]
    explicit = rows["explicit background jobs (80% busy, warmed)"][0]
    assert all(r[2] == 72 for r in rows.values())
    assert explicit >= idle            # contention never speeds things up
    assert all(r[0] < 7.0 for r in rows.values())  # the paper claim holds
