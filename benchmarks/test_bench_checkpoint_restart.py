"""ABL-CKPT — checkpoint-restart ablation for outage recovery.

RealityGrid's checkpointing is not just for V&V cloning (Section III): a
checkpointable application resumes after an outage instead of recomputing.
This ablation replays the Section V-C4 breach against a campaign of long
jobs with and without checkpoint-restart, and prices the checkpoint
*transfer* between sites with the migration cost model.
"""

from repro.analysis import Table
from repro.grid import (
    CampaignManager,
    CheckpointMigrator,
    ComputeResource,
    EventLoop,
    FailureInjector,
    FederatedGrid,
    Grid,
    Job,
    paper_checkpoint_bytes,
)
from repro.net import LIGHTPATH, PRODUCTION_INTERNET

from conftest import once


def run_campaign(checkpointable: bool):
    loop = EventLoop()
    fed = FederatedGrid([Grid("G", [
        ComputeResource("US-A", "TeraGrid", 512),
        ComputeResource("UK-B", "NGS", 512),
    ], loop)])
    mgr = CampaignManager(fed)
    jobs = [Job(f"long-{i}", 256, 24.0, checkpointable=checkpointable)
            for i in range(6)]
    # Breach hits US-A 20 hours in: long jobs are nearly done when killed.
    FailureInjector(seed=1).security_breach(fed.all_queues()["US-A"],
                                            at_hours=20.0, weeks=2.0)
    report = mgr.run(jobs)
    wasted = sum(
        j.requeues * j.duration_hours * (0.0 if checkpointable else 1.0)
        for j in report.completed
    )
    return report, wasted


def test_checkpoint_restart_ablation(benchmark, emit):
    def workload():
        return {
            "checkpoint-restart (ReG-enabled)": run_campaign(True),
            "restart from scratch": run_campaign(False),
        }

    results = once(benchmark, workload)
    table = Table("Outage recovery: checkpoint-restart vs full restart",
                  ["policy", "makespan_hours", "jobs_done"])
    for label, (rep, _w) in results.items():
        table.add_row(label, rep.makespan_hours, len(rep.completed))

    # Price the checkpoint transfer itself (Section V-C2's networks).
    size = paper_checkpoint_bytes()
    xfer_rows = []
    for net_label, qos in [("lightpath", LIGHTPATH),
                           ("production internet", PRODUCTION_INTERNET)]:
        m = CheckpointMigrator(qos)
        xfer_rows.append((net_label, m.transfer_hours(size) * 3600.0))
    xfer = Table("Checkpoint transfer cost (300k-atom state, ~16 MB)",
                 ["network", "transfer_seconds"])
    for r in xfer_rows:
        xfer.add_row(*r)

    emit("ablation_checkpoint_restart",
         table.formatted("{:.2f}") + "\n\n" + xfer.formatted("{:.2f}"),
         csv=table.to_csv())

    ck = results["checkpoint-restart (ReG-enabled)"][0]
    scratch = results["restart from scratch"][0]
    assert ck.all_completed and scratch.all_completed
    assert ck.makespan_hours < scratch.makespan_hours
    # Transfer is seconds on either network: never the bottleneck.
    assert all(seconds < 60.0 for _, seconds in xfer_rows)
