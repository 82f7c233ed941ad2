"""ABL-INFRA — ablations of the infrastructure design choices DESIGN.md
calls out: the IMD flow-control window, EASY backfill, and requeue-on-outage.

Each isolates one mechanism and shows what the paper's experience would have
looked like without it.
"""

from repro.analysis import Table
from repro.grid import (
    CampaignManager,
    ComputeResource,
    EventLoop,
    FailureInjector,
    FederatedGrid,
    Grid,
    Job,
    ngs_sites,
    spice_batch_jobs,
    teragrid_sites,
)
from repro.imd import IMDSession
from repro.net import PRODUCTION_INTERNET
from repro.pore import build_translocation_simulation

from conftest import once


def test_imd_window_ablation(benchmark, emit):
    """Flow-control window vs stall on the production internet: window 1 is
    synchronous (worst), large windows hide jitter but loosen coupling."""
    windows = (1, 2, 4, 8)

    def workload():
        rows = []
        for w in windows:
            session = IMDSession(
                build_translocation_simulation(n_bases=6, seed=42),
                PRODUCTION_INTERNET, window=w, seed=3, user_seed=7)
            rep = session.run(80)
            rows.append((w, rep.slowdown, rep.stall_fraction, rep.fps))
        return rows

    rows = once(benchmark, workload)
    table = Table("IMD flow-control window ablation (production internet)",
                  ["window_frames", "slowdown", "stall_fraction", "fps"])
    for r in rows:
        table.add_row(*r)
    emit("ablation_imd_window", table.formatted("{:.3f}"), csv=table.to_csv())

    slow = {r[0]: r[1] for r in rows}
    assert slow[1] > slow[2] >= slow[8]


def test_backfill_ablation(benchmark, emit):
    """EASY backfill vs strict FCFS on a mixed-width job stream."""

    def makespan(backfill: bool):
        loop = EventLoop()
        q_resource = ComputeResource("X", "G", 512)
        from repro.grid import BatchQueue

        q = BatchQueue(q_resource, loop)
        if not backfill:
            # Disable backfill by monkey-hiding the candidate scan: submit
            # through a strict-FCFS shim that only dispatches the head.
            original = q._dispatch

            def fcfs_only():
                if q.down:
                    return
                while q.waiting and q._can_start(q.waiting[0]):
                    q._start(q.waiting.pop(0))

            q._dispatch = fcfs_only
        # Stream: wide long jobs interleaved with narrow short ones.
        jobs = []
        for i in range(12):
            jobs.append(Job(f"wide-{i}", 512, 4.0))
            jobs.append(Job(f"narrow-{i}", 64, 1.0))
        for j in jobs:
            q.submit(j)
        loop.run()
        return max(j.end_time for j in jobs), jobs

    def workload():
        with_bf, _ = makespan(True)
        without_bf, _ = makespan(False)
        return with_bf, without_bf

    with_bf, without_bf = once(benchmark, workload)
    table = Table("EASY backfill ablation (512-proc machine, mixed stream)",
                  ["scheduler", "makespan_hours"])
    table.add_row("FCFS + EASY backfill", with_bf)
    table.add_row("strict FCFS", without_bf)
    emit("ablation_backfill", table.formatted("{:.2f}"), csv=table.to_csv())
    assert with_bf <= without_bf


def test_requeue_ablation(benchmark, emit):
    """Automatic requeue-on-outage vs letting killed jobs die: without the
    campaign manager's monitor, the SC05 breach strands a third of the run."""

    def run(requeue: bool):
        loop = EventLoop()
        fed = FederatedGrid([
            Grid("TeraGrid", teragrid_sites(), loop),
            Grid("NGS", ngs_sites(), loop),
        ])
        mgr = CampaignManager(fed)
        jobs = spice_batch_jobs(n_jobs=36)
        FailureInjector(seed=2).security_breach(
            fed.all_queues()["PSC"], at_hours=2.0, weeks=2.0)
        if requeue:
            report = mgr.run(jobs)
            done = len(report.completed)
            makespan = report.makespan_hours
        else:
            # Manual path: place everything, run, never resubmit.
            for j in jobs:
                mgr.place(j)
            loop.run()
            from repro.grid import JobState

            done = sum(j.state is JobState.COMPLETED for j in jobs)
            makespan = max((j.end_time or 0.0) for j in jobs)
        return done, makespan

    def workload():
        return run(True), run(False)

    (done_rq, mk_rq), (done_no, mk_no) = once(benchmark, workload)
    table = Table("Requeue-on-outage ablation (PSC breach at t=2h)",
                  ["policy", "jobs_completed", "makespan_hours"])
    table.add_row("automatic requeue", done_rq, mk_rq)
    table.add_row("no requeue", done_no, mk_no)
    emit("ablation_requeue", table.formatted("{:.2f}"), csv=table.to_csv())

    assert done_rq == 36
    assert done_no < 36
