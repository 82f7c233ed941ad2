"""EXP-REDUND — the single-point-of-failure lesson (Section V-C4).

"for a duration close to SC05, the number of UK resources whose utilization
could be coordinated with the US TeraGrid nodes was reduced to one.  As luck
would have it there was then a security breach on that one UK node.  It took
several weeks to sanitize that node."

Regenerated: a UK-constrained sub-campaign with a security breach on the
sole usable UK node, with and without redundant UK capacity.
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
)

from conftest import once


def run_scenario(n_uk_lightpath_sites):
    """Jobs that must run on UK lightpath-equipped nodes (the cross-site
    coordinated work), with a breach on UK-LP-0 one hour in."""
    loop = EventLoop()
    sites = [
        ComputeResource(f"UK-LP-{i}", "NGS", 256, lightpath=True,
                        background_load=0.0)
        for i in range(n_uk_lightpath_sites)
    ]
    fed = FederatedGrid([Grid("NGS", sites, loop)])
    mgr = CampaignManager(fed)
    FailureInjector(seed=0).security_breach(
        fed.all_queues()["UK-LP-0"], at_hours=1.0, weeks=3.0)
    jobs = [Job(f"coordinated-{i}", 128, 6.0, steering_required=True)
            for i in range(10)]
    return mgr.run(jobs)


def test_redundancy(benchmark, emit):
    def workload():
        return {
            "1 usable UK node (SC05 situation)": run_scenario(1),
            "2 usable UK nodes": run_scenario(2),
            "3 usable UK nodes": run_scenario(3),
        }

    reports = once(benchmark, workload)
    table = Table("Security breach on the sole coordinated UK node",
                  ["configuration", "jobs_done", "time_to_solution_days",
                   "requeues"])
    for label, rep in reports.items():
        table.add_row(label, len(rep.completed), rep.makespan_hours / 24.0,
                      rep.requeues)
    notes = ["", "paper: 'It took several weeks to sanitize that node, during",
             "which there was no UK node that could be used' — redundancy",
             "collapses weeks of stall into hours."]
    emit("redundancy", table.formatted("{:.2f}") + "\n" + "\n".join(notes),
         csv=table.to_csv())

    single = reports["1 usable UK node (SC05 situation)"]
    dual = reports["2 usable UK nodes"]
    assert single.all_completed and dual.all_completed
    assert single.makespan_hours > 3 * 7 * 24 * 0.9   # ~the breach duration
    assert dual.makespan_hours < 7 * 24                # absorbed by redundancy
