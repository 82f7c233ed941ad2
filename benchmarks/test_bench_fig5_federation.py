"""FIG5 + EXP-BATCH — the federated US-UK grid and the 72-job campaign.

Fig. 5's checkable content: the federation's composition (TeraGrid subset
NCSA/SDSC/PSC + the NGS nodes) and the fact the production campaign — 72
parallel MD jobs on 128/256 processors, ~75,000 CPU-hours — completes "in
under a week" on the federation while being much slower (or infeasible) on
any single resource.
"""

import pytest

from repro.analysis import fig5_campaign_table
from repro.grid import (
    CampaignManager,
    EventLoop,
    FederatedGrid,
    Grid,
    ngs_sites,
    spice_batch_jobs,
    teragrid_sites,
)

from conftest import once


def run_campaign(site_groups, steering_required=True):
    loop = EventLoop()
    fed = FederatedGrid([Grid(name, sites, loop) for name, sites in site_groups])
    jobs = spice_batch_jobs(n_jobs=72)
    for j in jobs:
        j.steering_required = steering_required
    return CampaignManager(fed).run(jobs)


def test_fig5_batch_campaign(benchmark, emit):
    def workload():
        reports = {}
        reports["federation (TeraGrid+NGS)"] = run_campaign(
            [("TeraGrid", teragrid_sites()), ("NGS", ngs_sites())])
        reports["NCSA alone"] = run_campaign([("TeraGrid", [teragrid_sites()[0]])])
        reports["SDSC alone"] = run_campaign([("TeraGrid", [teragrid_sites()[1]])])
        reports["NGS alone"] = run_campaign([("NGS", ngs_sites())])
        return reports

    reports = once(benchmark, workload)
    table = fig5_campaign_table(reports)
    fed = reports["federation (TeraGrid+NGS)"]
    extra = [
        "",
        f"federation job placement: {fed.per_resource_jobs}",
        f"paper: 72 simulations, ~75,000 CPU-hours, 'in under a week'",
        f"measured: {len(fed.completed)} jobs, {fed.total_cpu_hours:.0f} CPU-h, "
        f"{fed.makespan_hours / 24:.2f} days",
    ]
    emit("fig5_campaign", table.formatted() + "\n" + "\n".join(extra),
         csv=table.to_csv())

    # --- paper claims ---
    assert fed.all_completed
    assert fed.total_cpu_hours == pytest.approx(75600.0)
    assert fed.makespan_hours < 7 * 24.0
    for label in ("NCSA alone", "SDSC alone", "NGS alone"):
        assert reports[label].makespan_hours > fed.makespan_hours
    # Interactive/steered jobs never land on HPCx (hidden IP, no UKLight).
    assert "HPCx" not in fed.per_resource_jobs
    # Cross-Atlantic: both grids contribute.
    us = {"NCSA", "SDSC", "PSC"} & set(fed.per_resource_jobs)
    uk = {r for r in fed.per_resource_jobs if r.startswith("NGS")}
    assert us and uk
