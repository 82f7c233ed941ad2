"""Chaos-harness scenario tests (marked ``chaos``; CI sweeps seeds)."""

import json

import pytest

from repro.cli import main
from repro.grid import (
    CampaignManager,
    EventLoop,
    FederatedGrid,
    Grid,
    ngs_sites,
    spice_batch_jobs,
    teragrid_sites,
)
from repro.obs import Obs
from repro.resil import (
    SCENARIOS,
    ChaosScenario,
    Resilience,
    SiteFault,
    render_chaos_report,
    run_chaos_scenario,
)

pytestmark = pytest.mark.chaos


def build_federation(obs=None):
    loop = EventLoop(obs=obs)
    return FederatedGrid([
        Grid("TeraGrid", teragrid_sites(), loop, obs=obs),
        Grid("NGS", ngs_sites(), loop, obs=obs),
    ])


def fingerprint(report):
    """The behavioural identity of a campaign run (job ids excluded —
    the global job counter differs between builds)."""
    return {
        "makespan": report.makespan_hours,
        "per_site": dict(sorted(report.per_resource_jobs.items())),
        "utilization": {k: round(v, 12) for k, v in
                        sorted(report.per_resource_utilization.items())},
        "requeues": report.requeues,
        "mean_wait": report.mean_wait_hours,
        "unplaced": len(report.unplaced),
    }


class TestFaultFreeBitIdentity:
    def test_resil_bundle_matches_oracle_exactly(self):
        """Acceptance: detector + breakers + placement retry enabled, no
        faults injected -> the campaign is bit-identical to the oracle."""
        fed_a = build_federation()
        oracle = CampaignManager(fed_a).run(
            spice_batch_jobs(n_jobs=72))

        fed_b = build_federation()
        resil = Resilience.for_federation(fed_b)
        guarded = CampaignManager(fed_b, resil=resil).run(
            spice_batch_jobs(n_jobs=72))

        assert fingerprint(oracle) == fingerprint(guarded)

    def test_baseline_scenario_matches_oracle(self):
        fed = build_federation()
        oracle = CampaignManager(fed).run(
            spice_batch_jobs(n_jobs=72))
        base = run_chaos_scenario(SCENARIOS["baseline"], seed=2005)
        assert base["campaign"]["completed"] == len(oracle.completed)
        assert base["campaign"]["requeues"] == oracle.requeues
        assert base["campaign"]["per_resource_jobs"] == dict(
            sorted(oracle.per_resource_jobs.items()))
        assert base["campaign"]["makespan_hours"] == round(
            oracle.makespan_hours, 4)
        assert base["breakers"]["total_trips"] == 0
        assert base["detector"]["transitions"] == []


class TestBreachPartitionScenario:
    def test_all_jobs_complete_under_full_chaos(self, chaos_seed):
        """Acceptance: breach + hardware failure + partition + link and
        middleware faults -> every one of the 72 jobs still completes,
        and the resilience machinery visibly engaged."""
        obs = Obs()
        result = run_chaos_scenario(SCENARIOS["breach-partition"],
                                    seed=chaos_seed, obs=obs)
        camp = result["campaign"]
        assert camp["completed"] == 72
        assert camp["unplaced"] == 0
        assert camp["requeues"] > 0
        # Detector saw the breach and the hardware failure.
        dead_sites = {site for _t, site, _o, new
                      in result["detector"]["transitions"] if new == "dead"}
        assert {"NGS-Manchester", "NCSA"} <= dead_sites
        # NCSA recovered; its time-to-recovery is on record.
        assert "NCSA" in result["detector"]["recovery_hours"]
        # Breakers tripped at the killing sites.
        assert result["breakers"]["total_trips"] >= 1
        # Steering link: the flap dropped messages, retries recovered some.
        assert result["network"]["dropped"] > 0
        assert result["network"]["delivered"] > 60
        assert result["network"]["retransmissions"] > 0
        # Middleware: the long auth fault exhausted, recovery succeeded.
        outcomes = {(p["site"], p["kind"], p["phase"]): p["result"]
                    for p in result["middleware"]}
        assert outcomes[("NGS-Leeds", "auth", "during")] == "exhausted"
        assert outcomes[("NGS-Leeds", "auth", "after")] == "ok"

    def test_obs_run_metrics_cover_the_resil_families(self, chaos_seed):
        obs = Obs()
        run_chaos_scenario(SCENARIOS["breach-partition"], seed=chaos_seed,
                           obs=obs)
        names = {inst.name for inst in
                 obs.metrics.matching("resil")}
        assert any(n.startswith("resil.detector.transitions.") for n in names)
        assert any(n.startswith("resil.breaker.trips.") for n in names)
        assert any(n.startswith("resil.retry.attempts.") for n in names)

    def test_same_seed_is_bit_identical(self, chaos_seed):
        a = run_chaos_scenario(SCENARIOS["breach-partition"],
                               seed=chaos_seed)
        b = run_chaos_scenario(SCENARIOS["breach-partition"],
                               seed=chaos_seed)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_render_report_mentions_the_headlines(self, chaos_seed):
        result = run_chaos_scenario(SCENARIOS["breach-partition"],
                                    seed=chaos_seed)
        text = render_chaos_report(result)
        assert "breach-partition" in text
        assert "72/72 jobs" in text
        assert "security breach" in text
        assert "NGS-Manchester" in text
        assert "breakers" in text


class TestOtherScenarios:
    def test_breach_scenario_routes_around_the_uk_node(self, chaos_seed):
        result = run_chaos_scenario(SCENARIOS["breach"], seed=chaos_seed)
        assert result["campaign"]["completed"] == 72
        assert result["detector"]["final_health"]["NGS-Manchester"] in (
            "dead", "alive")
        assert any(reason == "security breach"
                   for _s, _a, _d, reason in result["faults_injected"])

    def test_cascade_scenario_completes(self, chaos_seed):
        result = run_chaos_scenario(SCENARIOS["cascade"], seed=chaos_seed)
        assert result["campaign"]["completed"] == 72
        assert len(result["faults_injected"]) > 1

    def test_unknown_site_rejected(self):
        bad = ChaosScenario(
            name="bad", description="",
            site_faults=(SiteFault("NOWHERE", 1.0, 2.0),))
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            run_chaos_scenario(bad)


class TestChaosCli:
    def test_cli_json_roundtrip(self, capsys, chaos_seed):
        rc = main(["chaos", "--scenario", "baseline", "--jobs", "12",
                   "--json", "--seed", str(chaos_seed)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "baseline"
        assert doc["campaign"]["completed"] == 12

    def test_cli_text_default_scenario(self, capsys):
        rc = main(["chaos", "--jobs", "12"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos scenario : breach-partition" in out

    def test_cli_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["chaos", "--scenario", "nope"])
        assert ei.value.code == 2
