"""Tests for the three-phase SPICE workflow."""

import pytest

from repro.errors import ConfigurationError
from repro.workflow import (
    BatchPhase,
    InteractivePhase,
    SpiceCampaign,
    StaticVizPhase,
    build_default_federation,
)


class TestStaticVizPhase:
    def test_window_centred_on_constriction(self):
        insight = StaticVizPhase().run()
        lo, hi = insight.suggested_window
        assert hi - lo == pytest.approx(10.0)
        assert abs(insight.constriction_z - 0.5 * (lo + hi)) < 0.5

    def test_structure_summary(self):
        insight = StaticVizPhase().run()
        assert insight.pore_summary["symmetry_order"] == 7
        z, r = insight.radius_profile
        assert z.shape == r.shape


class TestInteractivePhase:
    def test_kappa_candidates_are_paper_decades(self):
        insight = InteractivePhase(seed=1).run()
        assert insight.kappa_candidates == (10.0, 100.0, 1000.0)

    def test_haptic_forces_recorded(self):
        insight = InteractivePhase(seed=2).run()
        assert insight.felt_force_range[1] > 0

    def test_velocity_candidates(self):
        insight = InteractivePhase(seed=3).run()
        assert 12.5 in insight.velocity_candidates


class TestBatchPhase:
    def test_72_jobs_default_shape(self):
        phase = BatchPhase(build_default_federation())
        assert phase.n_jobs == 72

    def test_run_produces_study_and_campaign(self):
        phase = BatchPhase(
            build_default_federation(),
            kappas=(100.0,),
            velocities=(25.0, 50.0),
            replicas_per_cell=2,
            seed=4,
        )
        result = phase.run()
        assert len(result.jobs) == 4
        assert result.campaign.all_completed
        assert set(result.study.estimates) == {(100.0, 25.0), (100.0, 50.0)}
        assert result.wall_clock_days > 0

    def test_job_cost_consistency(self):
        phase = BatchPhase(
            build_default_federation(),
            kappas=(100.0,), velocities=(12.5,),
            replicas_per_cell=2, seed=5,
        )
        result = phase.run()
        job = result.jobs[0]
        # One 0.8 ns pull + 0.05 ns equilibration at 3072 CPU-h/ns.
        assert job.cpu_hours == pytest.approx(0.85 * 3072.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchPhase(build_default_federation(), replicas_per_cell=0)
        phase = BatchPhase(build_default_federation(), window=(5.0, 5.0))
        with pytest.raises(ConfigurationError):
            phase.run()


class TestSpiceCampaign:
    def test_end_to_end_defaults(self):
        result = SpiceCampaign(seed=2005).run()
        s = result.summary()
        # The paper's production: 72 jobs, under a week, ~75k CPU-h scale.
        assert s["n_jobs"] == 72
        assert s["campaign_days"] < 7.0
        assert 40_000 < s["campaign_cpu_hours"] < 200_000
        # kappa=100 is selected (v can fluctuate at 6 samples/cell).
        assert s["optimal_kappa_pn"] == 100.0
        assert s["kappa_candidates"] == (10.0, 100.0, 1000.0)

    def test_pmf_accessor(self):
        result = SpiceCampaign(replicas_per_cell=4, seed=7).run()
        pmf = result.pmf
        assert pmf.values[0] == 0.0
        assert pmf.values[-1] < 0  # downhill translocation
