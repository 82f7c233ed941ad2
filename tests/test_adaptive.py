"""Adaptive replica-allocation controller: determinism and apportionment.

The controller's contract is three-fold: (a) the replica budget is
apportioned deterministically from the pilot diagnostic (largest-
remainder over sqrt-MSE weights, in 2-replica task units), (b) the final
PMF is *bit-identical* to the per-task scalar oracle and with or without a
result store (same task descriptors, same seed streams, same merge order),
and (c) misconfiguration fails loudly before any replica runs.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import Obs
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.rng import stream_for
from repro.smd import PullingProtocol, run_pulling_ensemble
from repro.store import ResultStore
from repro.workflow import allocate_largest_remainder, run_adaptive_campaign

pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture(scope="module")
def model():
    return ReducedTranslocationModel(default_reduced_potential())


@pytest.fixture(scope="module")
def protocol():
    return PullingProtocol(kappa_pn=400.0, velocity=50.0, distance=8.0,
                           start_z=-5.0)


CAMPAIGN = dict(n_bins=4, total_replicas=32, pilot_per_bin=4, seed=7,
                n_records=11)


@pytest.fixture(scope="module")
def baseline(model, protocol):
    return run_adaptive_campaign(model, protocol, **CAMPAIGN)


class TestLargestRemainder:
    def test_exact_total_and_proportionality(self):
        out = allocate_largest_remainder([3.0, 1.0], 8)
        assert out == [6, 2]

    def test_remainders_break_ties_to_lower_index(self):
        out = allocate_largest_remainder([1.0, 1.0, 1.0], 4)
        assert out == [2, 1, 1]

    def test_all_zero_weights_round_robin(self):
        assert allocate_largest_remainder([0.0, 0.0, 0.0], 5) == [2, 2, 1]

    def test_zero_total(self):
        assert allocate_largest_remainder([1.0, 2.0], 0) == [0, 0]

    def test_sum_is_always_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            weights = rng.random(n).tolist()
            total = int(rng.integers(0, 40))
            out = allocate_largest_remainder(weights, total)
            assert sum(out) == total
            assert all(v >= 0 for v in out)


class TestAdaptiveDeterminism:
    def test_rerun_is_bit_identical(self, model, protocol, baseline):
        again = run_adaptive_campaign(model, protocol, **CAMPAIGN)
        assert baseline.digest() == again.digest()

    def test_batched_kernel_is_bit_identical(self, model, baseline):
        """Every window's stacked pilot + refine rounds equal one scalar
        oracle call per 2-replica task."""
        for b, merged in baseline.results.items():
            tasks = [
                run_pulling_ensemble(
                    model, merged.protocol, 2, kernel="reference",
                    n_records=CAMPAIGN["n_records"], seed=stream_for(
                        CAMPAIGN["seed"], "adaptive", "bin", b, "task", t))
                for t in range(merged.n_samples // 2)]
            np.testing.assert_array_equal(
                merged.works, np.concatenate([e.works for e in tasks]))
            np.testing.assert_array_equal(
                merged.positions, np.concatenate([e.positions for e in tasks]))

    def test_store_is_bit_neutral(self, model, protocol, baseline,
                                  tmp_path):
        """No store, a cold store and a warm store give the same bits."""
        store = ResultStore(tmp_path / "store")
        n_tasks = CAMPAIGN["total_replicas"] // 2
        for stage, hits in (("cold", 0), ("warm", n_tasks)):
            report = run_adaptive_campaign(model, protocol, store=store,
                                           **CAMPAIGN)
            assert baseline.digest() == report.digest(), stage
            assert store.hits == hits and store.writes == n_tasks, stage

    def test_each_round_is_one_engine_call(self, model, protocol, baseline):
        """Pilot and refine are one plan each: two stacked calls over the
        bins, not one per bin per round."""
        obs = Obs()
        report = run_adaptive_campaign(model, protocol, obs=obs, **CAMPAIGN)
        assert report.digest() == baseline.digest()
        spans = obs.tracer.named("smd.ensemble")
        assert [s.attrs["n_cells"] for s in spans] == [4, 4]
        assert [s.attrs["n_samples"] for s in spans] == [
            16, CAMPAIGN["total_replicas"] - 16]

    def test_allocation_is_deterministic(self, model, protocol, baseline):
        again = run_adaptive_campaign(model, protocol, **CAMPAIGN)
        assert baseline.allocations() == again.allocations()
        assert [b.score for b in baseline.bins] == \
            [b.score for b in again.bins]


class TestAdaptiveAccounting:
    def test_budget_is_spent_exactly(self, baseline):
        assert sum(baseline.allocations()) == CAMPAIGN["total_replicas"]
        for rep, bin_ in zip(baseline.allocations(), baseline.bins):
            assert rep == bin_.total == bin_.pilot + bin_.extra
            assert baseline.results[bin_.index].n_samples == rep

    def test_pool_follows_the_diagnostic(self, baseline):
        """Extras are ordered like the scores: no bin with a strictly
        larger MSE receives fewer extra replicas (ties aside)."""
        scores = [b.score for b in baseline.bins]
        extras = [b.extra for b in baseline.bins]
        for i in range(len(scores)):
            for j in range(len(scores)):
                if scores[i] > scores[j]:
                    assert extras[i] >= extras[j] - 2  # one-task quantum

    def test_report_surface(self, baseline, model):
        assert baseline.z.shape == baseline.pmf.shape
        assert baseline.pmf[0] == 0.0
        assert baseline.total_replicas == CAMPAIGN["total_replicas"]
        assert baseline.cpu_hours > 0.0
        ref = model.reference_pmf(baseline.z)
        rms = float(np.sqrt(np.mean((baseline.pmf - ref) ** 2)))
        assert baseline.rms_error == pytest.approx(rms)


class TestAdaptiveValidation:
    def test_budget_below_pilot_rejected(self, model, protocol):
        with pytest.raises(ConfigurationError, match="cannot cover"):
            run_adaptive_campaign(model, protocol, n_bins=4,
                                  total_replicas=8, pilot_per_bin=4)

    def test_granularity_mismatch_rejected(self, model, protocol):
        with pytest.raises(ConfigurationError, match="samples_per_task"):
            run_adaptive_campaign(model, protocol, n_bins=2,
                                  total_replicas=17, pilot_per_bin=4)

    def test_reverse_protocol_rejected(self, model, protocol):
        with pytest.raises(ConfigurationError, match="forward"):
            run_adaptive_campaign(model, protocol.reversed(), **CAMPAIGN)

    def test_small_pilot_rejected(self, model, protocol):
        with pytest.raises(ConfigurationError, match="pilot_per_bin"):
            run_adaptive_campaign(model, protocol, n_bins=4,
                                  total_replicas=32, pilot_per_bin=2)
