"""Estimator cross-validation: forward–reverse and parallel-pulling.

Two layers of evidence:

* **Synthetic Crooks-consistent work** — Gaussian work profiles built to
  satisfy the fluctuation theorem exactly (``W_F ~ N(dF + W_d, 2 kT W_d)``
  per station, reverse segment means ``-dF + W_d``), over an analytic
  double-well free-energy profile.  Here the truth is known to machine
  precision, so the harness can assert the *ordering* the second-
  generation estimators exist for: at identical replica budget the FR
  mean-work estimate beats the exponential (JE) estimate once dissipation
  is tens of kT, and parallel-pulling interpolates between JE (M = 1,
  bit-exact) and mean work (M = m).

* **Simulator consistency** — bidirectional pulls on the reduced model:
  FR and JE reconstruct the same trap-coordinate profile to within the
  shared smearing systematic, the diffusion profile is positive where
  defined, and mismatched pairs are rejected loudly.
"""

import numpy as np
import pytest

# The synthetic layer exercises the raw array estimators on bare work
# arrays; the simulator layer goes through the estimate_pmf front door.
from repro.core import (  # spice: noqa SPICE102
    default_group_size,
    estimate_pmf,
    exponential_estimator,
    forward_reverse_pmf,
    fr_estimator,
    parallel_pull_estimator,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.smd import PullingProtocol, WorkEnsemble, run_bidirectional_ensemble
from repro.units import KB

TEMPERATURE = 300.0
KT = KB * TEMPERATURE

#: Analytic double-well free-energy profile over g stations (kcal/mol).
#: Stations 0..g-1 map to z in [-1.5, 1.5]; wells at z = +-1.
G = 9
_Z = np.linspace(-1.5, 1.5, G)
TRUE_DF = 3.0 * (_Z**2 - 1.0) ** 2
TRUE_DF = TRUE_DF - TRUE_DF[0]


def crooks_pair(n_samples, dissipation_total, seed, g=G, true_df=TRUE_DF):
    """Synthetic Crooks-consistent forward/reverse work arrays.

    Dissipation grows linearly with travel (``W_d(i) = W_tot * i/(g-1)``),
    so the mirrored reverse cumulative profile reproduces the forward
    per-segment dissipation exactly under the FR index flip.  Station
    variances are ``2 kT W_d`` in both directions — the Gaussian work
    model in which the fluctuation theorem holds and FR is unbiased.
    """
    rng = np.random.default_rng(seed)
    frac = np.arange(g) / (g - 1)
    wd = dissipation_total * frac
    sigma = np.sqrt(2.0 * KT * wd)
    forward = true_df + wd + sigma * rng.standard_normal((n_samples, g))
    # Reverse cumulative profile after traveling s_j from the window top:
    # mean -(F_top - F_{g-1-j}) + W_tot * j/(g-1), same variance schedule.
    rev_mean = -(true_df[-1] - true_df[::-1]) + dissipation_total * frac
    rev_sigma = np.sqrt(2.0 * KT * dissipation_total * frac)
    reverse = rev_mean + rev_sigma * rng.standard_normal((n_samples, g))
    forward[:, 0] = 0.0
    reverse[:, 0] = 0.0
    return forward, reverse


def as_ensembles(forward, reverse):
    """Wrap synthetic work arrays as a mirror-symmetric ensemble pair."""
    proto = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=3.0,
                            start_z=-1.5)
    stations = np.linspace(0.0, proto.distance, forward.shape[1])
    return tuple(
        WorkEnsemble(protocol=p, displacements=stations, works=w,
                     positions=np.zeros_like(w), temperature=TEMPERATURE)
        for p, w in ((proto, forward), (proto.reversed(), reverse)))


class TestFREstimatorExactness:
    def test_recovers_means_exactly(self):
        """FR is pure mean arithmetic — zero-noise input gives the truth
        to machine precision."""
        forward, reverse = crooks_pair(1, 0.0, seed=0)
        out = fr_estimator(forward, TEMPERATURE, reverse_works=reverse)
        np.testing.assert_allclose(out, TRUE_DF, rtol=0.0, atol=1e-12)

    def test_zero_at_first_station(self):
        forward, reverse = crooks_pair(32, 8.0, seed=3)
        out = fr_estimator(forward, TEMPERATURE, reverse_works=reverse)
        assert out[0] == 0.0

    def test_registry_dispatch_matches_direct_call(self):
        forward, reverse = crooks_pair(16, 4.0, seed=5)
        fwd, rev = as_ensembles(forward, reverse)
        via_registry = estimate_pmf(fwd, "fr", reverse=rev)
        direct = fr_estimator(forward, TEMPERATURE, reverse_works=reverse)
        assert via_registry.values.tobytes() == (direct - direct[0]).tobytes()

    def test_station_count_mismatch_rejected(self):
        forward, reverse = crooks_pair(8, 4.0, seed=1)
        with pytest.raises(AnalysisError, match="station counts"):
            fr_estimator(forward, TEMPERATURE,
                         reverse_works=reverse[:, :-1])


class TestFRBeatsJEAtEqualBudget:
    """The tentpole claim, on ground truth: with dissipation in the tens
    of kT the exponential average is dominated by unsampled tails, while
    FR uses only means.  Budgets are matched — JE gets every replica as a
    forward pull, FR splits the same count across both directions."""

    BUDGET = 80
    DISSIPATION = 20.0  # kcal/mol ~ 34 kT: deep in the JE-hostile regime

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_fr_error_below_je_error(self, seed):
        fwd_all, _ = crooks_pair(self.BUDGET, self.DISSIPATION, seed=seed)
        je = exponential_estimator(fwd_all, TEMPERATURE)
        fwd, rev = crooks_pair(self.BUDGET // 2, self.DISSIPATION,
                               seed=seed + 1000)
        fr = fr_estimator(fwd, TEMPERATURE, reverse_works=rev)
        je_rms = float(np.sqrt(np.mean((je - TRUE_DF) ** 2)))
        fr_rms = float(np.sqrt(np.mean((fr - TRUE_DF) ** 2)))
        # JE's undersampling bias here is several kcal/mol; FR's noise is
        # sub-kcal/mol.  Require a decisive margin, not a lucky draw.
        assert fr_rms < 0.5 * je_rms, (fr_rms, je_rms)
        assert fr_rms < 1.5

    def test_je_bias_is_systematic_not_noise(self):
        """The JE error FR removes is an upward-biased tail effect: the
        estimate overshoots the truth at the far station in every seed."""
        for seed in range(8):
            fwd, _ = crooks_pair(self.BUDGET, self.DISSIPATION, seed=seed)
            je = exponential_estimator(fwd, TEMPERATURE)
            assert je[-1] > TRUE_DF[-1] + 1.0


class TestParallelPullHierarchy:
    def test_group_size_one_is_je_bit_exact(self):
        fwd, _ = crooks_pair(24, 6.0, seed=9)
        np.testing.assert_array_equal(
            parallel_pull_estimator(fwd, TEMPERATURE, group_size=1),
            exponential_estimator(fwd, TEMPERATURE))

    def test_group_size_m_is_mean_work(self):
        fwd, _ = crooks_pair(24, 6.0, seed=9)
        np.testing.assert_allclose(
            parallel_pull_estimator(fwd, TEMPERATURE, group_size=24),
            fwd.mean(axis=0), rtol=0.0, atol=1e-10)

    def test_default_group_size_is_sqrt(self):
        assert default_group_size(1) == 1
        assert default_group_size(16) == 4
        assert default_group_size(24) == 5
        with pytest.raises(AnalysisError):
            default_group_size(0)

    def test_remainder_replicas_dropped_deterministically(self):
        fwd, _ = crooks_pair(26, 6.0, seed=9)
        np.testing.assert_array_equal(
            parallel_pull_estimator(fwd, TEMPERATURE, group_size=8),
            parallel_pull_estimator(fwd[:24], TEMPERATURE, group_size=8))

    def test_oversized_group_rejected(self):
        fwd, _ = crooks_pair(8, 6.0, seed=9)
        with pytest.raises(AnalysisError, match="exceeds"):
            parallel_pull_estimator(fwd, TEMPERATURE, group_size=9)

    def test_interpolates_between_je_and_mean_work(self):
        """In the JE-hostile regime the composite estimate moves
        monotonically from the JE undershoot envelope toward the
        mean-work upper bound as M grows."""
        fwd, _ = crooks_pair(64, 20.0, seed=13)
        last = [float(parallel_pull_estimator(
            fwd, TEMPERATURE, group_size=m)[-1]) for m in (1, 4, 16, 64)]
        assert last == sorted(last)
        assert last[-1] == pytest.approx(float(fwd[:, -1].mean()))

    def test_registry_dispatch(self):
        fwd, _ = crooks_pair(16, 4.0, seed=21)
        direct = parallel_pull_estimator(fwd, TEMPERATURE, group_size=4)
        np.testing.assert_array_equal(
            estimate_pmf(as_ensembles(fwd, fwd)[0], "parallel-pull",
                         group_size=4).values,
            direct - direct[0])


class TestEstimatorsConvergeToTruth:
    """All three families agree with the analytic profile in the
    gentle-dissipation, many-replica limit."""

    def test_convergence_at_low_dissipation(self):
        fwd, rev = crooks_pair(4096, 0.25, seed=2)
        truth = TRUE_DF
        je = exponential_estimator(fwd, TEMPERATURE)
        fr = fr_estimator(fwd, TEMPERATURE, reverse_works=rev)
        pp = parallel_pull_estimator(fwd, TEMPERATURE)
        for est in (je, fr, pp):
            assert float(np.sqrt(np.mean((est - truth) ** 2))) < 0.1


@pytest.fixture(scope="module")
def simulated_pair():
    model = ReducedTranslocationModel(default_reduced_potential())
    proto = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=10.0,
                            start_z=-5.0)
    return model, proto, run_bidirectional_ensemble(
        model, proto, 12, n_records=21, seed=2005)


class TestSimulatorConsistency:
    def test_fr_and_je_agree_on_the_simulator(self, simulated_pair):
        """Both estimators see the same trap-coordinate physics; their
        disagreement is bounded by JE's finite-sample bias, far below the
        ~100 kcal/mol profile drop."""
        _, _, pair = simulated_pair
        profile = forward_reverse_pmf(pair.forward, pair.reverse)
        je = estimate_pmf(pair.forward)
        assert profile.pmf[0] == 0.0
        np.testing.assert_allclose(profile.pmf, je.values, atol=5.0)
        assert profile.pmf[-1] < -80.0

    def test_diffusion_profile_is_physical(self, simulated_pair):
        _, _, pair = simulated_pair
        profile = forward_reverse_pmf(pair.forward, pair.reverse)
        finite = np.isfinite(profile.diffusion)
        assert finite.sum() >= profile.diffusion.size // 2
        assert np.all(profile.diffusion[finite] > 0.0)

    def test_direction_mismatch_rejected(self, simulated_pair):
        _, _, pair = simulated_pair
        with pytest.raises(AnalysisError, match="direction"):
            forward_reverse_pmf(pair.forward, pair.forward)

    def test_window_mismatch_rejected(self, simulated_pair):
        model, proto, pair = simulated_pair
        other = PullingProtocol(kappa_pn=100.0, velocity=12.5,
                                distance=8.0, start_z=-5.0)
        stray = run_bidirectional_ensemble(model, other, 2, n_records=21,
                                           seed=1)
        with pytest.raises(AnalysisError, match="different windows"):
            forward_reverse_pmf(pair.forward, stray.reverse)

    def test_pmf_estimate_fr_passthrough(self, simulated_pair):
        """estimate_pmf(forward, 'fr', reverse=reverse) is the richer
        forward_reverse_pmf profile's PMF bit for bit, and its cost and
        sample count cover both directions."""
        _, _, pair = simulated_pair
        profile = forward_reverse_pmf(pair.forward, pair.reverse)
        est = estimate_pmf(pair.forward, "fr", reverse=pair.reverse)
        assert est.values.tobytes() == profile.pmf.tobytes()
        assert est.cpu_hours == pair.forward.cpu_hours + pair.reverse.cpu_hours
        assert est.n_samples == 24
        assert profile.estimate.cpu_hours == est.cpu_hours
        # ... and both are the half-difference of the two mean works.
        w_r = pair.reverse.works
        half = 0.5 * (pair.forward.mean_work()
                      - (w_r[:, -1][:, None] - w_r[:, ::-1]).mean(axis=0))
        assert profile.pmf.tobytes() == (half - half[0]).tobytes()


class TestFRReadsACheckedReverseEnsemble:
    """estimate_pmf(..., "fr", reverse=) runs forward_reverse_pmf's pair
    checks: a mismatched pair is refused, never turned into a PMF."""

    def test_forward_given_as_reverse_refused(self, simulated_pair):
        _, _, pair = simulated_pair
        with pytest.raises(AnalysisError, match="direction"):
            estimate_pmf(pair.forward, "fr", reverse=pair.forward)

    def test_reverse_of_another_window_refused(self, simulated_pair):
        model, _, pair = simulated_pair
        other = PullingProtocol(kappa_pn=100.0, velocity=12.5,
                                distance=8.0, start_z=-5.0)
        stray = run_bidirectional_ensemble(model, other, 2, n_records=21,
                                           seed=1)
        with pytest.raises(AnalysisError, match="different windows"):
            estimate_pmf(pair.forward, "fr", reverse=stray.reverse)

    def test_record_count_mismatch_refused(self, simulated_pair):
        model, proto, pair = simulated_pair
        coarse = run_bidirectional_ensemble(model, proto, 2, n_records=11,
                                            seed=1)
        with pytest.raises(AnalysisError, match="record counts"):
            estimate_pmf(pair.forward, "fr", reverse=coarse.reverse)

    def test_fr_needs_reverse(self, simulated_pair):
        _, _, pair = simulated_pair
        with pytest.raises(ConfigurationError, match="paired"):
            estimate_pmf(pair.forward, "fr")

    def test_reverse_refused_by_unpaired_estimator(self, simulated_pair):
        _, _, pair = simulated_pair
        with pytest.raises(ConfigurationError, match="forward pulls only"):
            estimate_pmf(pair.forward, "exponential", reverse=pair.reverse)
