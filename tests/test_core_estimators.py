"""Tests for the estimator registry behind estimate_pmf (repro.core.pmf)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

# This suite pins dispatch against the raw estimators, so importing them
# beside the estimate_pmf front door is the point.
from repro.core import (  # spice: noqa SPICE102
    available_estimators,
    block_estimator,
    check_estimator,
    cumulant_estimator,
    estimate_pmf,
    exponential_estimator,
    parallel_pull_estimator,
    register_estimator,
)
from repro.core.pmf import _REGISTRY
from repro.errors import ConfigurationError
from repro.smd import PullingProtocol, WorkEnsemble

PROTOCOL = PullingProtocol(kappa_pn=100.0, velocity=12.5, distance=4.0,
                           start_z=-2.0)


def ensemble_of(works, temperature=300.0):
    """A forward WorkEnsemble around a bare ``(m, g)`` work array."""
    works = np.asarray(works, dtype=np.float64)
    g = works.shape[1]
    return WorkEnsemble(protocol=PROTOCOL,
                        displacements=np.linspace(0.0, PROTOCOL.distance, g),
                        works=works, positions=np.zeros_like(works),
                        temperature=temperature, cpu_hours=7.0)


def zeroed(values):
    values = np.asarray(values, dtype=float)
    return values - values[0]


@pytest.fixture
def works():
    rng = np.random.default_rng(42)
    return rng.normal(10.0, 2.0, size=(16, 5))


class TestDispatch:
    def test_builtins_registered(self):
        assert available_estimators() == (
            "block", "cumulant", "exponential", "fr", "parallel-pull")

    def test_exponential_dispatch_is_bit_identical(self, works):
        via_registry = estimate_pmf(ensemble_of(works), "exponential")
        direct = exponential_estimator(works, 300.0)
        np.testing.assert_array_equal(via_registry.values, zeroed(direct))

    def test_cumulant_dispatch_is_bit_identical(self, works):
        via_registry = estimate_pmf(ensemble_of(works), "cumulant")
        direct = cumulant_estimator(works, 300.0)
        np.testing.assert_array_equal(via_registry.values, zeroed(direct))

    def test_block_dispatch_and_kwargs_passthrough(self, works):
        via_registry = estimate_pmf(ensemble_of(works), "block", n_blocks=8)
        direct_mean = block_estimator(works, 300.0, n_blocks=8)
        np.testing.assert_array_equal(via_registry.values, zeroed(direct_mean))

    def test_default_method_is_exponential(self, works):
        np.testing.assert_array_equal(
            estimate_pmf(ensemble_of(works)).values,
            zeroed(exponential_estimator(works, 300.0)),
        )

    def test_unknown_method_raises_with_choices(self, works):
        with pytest.raises(ConfigurationError, match="exponential"):
            estimate_pmf(ensemble_of(works), "magic")


#: The path every unpaired estimator took before the registry moved into
#: repro.core.pmf: the raw function, re-zeroed.
RAW_PATHS = {
    "exponential": exponential_estimator,
    "cumulant": cumulant_estimator,
    "block": block_estimator,
    "parallel-pull": parallel_pull_estimator,
}


class TestFrontDoorIsBitIdentical:
    def test_every_unpaired_estimator_has_a_raw_path(self):
        assert set(RAW_PATHS) == set(available_estimators()) - {"fr"}

    @settings(max_examples=60, deadline=None)
    @given(
        works=st.tuples(st.integers(4, 24), st.integers(2, 6)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=st.floats(
                -60.0, 60.0, allow_nan=False, allow_infinity=False))),
        temperature=st.floats(100.0, 600.0),
        name=st.sampled_from(sorted(RAW_PATHS)),
    )
    def test_estimate_pmf_equals_the_raw_path(self, works, temperature, name):
        ens = ensemble_of(works, temperature)
        got = estimate_pmf(ens, name).values
        want = zeroed(RAW_PATHS[name](ens.works, temperature))
        assert got.tobytes() == want.tobytes()


class TestCheckEstimator:
    def test_unknown_name_refused(self):
        with pytest.raises(ConfigurationError, match="unknown estimator"):
            check_estimator("magic", n_samples=8)

    def test_paired_estimator_refused_for_forward_only_callers(self):
        with pytest.raises(ConfigurationError, match="paired.*forward-only"):
            check_estimator("fr", n_samples=8)

    @pytest.mark.parametrize("name,too_few,enough", [
        ("exponential", 0, 1),
        ("cumulant", 1, 2),
        ("block", 3, 4),
        ("parallel-pull", 0, 1),
    ])
    def test_sample_minimum_is_the_estimators_own(self, name, too_few, enough):
        with pytest.raises(ConfigurationError, match="cannot use"):
            check_estimator(name, n_samples=too_few)
        check_estimator(name, n_samples=enough)

    def test_any_probe_failure_is_a_refusal(self):
        """A registered estimator that rejects the probe some other way
        (here: a required keyword) is refused, not let through to fail
        later as an internal error."""
        register_estimator("needs-scale-test", lambda w, t, *, scale: w * scale)
        try:
            with pytest.raises(ConfigurationError, match="cannot use"):
                check_estimator("needs-scale-test", n_samples=8)
        finally:
            del _REGISTRY["needs-scale-test"]

    def test_reverse_refused_for_unpaired_estimator(self, works):
        ens = ensemble_of(works)
        with pytest.raises(ConfigurationError, match="forward pulls only"):
            estimate_pmf(ens, "exponential", reverse=ens)

    def test_fr_without_reverse_refused(self, works):
        with pytest.raises(ConfigurationError, match="paired"):
            estimate_pmf(ensemble_of(works), "fr")


class TestRegistration:
    def test_register_and_dispatch_custom(self, works):
        def doubled(w, temperature):
            return 2.0 * exponential_estimator(w, temperature)

        register_estimator("doubled-test", doubled)
        try:
            assert "doubled-test" in available_estimators()
            np.testing.assert_array_equal(
                estimate_pmf(ensemble_of(works), "doubled-test").values,
                zeroed(doubled(works, 300.0)),
            )
        finally:
            del _REGISTRY["doubled-test"]

    def test_decorator_form(self, works):
        @register_estimator("decorated-test")
        def naive(w, temperature):
            return np.asarray(w).mean(axis=0)

        try:
            np.testing.assert_array_equal(
                estimate_pmf(ensemble_of(works), "decorated-test").values,
                zeroed(works.mean(axis=0)),
            )
        finally:
            del _REGISTRY["decorated-test"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_estimator("exponential", exponential_estimator)

    def test_non_callable_rejected(self):
        with pytest.raises(ConfigurationError):
            register_estimator("not-callable-test", 42)


class TestPMFIntegration:
    def test_estimate_pmf_block_uses_mean_component(self):
        from repro.pore import (ReducedTranslocationModel,
                                default_reduced_potential)
        from repro.smd import run_pulling_ensemble

        model = ReducedTranslocationModel(default_reduced_potential())
        proto = PullingProtocol(kappa_pn=100.0, velocity=12.5,
                                distance=4.0, start_z=-2.0)
        ens = run_pulling_ensemble(model, proto, n_samples=8, seed=3)
        est = estimate_pmf(ens, estimator="block")
        mean = block_estimator(ens.works, ens.temperature)
        np.testing.assert_allclose(est.values, mean - mean[0])
