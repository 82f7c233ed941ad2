"""Property-based tests: WorkEnsemble and PMFEstimate invariants."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import estimate_pmf
from repro.smd import PullingProtocol, WorkEnsemble


@st.composite
def ensembles(draw):
    m = draw(st.integers(min_value=2, max_value=24))
    g = draw(st.integers(min_value=2, max_value=15))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    velocity = draw(st.sampled_from([12.5, 25.0, 50.0, 100.0]))
    rng = np.random.default_rng(seed)
    proto = PullingProtocol(kappa_pn=100.0, velocity=velocity, distance=5.0,
                            start_z=0.0)
    disp = np.linspace(0.0, 5.0, g)
    works = np.cumsum(rng.normal(loc=0.5, scale=1.0, size=(m, g)), axis=1)
    works[:, 0] = 0.0
    positions = disp[None, :] + rng.normal(scale=0.2, size=(m, g))
    return WorkEnsemble(proto, disp, works, positions, temperature=300.0,
                        cpu_hours=float(m))


def rows(ens, idx):
    """The pulls ``idx`` of ``ens`` as an ensemble of their own."""
    return replace(ens, works=ens.works[idx], positions=ens.positions[idx],
                   cpu_hours=ens.cpu_hours * len(idx) / ens.n_samples)


class TestWorkEnsembleProperties:
    @given(ensembles())
    @settings(max_examples=60, deadline=None)
    def test_merge_preserves_samples_and_cost(self, ens):
        half = ens.n_samples // 2
        a = rows(ens, np.arange(half))
        b = rows(ens, np.arange(half, ens.n_samples))
        if a.n_samples == 0 or b.n_samples == 0:
            return
        merged = a.merged_with(b)
        assert merged.n_samples == ens.n_samples
        assert merged.cpu_hours == pytest.approx(ens.cpu_hours)
        np.testing.assert_allclose(np.sort(merged.final_works()),
                                   np.sort(ens.final_works()))

    @given(ensembles())
    @settings(max_examples=60, deadline=None)
    def test_pmf_zeroed_and_below_mean_work(self, ens):
        est = estimate_pmf(ens)
        assert est.values[0] == 0.0
        # Jensen, column-wise: PMF <= mean work (both zeroed at start).
        mean_w = ens.mean_work() - ens.mean_work()[0]
        assert np.all(est.values <= mean_w + 1e-9)

    @given(ensembles())
    @settings(max_examples=40, deadline=None)
    def test_pmf_permutation_invariant(self, ens):
        rng = np.random.default_rng(0)
        perm = rng.permutation(ens.n_samples)
        shuffled = rows(ens, perm)
        np.testing.assert_allclose(estimate_pmf(shuffled).values,
                                   estimate_pmf(ens).values, atol=1e-9)

    @given(ensembles())
    @settings(max_examples=40, deadline=None)
    def test_interpolation_endpoints(self, ens):
        est = estimate_pmf(ens)
        out = est.interpolated(est.displacements)
        np.testing.assert_allclose(out, est.values, atol=1e-12)
