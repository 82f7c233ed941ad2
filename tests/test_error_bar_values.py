"""The two error bars the package reports, pinned by value.

``analyze_ensemble``'s ``sigma_stat_raw`` (the Fig. 4 budget) and the
adaptive controller's per-window ``score`` / ``bias`` / ``variance`` are
both read from :func:`repro.core.bootstrap_error`.  The numbers below were
recorded from the replica bootstrap and the block bootstrap that function
replaced; resampling the same streams in the same order must reproduce
them (``rel=1e-12``), so neither the Fig. 4 optimum nor the adaptive
allocation can drift when the resampler is touched.
"""

import pytest

from repro.core import run_parameter_study
from repro.pore import ReducedTranslocationModel, default_reduced_potential
from repro.smd import PullingProtocol, parameter_grid
from repro.workflow import run_adaptive_campaign


@pytest.fixture(scope="module")
def model():
    return ReducedTranslocationModel(default_reduced_potential())


SIGMA_STAT_RAW = {
    "exponential": {
        (10.0, 25.0): 0.31426028715012283,
        (10.0, 50.0): 0.16014577993346749,
        (100.0, 25.0): 0.17292434004309568,
        (100.0, 50.0): 0.23862844818075843,
    },
    "block": {
        (10.0, 25.0): 0.24809774130648032,
        (10.0, 50.0): 0.16408207173411618,
        (100.0, 25.0): 0.16593533833690347,
        (100.0, 50.0): 0.24840712004834722,
    },
}

#: (score, bias, variance) per window of the seed-7 campaign below.
BIN_SCORES = [
    (0.05927513685985467, 0.06332154509255616, 0.05526551878694605),
    (0.2867989682630641, 0.19002746447797136, 0.25068853100713745),
    (0.0490336898517127, 0.02782071071090897, 0.04825969790725261),
    (0.12403776235868842, 0.012341060796579484, 0.12388546057710355),
]
DIGEST = "16f49bfcfa446b1e9d481b0dc344b378e63514f4cda28efa5f1399cfee0e003e"


@pytest.mark.parametrize("estimator", sorted(SIGMA_STAT_RAW))
def test_study_sigma_stat_raw(model, estimator):
    protos = parameter_grid(kappas=[10.0, 100.0], velocities=[25.0, 50.0],
                            distance=5.0, start_z=-2.5)
    result = run_parameter_study(model, protocols=protos, n_samples=8,
                                 n_bootstrap=20, seed=3, estimator=estimator)
    got = {key: b.sigma_stat_raw for key, b in result.budgets.items()}
    assert got == pytest.approx(SIGMA_STAT_RAW[estimator], rel=1e-12)


def test_adaptive_bin_scores_and_digest(model):
    protocol = PullingProtocol(kappa_pn=400.0, velocity=50.0, distance=8.0,
                               start_z=-5.0)
    report = run_adaptive_campaign(model, protocol, n_bins=4,
                                   total_replicas=32, pilot_per_bin=4,
                                   seed=7, n_records=11)
    got = [(b.score, b.bias, b.variance) for b in report.bins]
    for row, want in zip(got, BIN_SCORES):
        assert row == pytest.approx(want, rel=1e-12)
    assert report.allocations() == [8, 10, 6, 8]
    assert report.digest() == DIGEST
