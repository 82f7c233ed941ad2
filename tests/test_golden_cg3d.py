"""Golden-master regression test: the 3-D pull's works and positions are
pinned.

The committed reference (tests/data/golden_cg3d.json, regenerated only via
tools/make_golden_cg3d.py) fixes a toy stacked 3-D pull — two 8-base
replicas through the full MD force stack, the trap and the work recorder
— at a fixed seed.  Any change to a force term, the scatter, the
integrator, the trap or the RNG stream layout that moves a trajectory
fails here, in tier-1.
"""

import json
import os

import numpy as np
import pytest

from repro.smd import PullingProtocol, run_pulling_ensemble_3d

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_cg3d.json")

#: Same-arithmetic reruns reproduce the pull exactly; the tolerance only
#: absorbs libm ulp differences across platforms.
ATOL = 1e-8


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def recomputed(golden):
    p = golden["params"]
    proto = PullingProtocol(
        kappa_pn=p["kappa_pn"], velocity=p["velocity"],
        distance=p["distance"], equilibration_ns=p["equilibration_ns"])
    return run_pulling_ensemble_3d(
        proto, n_samples=p["n_samples"], n_bases=p["n_bases"],
        n_records=p["n_records"], seed=p["seed"])


def test_reference_document_shape(golden):
    p = golden["params"]
    assert golden["schema"] == "repro.tests.golden_cg3d/v1"
    assert np.shape(golden["works"]) == (p["n_samples"], p["n_records"])
    assert np.shape(golden["positions"]) == (p["n_samples"], p["n_records"])
    assert len(golden["displacements"]) == p["n_records"]


def test_works_match_reference(golden, recomputed):
    np.testing.assert_allclose(recomputed.displacements,
                               golden["displacements"], rtol=0.0, atol=ATOL)
    np.testing.assert_allclose(recomputed.works, golden["works"],
                               rtol=0.0, atol=ATOL)


def test_positions_match_reference(golden, recomputed):
    np.testing.assert_allclose(recomputed.positions, golden["positions"],
                               rtol=0.0, atol=ATOL)


def test_detects_injected_drift(golden, recomputed):
    """Self-check: the tolerance is tight enough to catch real drift."""
    with pytest.raises(AssertionError):
        np.testing.assert_allclose(recomputed.works + 1e-6, golden["works"],
                                   rtol=0.0, atol=ATOL)
