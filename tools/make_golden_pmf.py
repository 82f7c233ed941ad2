"""Regenerate the golden-master PMF reference (tests/data/golden_pmf.json).

Run only when a deliberate, understood physics change invalidates the
committed profile:

    PYTHONPATH=src python tools/make_golden_pmf.py

The parameters mirror the paper's optimal cell (kappa = 100 pN/A,
v = 12.5 A/ns) at test scale; the committed JSON is the contract the
golden-master regression test (tests/test_golden_pmf.py) pins against.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import estimate_pmf  # noqa: E402
from repro.pore import (  # noqa: E402
    ReducedTranslocationModel,
    default_reduced_potential,
)
from repro.smd import PullingProtocol, run_pulling_ensemble  # noqa: E402
from repro.store import canonical_json  # noqa: E402

GOLDEN_PARAMS = {
    "kappa_pn": 100.0,
    "velocity": 12.5,
    "distance": 10.0,
    "start_z": -5.0,
    "equilibration_ns": 0.05,
    "n_samples": 8,
    "n_records": 21,
    "seed": 2005,
    "estimator": "exponential",
}


def compute_profile(params=GOLDEN_PARAMS):
    model = ReducedTranslocationModel(default_reduced_potential())
    proto = PullingProtocol(
        kappa_pn=params["kappa_pn"], velocity=params["velocity"],
        distance=params["distance"], start_z=params["start_z"],
        equilibration_ns=params["equilibration_ns"])
    ensemble = run_pulling_ensemble(
        model, proto, n_samples=params["n_samples"],
        n_records=params["n_records"], seed=params["seed"])
    estimate = estimate_pmf(ensemble, estimator=params["estimator"])
    return {
        "schema": "repro.tests.golden_pmf/v1",
        "params": params,
        "displacements": estimate.displacements.tolist(),
        "pmf": estimate.values.tolist(),
        "mean_work": ensemble.mean_work().tolist(),
    }


def main() -> int:
    out = os.path.join(os.path.dirname(__file__), "..",
                       "tests", "data", "golden_pmf.json")
    document = compute_profile()
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(document) + "\n")
    print(f"wrote {os.path.normpath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
