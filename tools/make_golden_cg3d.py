"""Regenerate the golden-master 3-D pull reference (tests/data/golden_cg3d.json).

Run only when a deliberate, understood physics change invalidates the
committed works and positions:

    PYTHONPATH=src python tools/make_golden_cg3d.py

The parameters are the toy 3-D pull of the benchmark's smoke plan (two
8-base replicas pulled 1 A at kappa = 100 pN/A, v = 100 A/ns after a
1 ps equilibration); the committed JSON is the contract the 3-D
golden-master regression test (tests/test_golden_cg3d.py) pins against,
so the bits of the stacked MD force stack are checked by tier-1.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.smd import PullingProtocol, run_pulling_ensemble_3d  # noqa: E402
from repro.store import canonical_json  # noqa: E402

GOLDEN_PARAMS = {
    "kappa_pn": 100.0,
    "velocity": 100.0,
    "distance": 1.0,
    "equilibration_ns": 0.001,
    "n_samples": 2,
    "n_bases": 8,
    "n_records": 9,
    "seed": 2005,
}


def compute_pull(params=GOLDEN_PARAMS):
    proto = PullingProtocol(
        kappa_pn=params["kappa_pn"], velocity=params["velocity"],
        distance=params["distance"],
        equilibration_ns=params["equilibration_ns"])
    ensemble = run_pulling_ensemble_3d(
        proto, n_samples=params["n_samples"], n_bases=params["n_bases"],
        n_records=params["n_records"], seed=params["seed"])
    return {
        "schema": "repro.tests.golden_cg3d/v1",
        "params": params,
        "displacements": ensemble.displacements.tolist(),
        "works": ensemble.works.tolist(),
        "positions": ensemble.positions.tolist(),
    }


def main() -> int:
    out = os.path.join(os.path.dirname(__file__), "..",
                       "tests", "data", "golden_cg3d.json")
    document = compute_pull()
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(document) + "\n")
    print(f"wrote {os.path.normpath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
