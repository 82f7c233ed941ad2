"""Regenerate the FR golden-master (tests/data/golden_pmf_fr.json).

Run only when a deliberate, understood physics change invalidates the
committed profile:

    PYTHONPATH=src python tools/make_golden_pmf_fr.py

Pins the forward–reverse reconstruction (PMF, dissipated work and the
position-resolved diffusion profile) of one bidirectional ensemble at a
fixed seed; tests/test_golden_pmf_fr.py is the regression contract.
Non-finite diffusion entries (stations with no positive dissipation
slope) are stored as JSON ``null``.
"""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import forward_reverse_pmf  # noqa: E402
from repro.pore import (  # noqa: E402
    ReducedTranslocationModel,
    default_reduced_potential,
)
from repro.smd import PullingProtocol, run_bidirectional_ensemble  # noqa: E402
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
}


def compute_profile(params=GOLDEN_PARAMS):
    model = ReducedTranslocationModel(default_reduced_potential())
    proto = PullingProtocol(
        kappa_pn=params["kappa_pn"], velocity=params["velocity"],
        distance=params["distance"], start_z=params["start_z"],
        equilibration_ns=params["equilibration_ns"])
    pair = run_bidirectional_ensemble(
        model, proto, params["n_samples"], n_records=params["n_records"],
        seed=params["seed"])
    profile = forward_reverse_pmf(pair.forward, pair.reverse)
    diffusion = [d if math.isfinite(d) else None
                 for d in profile.diffusion.tolist()]
    return {
        "schema": "repro.tests.golden_pmf_fr/v1",
        "params": params,
        "stations": profile.stations.tolist(),
        "pmf": profile.pmf.tolist(),
        "dissipated": profile.dissipated.tolist(),
        "diffusion": diffusion,
        "mean_work_forward": pair.forward.mean_work().tolist(),
        "mean_work_reverse": pair.reverse.mean_work().tolist(),
    }


def main() -> int:
    out = os.path.join(os.path.dirname(__file__), "..",
                       "tests", "data", "golden_pmf_fr.json")
    document = compute_profile()
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(document) + "\n")
    print(f"wrote {os.path.normpath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
