"""Calibration: extracting reduced-model parameters from 3-D trajectories.

The reduced translocation model's friction is not a free fit parameter —
it is the drag of the real (3-D CG) chain, measurable from its dynamics.
This module closes that loop:

* :func:`estimate_diffusion` — diffusion constant from the mean-squared
  displacement of a trajectory (Einstein relation);
* :func:`estimate_friction` — ``zeta = kB T / D``;
* :func:`calibrate_reduced_friction` — run a short unbiased 3-D simulation,
  track the chain-COM axial coordinate, and return the friction the
  reduced model should use.

Used by the validation tests to show the reduced model is *derived from*
the 3-D substrate, not tuned to the paper's curves.

Scale note: the calibrated value is the drag of the whole chain's COM
(``n_beads x zeta_bead``).  The reduced model's coordinate is the
*translocating segment* — the one or two beads actually inside the
constriction during a 10 A window — so its friction default corresponds to
roughly one bead's bulk drag, an order of magnitude below the full-chain
value measured here.  The tests check the per-bead decomposition, not a
naive equality.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from ..units import KB, ROOM_TEMPERATURE

__all__ = [
    "estimate_diffusion",
    "estimate_friction",
    "calibrate_reduced_friction",
]

#: Fraction of the trajectory whose lags the MSD fit uses.
FIT_FRACTION = 0.25
#: The calibration run: chain length, simulated time (ns), COM sampling
#: stride (steps) and start height (A, far above the pore).
CALIBRATION_BASES = 8
CALIBRATION_NS = 0.4
CALIBRATION_STRIDE = 20
CALIBRATION_START_Z = 120.0
CALIBRATION_SEED = 1234


def estimate_diffusion(times: np.ndarray, series: np.ndarray) -> float:
    """Diffusion constant from MSD(t) ~ 2 d D t.

    Parameters
    ----------
    times / series:
        Trajectory of a coordinate (1-D array, d = 1) or coordinates
        ``(n_frames, d)`` sampled at ``times`` (ns).

    The MSD is fitted over lags up to :data:`FIT_FRACTION` of the
    trajectory (short lags: best statistics, least drift contamination).
    """
    t = np.asarray(times, dtype=np.float64)
    x = np.asarray(series, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if t.ndim != 1 or x.shape[0] != t.size or t.size < 10:
        raise AnalysisError("need a (n,) time array and matching series, n >= 10")

    n = t.size
    max_lag = max(int(n * FIT_FRACTION), 2)
    lags = np.arange(1, max_lag)
    msd = np.empty(lags.size)
    for k, lag in enumerate(lags):
        d = x[lag:] - x[:-lag]
        msd[k] = float(np.mean(np.sum(d * d, axis=1)))
    dt = float(np.mean(np.diff(t)))
    lag_times = lags * dt
    # Least-squares through the origin: D = sum(msd * t) / (2 d sum(t^2)).
    denom = 2.0 * x.shape[1] * float(np.sum(lag_times**2))
    if denom == 0.0:
        raise AnalysisError("degenerate lag times")
    return float(np.sum(msd * lag_times) / denom)


def estimate_friction(diffusion: float) -> float:
    """Einstein relation at room temperature: ``zeta = kB T / D``
    (kcal ns / (mol A^2))."""
    if diffusion <= 0.0:
        raise ConfigurationError("diffusion must be positive")
    return KB * ROOM_TEMPERATURE / diffusion


def calibrate_reduced_friction() -> Tuple[float, float]:
    """Measure the chain-COM axial friction from an unbiased 3-D run.

    The chain is placed far above the pore (bulk solvent: no landscape, no
    walls) and diffuses freely; the COM-z MSD gives the diffusion constant
    of the reduced coordinate.  Returns ``(diffusion, friction)``.

    Note: the chain drifts slowly downward if started within the pore's
    reach — :data:`CALIBRATION_START_Z` is far into bulk.
    """
    from ..pore.assembly import build_translocation_simulation

    ts = build_translocation_simulation(n_bases=CALIBRATION_BASES,
                                        start_z=CALIBRATION_START_Z,
                                        seed=CALIBRATION_SEED)
    sim = ts.simulation
    times = []
    com_z = []

    def track(s):
        if s.step_count % CALIBRATION_STRIDE == 0:
            times.append(s.time)
            com_z.append(float(s.system.center_of_mass(ts.dna_indices)[2]))

    sim.add_reporter(track)
    sim.run_until(CALIBRATION_NS)
    D = estimate_diffusion(np.array(times), np.array(com_z))
    return D, estimate_friction(D)
