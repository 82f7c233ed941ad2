"""Umbrella sampling + WHAM on the translocation coordinate.

The third classic route to the PMF (alongside SMD-JE and TI), included for
the same reason the paper's conclusion lists alternative free-energy
methods: the decomposition into independent windows is exactly what maps
onto a grid.  Each umbrella window holds the coordinate with a harmonic
bias at a station and samples positions at equilibrium; the Weighted
Histogram Analysis Method (Kumar et al. 1992) self-consistently unbiases
and merges the window histograms into one PMF.

Implementation notes:

* The WHAM equations are iterated in log space (log-sum-exp) — bias factors
  ``exp(-beta w_i(x))`` under stiff springs over a 10 A window span many
  orders of magnitude.
* Convergence is measured on the shift in window free energies ``f_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from ..errors import AnalysisError, ConfigurationError
from ..obs import Obs, as_obs
from ..pore.reduced import ReducedTranslocationModel
from ..rng import SeedLike, as_generator
from ..smd.ensemble import PAPER_CPU_HOURS_PER_NS
from ..units import KB, pn_per_angstrom
from .pmf import PMFEstimate

__all__ = ["UmbrellaProtocol", "WHAMResult", "run_umbrella_sampling", "wham"]

#: Positions each replica records per window, at an even stride over the
#: window's sampling time.
SAMPLES_PER_REPLICA = 200
#: Histogram bins over the sampled range.
N_BINS = 60
#: WHAM stops when no window free energy moves by more than ``TOL``
#: (kcal/mol) in one iteration, or after ``MAX_ITER`` iterations.
TOL = 1e-6
MAX_ITER = 5000


@dataclass(frozen=True)
class UmbrellaProtocol:
    """Window plan for umbrella sampling.

    Windows must overlap for WHAM to connect them: thermal width
    ``sqrt(kT/kappa)`` should be comparable to the window spacing.  The
    default (kappa = 30 pN/A, spacing 0.5 A, width ~1.2 A) overlaps well.
    """

    kappa_pn: float = 30.0
    start_z: float = -5.0
    distance: float = 10.0
    n_windows: int = 21
    sampling_ns: float = 0.08
    equilibration_ns: float = 0.02

    def __post_init__(self) -> None:
        if self.kappa_pn <= 0 or self.distance <= 0:
            raise ConfigurationError("kappa and distance must be positive")
        if self.n_windows < 2:
            raise ConfigurationError("need at least 2 windows")
        if self.sampling_ns <= 0 or self.equilibration_ns < 0:
            raise ConfigurationError("invalid sampling/equilibration times")

    @property
    def kappa_internal(self) -> float:
        return pn_per_angstrom(self.kappa_pn)

    @property
    def centers(self) -> np.ndarray:
        return np.linspace(self.start_z, self.start_z + self.distance,
                           self.n_windows)

    @property
    def total_time_ns(self) -> float:
        return self.n_windows * (self.sampling_ns + self.equilibration_ns)


@dataclass
class WHAMResult:
    """Umbrella + WHAM output."""

    protocol: UmbrellaProtocol
    bin_centers: np.ndarray
    pmf: PMFEstimate
    window_free_energies: np.ndarray
    iterations: int
    samples_per_window: int
    cpu_hours: float


def run_umbrella_sampling(
    model: ReducedTranslocationModel,
    protocol: Optional[UmbrellaProtocol] = None,
    n_replicas: int = 8,
    seed: SeedLike = None,
    obs: Optional[Obs] = None,
) -> WHAMResult:
    """Sample all umbrella windows and solve WHAM.

    Each window equilibrates, then records :data:`SAMPLES_PER_REPLICA`
    positions per replica at an even stride over the sampling time.
    ``protocol`` defaults to ``UmbrellaProtocol()``; ``obs`` is the
    instrumentation handle (read-only — no RNG draws, so runs stay
    bit-identical).
    """
    if protocol is None:
        protocol = UmbrellaProtocol()
    if n_replicas < 1:
        raise ConfigurationError("need positive replicas and samples")
    obs = as_obs(obs)
    rng = as_generator(seed)
    kappa = protocol.kappa_internal
    z_end = protocol.start_z + protocol.distance
    stiffness = kappa + model.max_curvature(protocol.start_z - 2.0, z_end + 2.0)
    dt = model.stable_timestep(stiffness)

    centers = protocol.centers
    n_equil = int(np.ceil(protocol.equilibration_ns / dt))
    n_sample_steps = max(int(np.ceil(protocol.sampling_ns / dt)),
                         SAMPLES_PER_REPLICA)
    stride = max(n_sample_steps // SAMPLES_PER_REPLICA, 1)

    all_samples = []
    with obs.span("core.wham.sampling", n_windows=centers.size,
                  n_replicas=n_replicas):
        z = model.equilibrate(n_replicas, spring_kappa=kappa,
                              spring_center=float(centers[0]), dt=dt,
                              time_ns=protocol.equilibration_ns, seed=rng)
        for center in centers:
            for _ in range(n_equil):
                model.step_ensemble(z, dt, rng, spring_kappa=kappa,
                                    spring_center=float(center))
            window_samples = []
            for step in range(n_sample_steps):
                model.step_ensemble(z, dt, rng, spring_kappa=kappa,
                                    spring_center=float(center))
                if step % stride == 0:
                    window_samples.append(z.copy())
            all_samples.append(np.concatenate(window_samples))

    with obs.span("core.wham.solve", n_bins=N_BINS):
        pmf_values, bin_centers, f_i, iters = wham(
            all_samples, centers, kappa, model.temperature)
    total_ns = n_replicas * protocol.total_time_ns
    if obs.enabled:
        obs.metrics.inc("core.wham.windows", centers.size)
        obs.metrics.inc("core.wham.sim_ns", total_ns)
        obs.metrics.set_gauge("core.wham.iterations", iters)
    estimate = PMFEstimate(
        displacements=bin_centers - bin_centers[0],
        values=pmf_values,
        kappa_pn=protocol.kappa_pn,
        velocity=0.0,
        estimator="umbrella-wham",
        n_samples=n_replicas,
        temperature=model.temperature,
        cpu_hours=total_ns * PAPER_CPU_HOURS_PER_NS,
    )
    return WHAMResult(
        protocol=protocol,
        bin_centers=bin_centers,
        pmf=estimate,
        window_free_energies=f_i,
        iterations=iters,
        samples_per_window=all_samples[0].size,
        cpu_hours=estimate.cpu_hours,
    )


def wham(
    window_samples: list[np.ndarray],
    centers: np.ndarray,
    kappa: float,
    temperature: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Solve the WHAM equations for harmonic umbrella windows over
    :data:`N_BINS` histogram bins.

    Returns ``(pmf, bin_centers, window_free_energies, iterations)`` with
    the PMF zeroed at its first bin.
    """
    if len(window_samples) != len(centers):
        raise AnalysisError("one sample array per window required")
    kT = KB * temperature
    beta = 1.0 / kT
    centers = np.asarray(centers, dtype=np.float64)

    lo = min(float(s.min()) for s in window_samples)
    hi = max(float(s.max()) for s in window_samples)
    if hi <= lo:
        raise AnalysisError("degenerate sample range")
    edges = np.linspace(lo, hi, N_BINS + 1)
    bin_centers = 0.5 * (edges[1:] + edges[:-1])

    n_windows = centers.size
    counts = np.stack([np.histogram(s, bins=edges)[0] for s in window_samples])
    n_i = counts.sum(axis=1).astype(np.float64)  # samples per window
    total_counts = counts.sum(axis=0).astype(np.float64)  # per bin

    # Bias energies w_i(x_bin): (n_windows, n_bins).
    bias = 0.5 * kappa * (bin_centers[None, :] - centers[:, None]) ** 2
    log_bias = -beta * bias

    # Iterate: log rho(x) = log N(x) - logsumexp_i [log n_i + beta f_i + log_bias_i(x)]
    f = np.zeros(n_windows)
    with np.errstate(divide="ignore"):
        log_total = np.where(total_counts > 0, np.log(total_counts), -np.inf)
        log_n = np.log(n_i)
    iters = 0
    for iters in range(1, MAX_ITER + 1):
        denom = logsumexp(log_n[:, None] + beta * f[:, None] + log_bias, axis=0)
        log_rho = log_total - denom
        # New window free energies: exp(-beta f_i) = sum_x rho(x) exp(-beta w_i).
        f_new = -kT * logsumexp(log_rho[None, :] + log_bias, axis=1)
        f_new = f_new - f_new[0]
        if np.max(np.abs(f_new - f)) < TOL:
            f = f_new
            break
        f = f_new

    pmf = -kT * log_rho
    finite = np.isfinite(pmf)
    if not finite.any():
        raise AnalysisError("WHAM produced no populated bins")
    # Zero at the first populated bin; leave unpopulated bins at +inf ->
    # replace with nan for downstream safety, then drop.
    first = np.flatnonzero(finite)[0]
    pmf = pmf - pmf[first]
    return pmf[finite], bin_centers[finite], f, iters
