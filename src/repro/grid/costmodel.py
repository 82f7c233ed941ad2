"""Computational cost model — the paper's back-of-the-envelope, as code.

Section I of the paper:

* "It currently takes approximately 24 hours on 128 processors to simulate
  one nanosecond of physical time for a system of approximately 300,000
  atoms.  Thus, it takes about 3000 CPU-hours ... to simulate 1 ns."
* "a straightforward vanilla MD simulation will take 3 x 10^7 CPU-hours to
  simulate 10 microseconds — a prohibitively expensive amount."
* "Relying only on Moore's law (simple speed doubling every 18 months) we
  are still a couple of decades away..."

Section II:

* "By adopting the SMD-JE approach, the net computational requirement ...
  can be reduced by a factor of 50-100."

:class:`CostModel` encodes these relations so the cost-table benchmark can
regenerate each number and the grid experiments can size jobs consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["CostModel", "PAPER_COST_MODEL"]


@dataclass(frozen=True)
class CostModel:
    """Cost relations calibrated to the paper's quoted figures.

    Attributes
    ----------
    reference_procs / reference_hours_per_ns:
        The calibration: 128 procs, 24 wall-hours per ns of the paper's
        ~300,000-atom system.
    translocation_time_us:
        Physical timescale of the target process ("typically of the order
        of tens of microseconds"; the paper's arithmetic uses 10 us).
    smdje_reduction_low / smdje_reduction_high:
        The SMD-JE net-requirement reduction bracket (50-100x).
    """

    reference_procs: int = 128
    reference_hours_per_ns: float = 24.0
    translocation_time_us: float = 10.0
    smdje_reduction_low: float = 50.0
    smdje_reduction_high: float = 100.0

    #: Moore's law as the paper states it: speed doubles every 18 months.
    DOUBLING_MONTHS = 18.0
    #: "Routine": the vanilla simulation fits in a month of wall time.
    ROUTINE_DAYS = 30.0

    def cpu_hours_per_ns(self) -> float:
        """CPU-hours to simulate 1 ns of the calibration system."""
        return self.reference_procs * self.reference_hours_per_ns

    def vanilla_total_cpu_hours(self) -> float:
        """Cost of the brute-force translocation simulation (3e7 CPU-h)."""
        return self.cpu_hours_per_ns() * self.translocation_time_us * 1000.0

    def smdje_total_cpu_hours(self, reduction: float | None = None) -> float:
        """Cost under SMD-JE at a given (or mid-bracket) reduction factor."""
        if reduction is None:
            reduction = math.sqrt(self.smdje_reduction_low * self.smdje_reduction_high)
        if reduction <= 0:
            raise ConfigurationError("reduction factor must be positive")
        return self.vanilla_total_cpu_hours() / reduction

    def wall_hours(self, sim_ns: float, procs: int) -> float:
        """Wall time for ``sim_ns`` of MD on ``procs`` processors.

        Assumes the paper's (charitable) linear strong scaling in the
        128-256 processor range it used.
        """
        if sim_ns <= 0 or procs <= 0:
            raise ConfigurationError("sim_ns and procs must be positive")
        return self.cpu_hours_per_ns() * sim_ns / procs

    def moores_law_years_until_routine(self) -> float:
        """Years of Moore's-law speed doubling until the vanilla simulation
        fits in :attr:`ROUTINE_DAYS` on the reference machine — the paper's
        "still a couple of decades away" check."""
        current_days = (
            self.vanilla_total_cpu_hours() / self.reference_procs
        ) / 24.0
        if current_days <= self.ROUTINE_DAYS:
            return 0.0
        doublings = math.log2(current_days / self.ROUTINE_DAYS)
        return doublings * self.DOUBLING_MONTHS / 12.0

#: The calibration used throughout the reproduction.
PAPER_COST_MODEL = CostModel()
