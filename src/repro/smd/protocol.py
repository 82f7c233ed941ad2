"""Pulling-protocol definitions.

A :class:`PullingProtocol` is the experiment card of a single SMD run: the
paper's two free parameters — spring constant ``kappa`` (pN/A) and pulling
velocity ``v`` (A/ns) — plus the pull geometry (start, distance, direction).
It is deliberately a frozen value object so an entire campaign (the 72-job
batch phase) can be described as a list of protocols and hashed/compared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import ConfigurationError
from ..units import pn_per_angstrom

__all__ = [
    "PullingProtocol",
    "parameter_grid",
    "PAPER_KAPPAS",
    "PAPER_VELOCITIES",
    "DIRECTIONS",
]

#: The paper's Fig. 4 parameter values.
PAPER_KAPPAS: tuple[float, ...] = (10.0, 100.0, 1000.0)       # pN/A
PAPER_VELOCITIES: tuple[float, ...] = (12.5, 25.0, 50.0, 100.0)  # A/ns

#: Legal trap travel directions along the pore axis.
DIRECTIONS: tuple[str, ...] = ("forward", "reverse")


@dataclass(frozen=True)
class PullingProtocol:
    """Constant-velocity SMD pulling protocol.

    Attributes
    ----------
    kappa_pn:
        Spring constant in pN/A (paper units).
    velocity:
        Trap speed in A/ns, positive along ``direction``.
    distance:
        Total trap displacement in A (the paper's sub-trajectory length,
        10 A by default, chosen "close to the centre of the pore").
    start_z:
        Lower anchor of the pull window on the pore axis (A).  The window
        is always ``[start_z, start_z + distance]`` regardless of
        direction; a reverse pull starts its trap at the window's *top*.
    equilibration_ns:
        Pre-pull equilibration time in the static trap.
    direction:
        ``"forward"`` (default): trap travels from ``start_z`` up to
        ``start_z + distance``.  ``"reverse"``: trap travels from
        ``start_z + distance`` down to ``start_z`` — the time-mirrored
        protocol the forward–reverse estimator pairs with.  A distinct
        direction is a distinct physical process and fingerprints as a
        distinct store task.
    """

    kappa_pn: float
    velocity: float
    distance: float = 10.0
    start_z: float = 0.0
    equilibration_ns: float = 0.05
    direction: str = "forward"

    def __post_init__(self) -> None:
        if self.kappa_pn <= 0.0:
            raise ConfigurationError(f"kappa must be positive, got {self.kappa_pn}")
        if self.velocity <= 0.0:
            raise ConfigurationError(f"velocity must be positive, got {self.velocity}")
        if self.distance <= 0.0:
            raise ConfigurationError(f"distance must be positive, got {self.distance}")
        if self.equilibration_ns < 0.0:
            raise ConfigurationError("equilibration time cannot be negative")
        if self.direction not in DIRECTIONS:
            raise ConfigurationError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )

    @property
    def kappa_internal(self) -> float:
        """Spring constant in kcal/mol/A^2."""
        return pn_per_angstrom(self.kappa_pn)

    @property
    def duration_ns(self) -> float:
        """Pull duration (excluding equilibration)."""
        return self.distance / self.velocity

    @property
    def origin_z(self) -> float:
        """Trap station at pull time 0: ``start_z`` for a forward pull,
        ``start_z + distance`` for a reverse pull."""
        if self.direction == "reverse":
            return self.start_z + self.distance
        return self.start_z

    @property
    def axis_sign(self) -> float:
        """+1.0 for forward travel along z, -1.0 for reverse."""
        return -1.0 if self.direction == "reverse" else 1.0

    @property
    def signed_velocity(self) -> float:
        """Trap velocity with its travel sign (A/ns).

        For a forward pull this is exactly ``velocity`` (same float, same
        bits — the runners rely on this for the bit-identity of existing
        forward results); for a reverse pull it is ``-velocity``.
        """
        if self.direction == "reverse":
            return -self.velocity
        return self.velocity

    def trap_position(self, t_ns: float) -> float:
        """Trap centre at pull time ``t_ns`` (0 = pull start)."""
        t = min(max(t_ns, 0.0), self.duration_ns)
        return self.origin_z + self.signed_velocity * t

    def with_start(self, start_z: float) -> "PullingProtocol":
        """Copy of this protocol re-anchored at a new start station."""
        return replace(self, start_z=start_z)

    def reversed(self) -> "PullingProtocol":
        """The time-mirrored protocol over the same window.

        Same window ``[start_z, start_z + distance]``, same (kappa, v) —
        only the travel direction flips.  ``p.reversed().reversed() == p``.
        """
        flipped = "forward" if self.direction == "reverse" else "reverse"
        return replace(self, direction=flipped)

    def label(self) -> str:
        """Human-readable cell label, e.g. ``kappa=100pN/A v=12.5A/ns``."""
        tag = " (reverse)" if self.direction == "reverse" else ""
        return f"kappa={self.kappa_pn:g}pN/A v={self.velocity:g}A/ns{tag}"


def parameter_grid(
    kappas: Sequence[float] = PAPER_KAPPAS,
    velocities: Sequence[float] = PAPER_VELOCITIES,
    distance: float = 10.0,
    start_z: float = 0.0,
) -> list[PullingProtocol]:
    """The full (kappa, v) protocol grid of the paper's Fig. 4 (12 cells)."""
    if not kappas or not velocities:
        raise ConfigurationError("parameter grid needs at least one kappa and one v")
    return [
        PullingProtocol(
            kappa_pn=k,
            velocity=v,
            distance=distance,
            start_z=start_z,
        )
        for k in kappas
        for v in velocities
    ]
