"""Compute resources of the federated US-UK grid (paper Fig. 5).

Each :class:`ComputeResource` models one HPC machine: processor count,
relative speed, grid affiliation, background load, and the two deployment
attributes the paper's experience section turns on — whether compute nodes
have hidden IPs (Section V-C1) and whether an optical lightpath is usable at
the site (Section V-C2).

Presets follow the paper's deployment: "SPICE used a subset of the TeraGrid
nodes (NCSA, SDSC and PSC), but used all nodes on the UK high-end NGS", with
HPCx present but unusable ("additional problems ... e.g., the hidden IP
address problem", plus UKLight "not deployed at all or barely ... deployed
on most UK resources").  Machine sizes are order-of-magnitude 2005 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError

__all__ = ["ComputeResource", "teragrid_sites", "ngs_sites"]


@dataclass
class ComputeResource:
    """One HPC machine on a grid.

    Attributes
    ----------
    name / grid:
        Identity and grid affiliation ("TeraGrid" or "NGS").
    total_procs:
        Schedulable processors.
    speed:
        Relative per-processor speed (1.0 = reference; job durations are
        divided by this).
    hidden_ip:
        Compute nodes are not externally addressable.
    has_gateway:
        A qsocket/AGN-style relay exists (PSC's mitigation).
    lightpath:
        A usable optical lightpath terminates at the site.
    background_load:
        Fraction of the machine occupied by other users' jobs, on average;
        the scheduler converts this into synthetic competing load.
    """

    name: str
    grid: str
    total_procs: int
    speed: float = 1.0
    hidden_ip: bool = False
    has_gateway: bool = False
    lightpath: bool = True
    background_load: float = 0.0

    def __post_init__(self) -> None:
        if self.total_procs <= 0:
            raise ConfigurationError(f"{self.name}: total_procs must be positive")
        if self.speed <= 0:
            raise ConfigurationError(f"{self.name}: speed must be positive")
        if not (0.0 <= self.background_load < 1.0):
            raise ConfigurationError(f"{self.name}: background_load must be in [0, 1)")

    @property
    def externally_reachable(self) -> bool:
        """Whether remote components can connect in (steering/visualization).

        Hidden-IP machines are reachable only through a gateway.
        """
        return (not self.hidden_ip) or self.has_gateway

    def wall_hours(self, duration_hours: float) -> float:
        """Actual wall time for a reference-speed duration on this machine."""
        if duration_hours <= 0:
            raise ConfigurationError("duration must be positive")
        return duration_hours / self.speed

    def fits(self, procs: int) -> bool:
        return procs <= self.total_procs


def teragrid_sites() -> List[ComputeResource]:
    """The TeraGrid subset SPICE used: NCSA, SDSC, PSC."""
    return [
        ComputeResource("NCSA", "TeraGrid", total_procs=1776, speed=1.1,
                        background_load=0.55),
        ComputeResource("SDSC", "TeraGrid", total_procs=1024, speed=1.0,
                        background_load=0.50),
        # PSC's LeMieux: hidden IPs, but AGN gateways deployed (Section V-C1).
        ComputeResource("PSC", "TeraGrid", total_procs=3000, speed=1.2,
                        hidden_ip=True, has_gateway=True, background_load=0.60),
    ]


def ngs_sites(include_hpcx: bool = True) -> List[ComputeResource]:
    """The UK NGS high-end nodes, plus (optionally) the unusable HPCx."""
    # UKLight "was either not deployed at all or was barely ... deployed on
    # most UK resources" (Section V-C2): near SC05 only one UK node could be
    # coordinated with the TeraGrid — we give Manchester the working
    # lightpath and leave the rest batch-only.
    sites = [
        ComputeResource("NGS-Oxford", "NGS", total_procs=128, speed=0.9,
                        lightpath=False, background_load=0.40),
        ComputeResource("NGS-Leeds", "NGS", total_procs=256, speed=0.9,
                        lightpath=False, background_load=0.45),
        ComputeResource("NGS-Manchester", "NGS", total_procs=256, speed=0.9,
                        lightpath=True, background_load=0.45),
        ComputeResource("NGS-RAL", "NGS", total_procs=128, speed=0.9,
                        lightpath=False, background_load=0.40),
    ]
    if include_hpcx:
        # Hidden IPs, no gateway, no working UKLight: present but unusable
        # for coupled/interactive work (Section V-C2).
        sites.append(
            ComputeResource("HPCx", "NGS", total_procs=1600, speed=1.3,
                            hidden_ip=True, has_gateway=False, lightpath=False,
                            background_load=0.70)
        )
    return sites
