"""The hidden-IP problem and gateway workarounds (paper Section V-C1).

Compute nodes of 2005-era clusters were often given non-routable ("hidden")
IP addresses: fine for local MPI, fatal for grid applications whose master
process must talk to a visualizer on another continent.  PSC's fix — the
``qsocket`` library plus Access Gateway Nodes (AGNs) — relayed TCP through a
few routable gateways, with two caveats the paper records verbatim:
"it does not support UDP-based traffic and routing multiple processes
through single, or even a few, gateway nodes can present a bottleneck".

This module models hosts, reachability, gateway relays with shared-capacity
bottlenecks, and route resolution.  The federation benchmarks use the
reachability matrix to reproduce which site pairings could actually run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, UnreachableHostError
from .qos import QoSSpec

__all__ = ["Host", "GatewayNode", "Route", "NetworkFabric"]


@dataclass(frozen=True)
class Host:
    """A network endpoint.

    Attributes
    ----------
    name:
        Unique host name (e.g. ``"ncsa-compute-7"``).
    site:
        Owning site (e.g. ``"NCSA"``).
    hidden:
        True if the host has a non-routable address: it can open *outbound*
        connections but cannot accept inbound ones from other sites.
    """

    name: str
    site: str
    hidden: bool = False


@dataclass
class GatewayNode:
    """A routable relay (PSC AGN-style) serving one site's hidden nodes.

    Like the paper's AGNs it relays TCP only, never UDP (Section V-C1).
    """

    name: str
    site: str
    active_streams: int = 0

    #: Concurrent relayed streams before the gateway saturates.
    CAPACITY_STREAMS = 4
    #: Multiplier on path latency for the extra relay hop.
    HOP_PENALTY = 1.5

    def acquire(self) -> bool:
        """Reserve a relay slot; False when saturated (bottleneck)."""
        if self.active_streams >= self.CAPACITY_STREAMS:
            return False
        self.active_streams += 1
        return True

    def release(self) -> None:
        if self.active_streams <= 0:
            raise ConfigurationError("releasing an idle gateway stream")
        self.active_streams -= 1

    @property
    def utilization(self) -> float:
        return self.active_streams / self.CAPACITY_STREAMS


@dataclass(frozen=True)
class Route:
    """A resolved path between two hosts."""

    src: Host
    dst: Host
    qos: QoSSpec
    via_gateway: Optional[str] = None


class NetworkFabric:
    """Hosts + inter-site links + gateways, with route resolution.

    Intra-site traffic always works (hidden IPs are routable locally); the
    hidden-IP problem only bites across sites.
    """

    #: QoS used for intra-site traffic.
    INTRA_SITE = QoSSpec(latency_ms=0.2, jitter_ms=0.02, loss_rate=1e-7,
                         bandwidth_mbps=10000.0)

    def __init__(self) -> None:
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[Tuple[str, str], QoSSpec] = {}
        self._gateways: Dict[str, GatewayNode] = {}

    # -- construction --------------------------------------------------------

    def add_host(self, host: Host) -> Host:
        if host.name in self._hosts:
            raise ConfigurationError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        return host

    def add_link(self, site_a: str, site_b: str, qos: QoSSpec) -> None:
        """Declare a symmetric inter-site link."""
        if site_a == site_b:
            raise ConfigurationError("intra-site links are implicit")
        self._links[(site_a, site_b)] = qos
        self._links[(site_b, site_a)] = qos

    def add_gateway(self, gateway: GatewayNode) -> GatewayNode:
        if gateway.site in self._gateways:
            raise ConfigurationError(f"site {gateway.site!r} already has a gateway")
        self._gateways[gateway.site] = gateway
        return gateway

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise ConfigurationError(f"unknown host {name!r}") from None

    # -- routing ---------------------------------------------------------------

    def link_qos(self, site_a: str, site_b: str) -> QoSSpec:
        if site_a == site_b:
            return self.INTRA_SITE
        try:
            return self._links[(site_a, site_b)]
        except KeyError:
            raise UnreachableHostError(
                f"no link between sites {site_a!r} and {site_b!r}"
            ) from None

    def resolve(self, src_name: str, dst_name: str, udp: bool = False) -> Route:
        """Find a path from ``src`` to ``dst``.

        Raises :class:`UnreachableHostError` when the destination is hidden
        and no (compatible, unsaturated) gateway serves its site — the
        paper's "severely undermines the computer's contribution to the
        grid" failure.  The returned route does not hold gateway capacity;
        callers that open long-lived streams should ``acquire``/``release``
        the gateway themselves.
        """
        src, dst = self.host(src_name), self.host(dst_name)
        qos = self.link_qos(src.site, dst.site)
        if src.site == dst.site or not dst.hidden:
            return Route(src=src, dst=dst, qos=qos)

        gateway = self._gateways.get(dst.site)
        if gateway is None:
            raise UnreachableHostError(
                f"{dst.name} has a hidden IP and site {dst.site!r} deploys no gateway"
            )
        if udp:
            raise UnreachableHostError(
                f"gateway {gateway.name} does not relay UDP (qsocket limitation)"
            )
        return Route(
            src=src,
            dst=dst,
            qos=qos.scaled_latency(gateway.HOP_PENALTY),
            via_gateway=gateway.name,
        )

    def reachability_matrix(self, host_names: List[str]) -> Dict[Tuple[str, str], bool]:
        """Pairwise connectivity table (the collective-debugging view:
        "is it just my application or does this machine have problems?")."""
        out: Dict[Tuple[str, str], bool] = {}
        for a in host_names:
            for b in host_names:
                if a == b:
                    continue
                try:
                    self.resolve(a, b)
                except UnreachableHostError:
                    out[(a, b)] = False
                else:
                    out[(a, b)] = True
        return out
