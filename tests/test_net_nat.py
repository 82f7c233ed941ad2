"""Tests for the hidden-IP / gateway model (paper Section V-C1)."""

import pytest

from repro.errors import ConfigurationError, UnreachableHostError
from repro.net import GatewayNode, Host, NetworkFabric, LIGHTPATH


def build_fabric(psc_gateway=True):
    """NCSA (open), PSC (hidden, optional gateway), HPCx (hidden, none)."""
    f = NetworkFabric()
    f.add_host(Host("ncsa-head", "NCSA"))
    f.add_host(Host("psc-node", "PSC", hidden=True))
    f.add_host(Host("hpcx-node", "HPCx", hidden=True))
    f.add_host(Host("ucl-viz", "UCL"))
    for a, b in [("NCSA", "PSC"), ("NCSA", "HPCx"), ("NCSA", "UCL"),
                 ("PSC", "UCL"), ("HPCx", "UCL"), ("PSC", "HPCx")]:
        f.add_link(a, b, LIGHTPATH)
    if psc_gateway:
        f.add_gateway(GatewayNode("psc-agn", "PSC", capacity_streams=2))
    return f


class TestReachability:
    def test_open_host_reachable(self):
        f = build_fabric()
        route = f.resolve("ucl-viz", "ncsa-head")
        assert route.via_gateway is None

    def test_hidden_host_without_gateway_unreachable(self):
        f = build_fabric()
        with pytest.raises(UnreachableHostError):
            f.resolve("ucl-viz", "hpcx-node")

    def test_hidden_host_with_gateway_relayed(self):
        f = build_fabric()
        route = f.resolve("ucl-viz", "psc-node")
        assert route.via_gateway == "psc-agn"
        # Extra hop penalty on latency.
        assert route.qos.latency_ms > LIGHTPATH.latency_ms

    def test_outbound_from_hidden_ok(self):
        # Hidden hosts can open outbound connections to open hosts.
        f = build_fabric()
        route = f.resolve("hpcx-node", "ucl-viz")
        assert route.via_gateway is None

    def test_intra_site_always_works(self):
        f = NetworkFabric()
        f.add_host(Host("a", "PSC", hidden=True))
        f.add_host(Host("b", "PSC", hidden=True))
        route = f.resolve("a", "b")
        assert route.qos is NetworkFabric.INTRA_SITE

    def test_udp_not_relayed(self):
        f = build_fabric()
        with pytest.raises(UnreachableHostError):
            f.resolve("ucl-viz", "psc-node", udp=True)

    def test_no_link_unreachable(self):
        f = NetworkFabric()
        f.add_host(Host("a", "X"))
        f.add_host(Host("b", "Y"))
        with pytest.raises(UnreachableHostError):
            f.resolve("a", "b")

    def test_reachability_matrix(self):
        f = build_fabric()
        m = f.reachability_matrix(["ucl-viz", "psc-node", "hpcx-node"])
        assert m[("ucl-viz", "psc-node")] is True
        assert m[("ucl-viz", "hpcx-node")] is False
        assert m[("hpcx-node", "ucl-viz")] is True


class TestGateway:
    def test_capacity_bottleneck(self):
        g = GatewayNode("agn", "PSC", capacity_streams=2)
        assert g.acquire() and g.acquire()
        assert not g.acquire()  # saturated
        assert g.utilization == 1.0
        g.release()
        assert g.acquire()

    def test_release_idle_rejected(self):
        g = GatewayNode("agn", "PSC")
        with pytest.raises(ConfigurationError):
            g.release()


class TestFabricConstruction:
    def test_duplicate_host(self):
        f = NetworkFabric()
        f.add_host(Host("a", "X"))
        with pytest.raises(ConfigurationError):
            f.add_host(Host("a", "X"))

    def test_duplicate_gateway(self):
        f = NetworkFabric()
        f.add_gateway(GatewayNode("g1", "PSC"))
        with pytest.raises(ConfigurationError):
            f.add_gateway(GatewayNode("g2", "PSC"))

    def test_intra_site_link_rejected(self):
        f = NetworkFabric()
        with pytest.raises(ConfigurationError):
            f.add_link("X", "X", LIGHTPATH)

    def test_unknown_host(self):
        f = NetworkFabric()
        with pytest.raises(ConfigurationError):
            f.host("nope")
