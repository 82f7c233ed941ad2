"""EXP-HIDDENIP — the hidden-IP problem and the qsocket/AGN workaround.

Section V-C1: hidden compute nodes break grid applications; PSC's gateway
solution restores connectivity but "does not support UDP-based traffic and
routing multiple processes through single, or even a few, gateway nodes can
present a bottleneck".  Regenerated as the reachability matrix and the
gateway-saturation experiment.
"""

import pytest

from repro.analysis import Table, reachability_table
from repro.errors import UnreachableHostError
from repro.net import GatewayNode, Host, NetworkFabric, LIGHTPATH

from conftest import once


def build_fabric():
    f = NetworkFabric()
    f.add_host(Host("ucl-viz", "UCL"))
    f.add_host(Host("ncsa-master", "NCSA"))
    f.add_host(Host("sdsc-master", "SDSC"))
    f.add_host(Host("psc-master", "PSC", hidden=True))
    f.add_host(Host("hpcx-master", "HPCx", hidden=True))
    sites = ["UCL", "NCSA", "SDSC", "PSC", "HPCx"]
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            f.add_link(a, b, LIGHTPATH)
    f.add_gateway(GatewayNode("psc-agn", "PSC"))
    return f


def test_hidden_ip_reachability(benchmark, emit):
    fabric = once(benchmark, build_fabric)
    hosts = ["ucl-viz", "ncsa-master", "sdsc-master", "psc-master", "hpcx-master"]
    matrix = fabric.reachability_matrix(hosts)
    table = reachability_table(matrix)

    notes = [
        "",
        "PSC: hidden IPs + Access Gateway Nodes -> reachable (relayed)",
        "HPCx: hidden IPs, no gateway -> NOT reachable from other sites",
        "hidden nodes can still open outbound connections",
    ]
    emit("hidden_ip", table.formatted() + "\n" + "\n".join(notes),
         csv=table.to_csv())

    assert matrix[("ucl-viz", "psc-master")] is True
    assert matrix[("ucl-viz", "hpcx-master")] is False
    assert matrix[("hpcx-master", "ucl-viz")] is True
    # UDP does not pass the gateway.
    with pytest.raises(UnreachableHostError):
        fabric.resolve("ucl-viz", "psc-master", udp=True)


def test_gateway_bottleneck(benchmark, emit):
    """Multiple MPI processes sharing a few gateway slots: stream admission
    saturates — the 'bottleneck' caveat."""

    def workload():
        gw = GatewayNode("psc-agn", "PSC")
        admitted = 0
        requested = 12
        for _ in range(requested):
            if gw.acquire():
                admitted += 1
        return gw, admitted, requested

    gw, admitted, requested = once(benchmark, workload)
    table = Table("Gateway stream admission (MPICH-G2 style multi-stream app)",
                  ["requested", "admitted", "rejected", "utilization"])
    table.add_row(requested, admitted, requested - admitted, gw.utilization)
    emit("gateway_bottleneck", table.formatted(), csv=table.to_csv())

    assert admitted == 4
    assert gw.utilization == 1.0
