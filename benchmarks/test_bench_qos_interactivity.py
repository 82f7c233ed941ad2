"""EXP-QOS — interactive MD vs network quality of service.

Sections II-III: interactive simulations "require high quality-of-service
(QoS) — as defined by low latency, jitter and packet loss"; on a general-
purpose network the 256-processor simulation stalls.  Regenerated as the
slowdown/stall/fps table across network classes, plus a loss-rate sweep.
"""

import numpy as np

from repro.analysis import Curve, FigureData, qos_table, render_figure
from repro.imd import IMDSession
from repro.net import (
    CAMPUS_LAN,
    DEGRADED_INTERNET,
    LIGHTPATH,
    PRODUCTION_INTERNET,
    QoSSpec,
)
from repro.pore import build_translocation_simulation

from conftest import once

N_FRAMES = 100


def run_session(qos, seed=3):
    session = IMDSession(build_translocation_simulation(n_bases=6, seed=42),
                         qos, seed=seed, user_seed=7)
    return session.run(N_FRAMES)


def test_qos_network_classes(benchmark, emit):
    def workload():
        return {
            "co-located (campus LAN)": run_session(CAMPUS_LAN),
            "optical lightpath (UKLight/GLIF)": run_session(LIGHTPATH),
            "production internet": run_session(PRODUCTION_INTERNET),
            "degraded internet": run_session(DEGRADED_INTERNET),
        }

    reports = once(benchmark, workload)
    table = qos_table(reports)
    emit("qos_classes", table.formatted(), csv=table.to_csv())

    lightpath = reports["optical lightpath (UKLight/GLIF)"]
    production = reports["production internet"]
    degraded = reports["degraded internet"]
    # The paper's claims as assertions.
    assert lightpath.slowdown < 1.05, "lightpath QoS must not stall the sim"
    assert production.slowdown > 1.1, "general-purpose network unacceptable"
    assert degraded.slowdown > production.slowdown
    assert production.wasted_cpu_hours(256) > 0.0


def test_qos_loss_rate_sweep(benchmark, emit):
    """Slowdown as a function of packet loss at fixed latency/jitter."""
    losses = [0.0, 1e-3, 5e-3, 2e-2, 5e-2]

    def workload():
        out = []
        for loss in losses:
            qos = QoSSpec(latency_ms=45.0, jitter_ms=10.0, loss_rate=loss,
                          bandwidth_mbps=100.0)
            out.append(run_session(qos, seed=9).slowdown)
        return np.array(out)

    slowdowns = once(benchmark, workload)
    fig = FigureData("IMD slowdown vs packet loss (45 ms / 10 ms jitter link)",
                     "loss rate", "slowdown")
    fig.add(Curve("slowdown", np.array(losses), slowdowns))
    emit("qos_loss_sweep", render_figure(fig, height=12), csv=fig.to_csv())

    # Monotone-ish growth: the worst loss clearly beats the best.
    assert slowdowns[-1] > slowdowns[0] + 0.1
