#!/usr/bin/env python
"""Interactive molecular dynamics over different networks.

Drives the closed steering loop — simulation -> visualizer -> haptic user
-> simulation — over four network classes and prints the interactivity
report the paper's QoS argument rests on.  Also demonstrates the steering
framework directly: pause/resume, checkpoint, clone.
"""

from repro.analysis import qos_table
from repro.imd import IMDSession
from repro.net import (
    CAMPUS_LAN,
    DEGRADED_INTERNET,
    LIGHTPATH,
    PRODUCTION_INTERNET,
)
from repro.pore import build_translocation_simulation
from repro.steering import (
    ServiceConnection,
    Steerer,
    SteeringClient,
    SteeringService,
)


def run_imd(qos, label):
    session = IMDSession(build_translocation_simulation(n_bases=6, seed=42),
                         qos, seed=3, user_seed=7)
    report = session.run(n_frames=80)
    lo, hi = session.user.device.felt_force_range()
    print(f"  {label:35s} slowdown {report.slowdown:5.2f}x   "
          f"fps {report.fps:5.2f}   felt force {lo:.1f}-{hi:.1f}")
    return report


def main() -> None:
    print("=== IMD interactivity vs network QoS ===\n")
    reports = {}
    for label, qos in [("co-located (campus LAN)", CAMPUS_LAN),
                       ("optical lightpath (UKLight/GLIF)", LIGHTPATH),
                       ("production internet", PRODUCTION_INTERNET),
                       ("degraded internet", DEGRADED_INTERNET)]:
        reports[label] = run_imd(qos, label)
    print()
    print(qos_table(reports).formatted())

    print("\n=== steering the simulation by hand ===\n")
    ts = build_translocation_simulation(n_bases=6, seed=1)
    svc = SteeringService("demo-sim")
    client = SteeringClient(ServiceConnection(svc, "demo-sim"))
    ts.simulation.attach_steering(client, stride=10)
    steerer = Steerer(ServiceConnection(svc, "scientist"), "demo-sim")

    seq = steerer.checkpoint("before probe")
    ts.simulation.step(50)
    print("checkpoint:", steerer.expect_ack(seq).payload)

    seq = steerer.clone(branch="force-probe")
    ts.simulation.step(50)
    print("clone:     ", steerer.expect_ack(seq).payload)
    print("branches:  ", client.tree.branches())

    seq = steerer.pause()
    ts.simulation.step(20)
    print("paused at step", ts.simulation.step_count)
    steerer.resume()
    ts.simulation.step(50)
    print("resumed; now at step", ts.simulation.step_count)


if __name__ == "__main__":
    main()
