"""The host-speed meter: window arithmetic, and the thread itself."""

import time

import pytest

import hostprobe
from hostprobe import HostProbe


def loaded_probe(samples):
    """A probe that never ran, holding ``(ended, unit seconds)`` samples."""
    probe = HostProbe()
    for ended, unit_s in samples:
        probe.ended.append(ended)
        probe.unit_s.append(unit_s)
        probe.floor_s = min(probe.floor_s, unit_s)
    return probe


def test_slowdown_is_window_mean_over_the_fastest_unit_so_far():
    probe = loaded_probe([(1.0, 0.002), (2.0, 0.001), (3.0, 0.003),
                          (4.0, 0.002), (5.0, 0.004)])
    assert probe.slowdown(2.5, 4.5) == pytest.approx(2.5)  # (3+2)/2 over 1
    assert probe.slowdown(2.0, 2.0) == pytest.approx(1.0)  # ends included
    assert probe.slowdown(0.0, 9.0) == pytest.approx(2.4)
    assert probe.slowdown(5.5, 9.0) is None                # holds no unit
    assert probe.slowdown(2.1, 2.9) is None


def test_calibrated_divides_by_the_slowdown_or_leaves_the_time_alone():
    import run

    probe = loaded_probe([(1.0, 0.001), (2.0, 0.003)])
    window = {"start": 1.5, "end": 10.5}
    assert run.calibrated(window, probe) == pytest.approx(3.0)
    assert run.calibrated(window, None) == 9.0
    assert run.calibrated({"start": 3.0, "end": 4.0}, probe) == 1.0


def test_the_thread_samples_cpu_time_at_its_period_and_stops():
    probe = HostProbe()
    probe.start()
    started = hostprobe.CLOCK()
    time.sleep(0.3)
    probe.stop()
    assert not probe.is_alive()
    assert len(probe.unit_s) == len(probe.ended) >= 3
    assert probe.ended == sorted(probe.ended)
    assert 0 < probe.floor_s == min(probe.unit_s)
    # A unit is far shorter than the period: the meter must stay cheap.
    assert probe.floor_s < hostprobe.PERIOD_S / 5
    assert probe.slowdown(started, hostprobe.CLOCK()) >= 1.0
