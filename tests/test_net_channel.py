"""Tests for the reliable channel."""

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.net import (
    LIGHTPATH,
    PRODUCTION_INTERNET,
    QoSSpec,
    ReliableChannel,
)


class TestReliableChannel:
    def test_clean_delivery_single_attempt(self):
        ch = ReliableChannel(QoSSpec(10.0, 0.0, 0.0, 1000.0), seed=0)
        r = ch.transmit(5.0, 1000)
        assert r.attempts == 1
        assert r.retransmission_delay == 0.0
        assert r.arrival_time >= 5.010

    def test_delay_accounts_serialization(self):
        ch = ReliableChannel(QoSSpec(0.0, 0.0, 0.0, 8.0), seed=1)
        r = ch.transmit(0.0, 1_000_000)  # 1 MB at 8 Mb/s = 1 s
        assert r.delay == pytest.approx(1.0, rel=0.01)

    def test_lossy_link_retransmits(self):
        ch = ReliableChannel(QoSSpec(10.0, 0.0, 0.5, 1000.0), seed=2)
        results = [ch.transmit(float(i), 100) for i in range(100)]
        attempts = sum(r.attempts for r in results)
        assert attempts > 150  # ~2x with 50% loss
        assert any(r.retransmission_delay > 0 for r in results)

    def test_stats_accumulate(self):
        ch = ReliableChannel(PRODUCTION_INTERNET, seed=3)
        for i in range(50):
            ch.transmit(float(i), 2048)
        s = ch.stats
        assert s.messages == 50
        assert s.bytes == 50 * 2048
        assert s.attempts >= 50
        assert s.mean_delay > 0
        assert s.worst_delay >= s.mean_delay

    def test_total_loss_raises(self):
        # loss_rate must be < 1, so emulate near-certain loss.
        ch = ReliableChannel(QoSSpec(1.0, 0.0, 0.999999, 100.0), seed=4)
        with pytest.raises(NetworkError):
            ch.transmit(0.0, 100)

    def test_monotone_logical_time(self):
        ch = ReliableChannel(LIGHTPATH, seed=5)
        r1 = ch.transmit(0.0)
        r2 = ch.transmit(10.0)
        assert r2.send_time > r1.send_time
        assert r2.arrival_time > r2.send_time

    def test_deterministic_with_seed(self):
        a = ReliableChannel(PRODUCTION_INTERNET, seed=6).transmit(0.0, 512)
        b = ReliableChannel(PRODUCTION_INTERNET, seed=6).transmit(0.0, 512)
        assert a.arrival_time == b.arrival_time

    def test_loss_recoveries_counted(self):
        ch = ReliableChannel(QoSSpec(5.0, 0.0, 0.3, 1000.0), seed=7)
        for i in range(200):
            ch.transmit(float(i))
        assert ch.stats.loss_recoveries > 30


class TestRetryPolicyIntegration:
    def test_custom_policy_exhaustion_is_typed(self):
        from repro.errors import RetryExhausted
        from repro.resil import RetryPolicy

        ch = ReliableChannel(QoSSpec(1.0, 0.0, 0.0, 100.0), seed=4,
                             retry=RetryPolicy(max_attempts=3))
        ch.inject_fault(0.0, 1e9)  # hard cut, loss_rate=1.0
        with pytest.raises(RetryExhausted) as ei:
            ch.transmit(0.0, 100)
        assert ei.value.attempts == 3
        assert ei.value.operation == "net.channel"
        assert ch.stats.exhausted == 1

    def test_retry_exhausted_still_catchable_as_network_error(self):
        from repro.resil import RetryPolicy

        ch = ReliableChannel(QoSSpec(1.0, 0.0, 0.0, 100.0), seed=4,
                             retry=RetryPolicy(max_attempts=2))
        ch.inject_fault(0.0, 1e9)
        with pytest.raises(NetworkError):
            ch.transmit(0.0, 100)

    def test_explicit_default_policy_is_bit_identical(self):
        from repro.resil import DEFAULT_CHANNEL_RETRY

        a = ReliableChannel(QoSSpec(10.0, 5.0, 0.3, 1000.0), seed=11)
        b = ReliableChannel(QoSSpec(10.0, 5.0, 0.3, 1000.0), seed=11,
                            retry=DEFAULT_CHANNEL_RETRY)
        for i in range(100):
            ra = a.transmit(float(i), 512)
            rb = b.transmit(float(i), 512)
            assert ra.arrival_time == rb.arrival_time
            assert ra.attempts == rb.attempts


class TestLinkFaultWindows:
    def test_hard_cut_blocks_only_inside_the_window(self):
        from repro.errors import RetryExhausted
        from repro.resil import RetryPolicy

        qos = QoSSpec(1.0, 0.0, 0.0, 1000.0)  # lossless link
        ch = ReliableChannel(qos, seed=0, retry=RetryPolicy(max_attempts=3))
        ch.inject_fault(10.0, 5.0)
        assert ch.transmit(0.0, 100).attempts == 1
        with pytest.raises(RetryExhausted):
            ch.transmit(11.0, 100)
        assert ch.transmit(20.0, 100).attempts == 1

    def test_backoff_can_escape_a_short_window(self):
        qos = QoSSpec(100.0, 0.0, 0.0, 1000.0)  # rto = 0.3 s, doubling
        ch = ReliableChannel(qos, seed=0)
        ch.inject_fault(0.0, 1.0)
        r = ch.transmit(0.0, 100)
        # Retransmissions walked out of the one-second cut.
        assert r.attempts > 1
        assert r.arrival_time > 1.0

    def test_partial_loss_and_extra_latency(self):
        qos = QoSSpec(1.0, 0.0, 0.0, 1000.0)
        ch = ReliableChannel(qos, seed=5)
        ch.inject_fault(0.0, 1e9, loss_rate=0.5, extra_latency_ms=100.0)
        results = [ch.transmit(float(i), 100) for i in range(50)]
        assert any(r.attempts > 1 for r in results)  # fault loss bites
        assert all(r.delay >= 0.1 for r in results)  # rerouting latency

    def test_fault_window_validation(self):
        ch = ReliableChannel(QoSSpec(1.0, 0.0, 0.0, 100.0), seed=0)
        with pytest.raises(ConfigurationError):
            ch.inject_fault(0.0, -1.0)
        with pytest.raises(ConfigurationError):
            ch.inject_fault(0.0, 1.0, loss_rate=0.0)

    def test_clean_channel_unaffected_by_module_import(self):
        # No faults injected: stats and behaviour match the historical
        # channel (the exhausted counter exists but stays zero).
        ch = ReliableChannel(PRODUCTION_INTERNET, seed=3)
        for i in range(50):
            ch.transmit(float(i), 2048)
        assert ch.stats.exhausted == 0
