"""Reliable message channel over a lossy, jittery link.

Interactive steering needs *reliable bi-directional* communication (paper
Section II): a lost control message must be retransmitted, and while the
receiver waits, an expensive simulation stalls.  :class:`ReliableChannel`
models exactly that: each logical message is (re)transmitted until a copy
survives the loss process, with an exponential-backoff retransmission
timeout; the delivered arrival time therefore has a heavy tail on bad
networks — the tail the paper's "significant slowdown of the simulation as
it stalls waiting for data" comes from.

Time here is *logical* (seconds, supplied by the caller); the channel never
sleeps.  Both the IMD session loop and the steering services drive channels
with their own clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


from ..errors import ConfigurationError, RetryExhausted
from ..obs import Obs, as_obs
from ..resil.policy import DEFAULT_CHANNEL_RETRY, RetryPolicy
from ..rng import SeedLike, as_generator
from .qos import QoSSpec

__all__ = ["TransferResult", "ReliableChannel", "ChannelStats",
           "LinkFaultWindow"]


@dataclass(frozen=True)
class LinkFaultWindow:
    """An injected fault on the link over a logical-time window.

    ``loss_rate`` is the *fault's* loss probability, applied on top of the
    QoS loss process; ``1.0`` (the default) models a hard link cut and
    draws no random numbers.  ``extra_latency_ms`` models rerouted paths.
    Chaos-harness injection only — clean runs carry no windows and are
    bit-identical to the historical channel.
    """

    start_s: float
    end_s: float
    loss_rate: float = 1.0
    extra_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ConfigurationError("fault window must have positive duration")
        if not (0.0 < self.loss_rate <= 1.0):
            raise ConfigurationError("fault loss_rate must be in (0, 1]")
        if self.extra_latency_ms < 0:
            raise ConfigurationError("extra latency must be non-negative")

    def active(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one reliable message delivery.

    Attributes
    ----------
    send_time / arrival_time:
        Logical timestamps (s).
    attempts:
        Transmission attempts used (1 = no loss).
    retransmission_delay:
        Extra delay caused by lost attempts (s) — zero on a clean delivery.
    """

    send_time: float
    arrival_time: float
    attempts: int
    retransmission_delay: float

    @property
    def delay(self) -> float:
        return self.arrival_time - self.send_time


@dataclass
class ChannelStats:
    """Aggregate transport statistics (the QoS experiment's raw material)."""

    messages: int = 0
    attempts: int = 0
    bytes: int = 0
    total_delay: float = 0.0
    total_retransmission_delay: float = 0.0
    worst_delay: float = 0.0
    exhausted: int = 0

    def record(self, result: TransferResult, size_bytes: int) -> None:
        self.messages += 1
        self.attempts += result.attempts
        self.bytes += size_bytes
        self.total_delay += result.delay
        self.total_retransmission_delay += result.retransmission_delay
        self.worst_delay = max(self.worst_delay, result.delay)

    @property
    def mean_delay(self) -> float:
        return self.total_delay / self.messages if self.messages else 0.0

    @property
    def loss_recoveries(self) -> int:
        """Number of retransmissions performed."""
        return self.attempts - self.messages


class ReliableChannel:
    """Unidirectional reliable transport over a :class:`QoSSpec` link.

    Parameters
    ----------
    qos:
        Link characteristics.
    seed:
        RNG for delay/loss sampling.
    retry:
        :class:`~repro.resil.RetryPolicy` governing retransmission: attempt
        cap and backoff.  The default
        (:data:`~repro.resil.DEFAULT_CHANNEL_RETRY`) reproduces the
        historical hardcoded behaviour — 64 attempts, doubling RTO — bit
        for bit.  Exhaustion raises a typed
        :class:`~repro.errors.RetryExhausted`.
    obs / name:
        Optional instrumentation handle (see :mod:`repro.obs`) and the
        channel's metric label: deliveries, retransmissions, per-message
        delay and cumulative retransmission stall are recorded under
        ``net.*.<name>``, per-delivery attempt counts under
        ``resil.retry.attempts.net.<name>``.
    """

    #: Initial retransmission timeout as a multiple of the one-way latency
    #: (classic transport heuristic; grows by the retry policy's factor).
    RTO_FACTOR = 3.0

    def __init__(self, qos: QoSSpec, seed: SeedLike = None,
                 obs: Optional[Obs] = None, name: str = "channel",
                 retry: Optional[RetryPolicy] = None) -> None:
        self.qos = qos
        self.rng = as_generator(seed)
        self.retry = retry if retry is not None else DEFAULT_CHANNEL_RETRY
        self.stats = ChannelStats()
        self.name = name
        self._obs = as_obs(obs)
        self._faults: List[LinkFaultWindow] = []

    def inject_fault(self, start_s: float, duration_s: float,
                     loss_rate: float = 1.0,
                     extra_latency_ms: float = 0.0) -> LinkFaultWindow:
        """Schedule a link fault (chaos harness hook); returns the window."""
        window = LinkFaultWindow(start_s, start_s + duration_s,
                                 loss_rate=loss_rate,
                                 extra_latency_ms=extra_latency_ms)
        self._faults.append(window)
        return window

    def _fault_at(self, t: float) -> Optional[LinkFaultWindow]:
        for window in self._faults:
            if window.active(t):
                return window
        return None

    def transmit(self, now_s: float, size_bytes: int = 1024) -> TransferResult:
        """Deliver one message reliably; returns its arrival time.

        Models sender-driven retransmission: an attempt is sent, and if lost
        the sender notices after the retransmission timeout and resends.
        The message is delivered by the earliest surviving attempt.
        """
        rto = self.RTO_FACTOR * self.qos.latency_ms * 1e-3
        # Pure serialization floor so zero-latency links still back off.
        rto = max(rto, 1e-4)
        attempt_start = now_s
        best_arrival: Optional[float] = None
        attempts = 0
        first_attempt_would_arrive: Optional[float] = None
        while True:
            attempts += 1
            delay = self.qos.sample_delay_s(self.rng, size_bytes)
            fault = self._fault_at(attempt_start)
            if fault is not None:
                delay += fault.extra_latency_ms * 1e-3
            arrival = attempt_start + delay
            if first_attempt_would_arrive is None:
                first_attempt_would_arrive = arrival
            lost = self.qos.sample_loss(self.rng)
            if fault is not None and not lost:
                # A hard cut (loss_rate 1.0) draws nothing; partial faults
                # draw from the channel stream only inside the window.
                lost = (fault.loss_rate >= 1.0
                        or bool(self.rng.random() < fault.loss_rate))
            if not lost:
                best_arrival = arrival
                break
            if self.retry.exhausted(attempts):
                self.stats.exhausted += 1
                if self._obs.enabled:
                    self._obs.metrics.observe(
                        f"resil.retry.attempts.net.{self.name}", attempts)
                    self._obs.metrics.inc(
                        f"resil.retry.exhausted.net.{self.name}")
                raise RetryExhausted(
                    f"message undeliverable after {attempts} attempts "
                    f"(loss_rate={self.qos.loss_rate})",
                    operation=f"net.{self.name}", attempts=attempts,
                )
            attempt_start += self.retry.backoff(attempts, base=rto)
        assert first_attempt_would_arrive is not None
        result = TransferResult(
            send_time=now_s,
            arrival_time=best_arrival,
            attempts=attempts,
            retransmission_delay=max(best_arrival - first_attempt_would_arrive, 0.0),
        )
        self.stats.record(result, size_bytes)
        if self._obs.enabled:
            self._obs.metrics.inc(f"net.messages.{self.name}")
            self._obs.metrics.observe(f"net.delay_s.{self.name}", result.delay)
            self._obs.metrics.observe(
                f"resil.retry.attempts.net.{self.name}", result.attempts)
            if result.attempts > 1:
                self._obs.metrics.inc(f"net.retransmissions.{self.name}",
                                      result.attempts - 1)
            self._obs.metrics.counter(f"net.stall_s.{self.name}").inc(
                result.retransmission_delay
            )
        return result
