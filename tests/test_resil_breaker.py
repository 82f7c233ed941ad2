"""Tests for the per-queue circuit breakers."""

from repro.obs import Obs
from repro.resil import BreakerBoard, BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    """The breaker trips after ``FAILURE_THRESHOLD`` (2) consecutive
    failures and probes again ``RESET_TIMEOUT_HOURS`` (6) later."""

    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        b = CircuitBreaker("NCSA", clock)
        b.record_failure()
        assert b.allows()
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert not b.allows()
        assert b.trips == 1

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        b = CircuitBreaker("NCSA", clock)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state is BreakerState.CLOSED

    def test_half_open_after_reset_timeout(self):
        clock = FakeClock()
        b = CircuitBreaker("NCSA", clock)
        b.record_failure()
        b.record_failure()
        assert not b.allows()
        clock.now = 5.9
        assert not b.allows()
        clock.now = 6.0
        assert b.allows()  # probe traffic admitted
        assert b.state is BreakerState.HALF_OPEN

    def test_half_open_success_closes(self):
        clock = FakeClock()
        b = CircuitBreaker("NCSA", clock)
        b.record_failure()
        b.record_failure()
        clock.now = 7.0
        assert b.allows()
        b.record_success()
        assert b.state is BreakerState.CLOSED
        assert b.allows()

    def test_half_open_failure_retrips_immediately(self):
        clock = FakeClock()
        b = CircuitBreaker("NCSA", clock)
        for _ in range(2):
            b.record_failure()
        clock.now = 7.0
        assert b.allows()
        b.record_failure()  # a single half-open failure re-opens
        assert b.state is BreakerState.OPEN
        assert b.trips == 2

    def test_transitions_are_recorded_with_timestamps(self):
        clock = FakeClock()
        b = CircuitBreaker("NCSA", clock)
        clock.now = 3.0
        b.record_failure()
        b.record_failure()
        clock.now = 9.5
        b.allows()
        assert b.transitions == [
            (3.0, BreakerState.CLOSED, BreakerState.OPEN),
            (9.5, BreakerState.OPEN, BreakerState.HALF_OPEN),
        ]

    def test_obs_counts_trips(self):
        obs = Obs()
        b = CircuitBreaker("NCSA", FakeClock(), obs=obs)
        b.record_failure()
        b.record_failure()
        assert obs.metrics.counter("resil.breaker.trips.NCSA").value == 1


class TestBreakerBoard:
    def test_lazy_per_site_breakers_share_config(self):
        board = BreakerBoard(FakeClock())
        assert board.allows("A")
        board.record_failure("A")
        board.record_failure("A")
        assert not board.allows("A")
        assert board.allows("B")  # untouched site unaffected
        assert board.state("A") is BreakerState.OPEN
        assert board.state("B") is BreakerState.CLOSED

    def test_trip_accounting(self):
        board = BreakerBoard(FakeClock())
        for site in ("A", "B", "B"):
            board.record_failure(site)
            board.record_failure(site)
            board.record_success("B")
        assert board.total_trips == 3
        assert board.trip_counts() == {"A": 1, "B": 2}

    def test_half_open_query(self):
        clock = FakeClock()
        board = BreakerBoard(clock)
        board.record_failure("A")
        board.record_failure("A")
        assert not board.half_open("A")
        clock.now = 6.5
        board.allows("A")
        assert board.half_open("A")
