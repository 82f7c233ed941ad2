"""Tests for retry policies, budgets and the retry_call driver."""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    GridError,
    NetworkError,
    ReproError,
    RetryExhausted,
)
from repro.obs import Obs
from repro.resil import (
    DEFAULT_CHANNEL_RETRY,
    DEFAULT_MIDDLEWARE_RETRY,
    DEFAULT_PLACEMENT_RETRY,
    RetryPolicy,
    retry_call,
)


class TestRetryPolicy:
    def test_defaults_validate(self):
        p = RetryPolicy()
        assert p.max_attempts == 5
        assert p.factor == 2.0

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": -1},
        {"base_delay": 0.0},
        {"factor": 0.5},
        {"max_delay": 0.0},
        {"jitter": 1.5},
        {"jitter": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_exhausted_semantics(self):
        p = RetryPolicy(max_attempts=3)
        assert not p.exhausted(2)
        assert p.exhausted(3)
        assert p.exhausted(4)

    def test_zero_max_attempts_is_unbounded(self):
        p = RetryPolicy(max_attempts=0)
        assert not p.exhausted(10_000)

    def test_backoff_is_the_exact_exponential_ladder(self):
        p = RetryPolicy(base_delay=1.0, factor=2.0)
        assert [p.backoff(k) for k in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 8.0]

    def test_backoff_base_override(self):
        p = RetryPolicy(base_delay=1.0, factor=2.0)
        assert p.backoff(3, base=0.25) == 1.0

    def test_backoff_caps_at_max_delay(self):
        p = RetryPolicy(base_delay=1.0, factor=2.0, max_delay=3.0)
        assert p.backoff(1) == 1.0
        assert p.backoff(2) == 2.0
        assert p.backoff(3) == 3.0
        assert p.backoff(10) == 3.0

    def test_backoff_rejects_bad_attempt(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff(0)

    def test_jitter_needs_an_rng(self):
        p = RetryPolicy(base_delay=1.0, jitter=0.5)
        # Without a generator the ladder is the pure exponential.
        assert p.backoff(1) == 1.0
        rng = np.random.default_rng(0)
        jittered = [p.backoff(1, rng=rng) for _ in range(50)]
        assert all(0.5 <= d <= 1.5 for d in jittered)
        assert len(set(jittered)) > 1

    def test_unjittered_policy_ignores_rng(self):
        p = RetryPolicy(base_delay=1.0, jitter=0.0)

        class Boom:
            def random(self):  # pragma: no cover - must not be called
                raise AssertionError("jitter=0 must not draw")

        assert p.backoff(2, rng=Boom()) == 2.0


class TestRetryCall:
    def test_first_try_success(self):
        out = retry_call(RetryPolicy(), lambda t: "ok", operation="op",
                         now=5.0)
        assert out.value == "ok"
        assert out.attempts == 1
        assert out.finished_at == 5.0
        assert out.elapsed == 0.0

    def test_retries_then_succeeds_in_logical_time(self):
        calls = []

        def flaky(t):
            calls.append(t)
            if len(calls) < 3:
                raise GridError("transient")
            return "done"

        out = retry_call(RetryPolicy(base_delay=1.0, factor=2.0), flaky,
                         operation="op")
        assert out.value == "done"
        assert out.attempts == 3
        assert calls == [0.0, 1.0, 3.0]  # backoffs 1.0 then 2.0
        assert out.elapsed == 3.0

    def test_exhaustion_raises_typed_error(self):
        def always(t):
            raise GridError("down")

        with pytest.raises(RetryExhausted) as ei:
            retry_call(RetryPolicy(max_attempts=3), always, operation="mw.x")
        exc = ei.value
        assert exc.attempts == 3
        assert exc.operation == "mw.x"
        assert isinstance(exc.last_error, GridError)

    def test_retry_exhausted_is_a_network_error(self):
        # Transport exhaustion pre-dates the typed class; callers that
        # catch NetworkError must keep working.
        assert issubclass(RetryExhausted, NetworkError)
        assert issubclass(RetryExhausted, ReproError)

    def test_unexpected_errors_propagate(self):
        def boom(t):
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            retry_call(RetryPolicy(), boom, operation="op")

    def test_obs_records_attempts_and_exhaustion(self):
        obs = Obs()
        calls = {"n": 0}

        def flaky(t):
            calls["n"] += 1
            if calls["n"] < 2:
                raise GridError("x")
            return 1

        retry_call(RetryPolicy(), flaky, operation="op", obs=obs)
        hist = obs.metrics.histogram("resil.retry.attempts.op")
        assert hist.summary()["count"] == 1
        assert hist.summary()["max"] == 2

        def always(t):
            raise GridError("x")

        with pytest.raises(RetryExhausted):
            retry_call(RetryPolicy(max_attempts=2), always, operation="op",
                       obs=obs)
        assert obs.metrics.counter("resil.retry.exhausted.op").value == 1


class TestDefaultPolicies:
    def test_channel_default_matches_historical_loop(self):
        assert DEFAULT_CHANNEL_RETRY.max_attempts == 64
        assert DEFAULT_CHANNEL_RETRY.factor == 2.0
        assert DEFAULT_CHANNEL_RETRY.jitter == 0.0

    def test_placement_default_bounded_with_day_cap(self):
        p = DEFAULT_PLACEMENT_RETRY
        assert p.max_attempts > 0
        assert p.max_delay == 24.0

    def test_middleware_default_is_minutes_scale(self):
        p = DEFAULT_MIDDLEWARE_RETRY
        assert p.base_delay < 1.0
        assert p.max_attempts > 0
