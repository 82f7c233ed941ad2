"""Tests for the middleware heterogeneity-hiding layer (Section V-B)."""

import pytest

from repro.errors import ConfigurationError, GridError
from repro.grid import SITE_QUEUES, GridMiddleware


class TestGridEnabled:
    def test_unknown_site(self):
        mw = GridMiddleware()
        with pytest.raises(GridError):
            mw.gatekeeper_submit("Atlantis", "job-1")
        with pytest.raises(GridError):
            mw.gridftp_transfer("Atlantis", 1.0)


class TestRetriedControlPlane:
    def test_gatekeeper_clean_submit_single_attempt(self):
        mw = GridMiddleware()
        out = mw.gatekeeper_submit("NCSA", "job-1", now=0.0)
        assert out.attempts == 1
        assert "accepted by NCSA" in out.value
        assert f"queue={SITE_QUEUES['NCSA']}" in out.value
        assert mw.call_log == [("gatekeeper", "NCSA", 0.0)]

    def test_gatekeeper_rides_out_a_short_auth_fault(self):
        mw = GridMiddleware()
        # DEFAULT_MIDDLEWARE_RETRY's ladder (0.1, 0.2, 0.4, 0.8, 1.6 h)
        # walks past a 2 h window within its 6 attempts.
        mw.inject_fault("NCSA", "auth", 0.0, 2.0)
        out = mw.gatekeeper_submit("NCSA", "job-1", now=0.0)
        assert out.attempts == 6
        assert out.finished_at >= 2.0

    def test_gatekeeper_exhausts_on_a_long_fault(self):
        from repro.errors import RetryExhausted

        mw = GridMiddleware()
        mw.inject_fault("NCSA", "auth", 0.0, 100.0)
        with pytest.raises(RetryExhausted) as ei:
            mw.gatekeeper_submit("NCSA", "job-1", now=0.0)
        assert ei.value.operation == "mw.gatekeeper.NCSA"
        assert isinstance(ei.value.last_error, GridError)

    def test_gridftp_transfer_faults_are_independent_of_auth(self):
        mw = GridMiddleware()
        mw.inject_fault("SDSC", "transfer", 0.0, 100.0)
        # Gatekeeper unaffected by a transfer fault.
        assert mw.gatekeeper_submit("SDSC", "j", now=1.0).attempts == 1
        from repro.errors import RetryExhausted
        with pytest.raises(RetryExhausted):
            mw.gridftp_transfer("SDSC", 256.0, now=1.0)

    def test_obs_records_attempts(self):
        from repro.obs import Obs

        obs = Obs()
        mw = GridMiddleware()
        mw.inject_fault("PSC", "transfer", 0.0, 0.05)
        out = mw.gridftp_transfer("PSC", 64.0, now=0.0, obs=obs)
        assert out.attempts == 2
        hist = obs.metrics.histogram("resil.retry.attempts.mw.gridftp.PSC")
        assert hist.summary()["count"] == 1

    def test_fault_validation(self):
        mw = GridMiddleware()
        with pytest.raises(GridError):
            mw.inject_fault("NOPE", "auth", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            mw.inject_fault("NCSA", "frobnicate", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            mw.gridftp_transfer("NCSA", 0.0)
