"""Tests for manual vs web reservation workflows (Section V-C3/C5)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.grid import (
    BatchQueue,
    ComputeResource,
    EventLoop,
    ManualReservationWorkflow,
    ReservationRequest,
    WebReservationWorkflow,
)


def make_queue(procs=512):
    loop = EventLoop()
    return BatchQueue(ComputeResource("X", "G", procs), loop)


class TestManualWorkflow:
    def test_error_free_single_attempt(self):
        wf = ManualReservationWorkflow(error_rate=0.0, seed=0)
        out = wf.place(make_queue(), ReservationRequest(10.0, 4.0, 128))
        assert out.succeeded
        assert out.attempts == 1
        assert out.emails == 1
        assert out.errors_introduced == []
        assert out.reservation.procs == 128

    def test_errors_cost_emails_and_time(self):
        wf = ManualReservationWorkflow(error_rate=0.6, seed=1)
        out = wf.place(make_queue(), ReservationRequest(10.0, 4.0, 128))
        if out.succeeded:
            assert out.attempts > 1
        assert out.emails > 1
        assert out.human_hours > wf.EMAIL_TURNAROUND_HOURS

    def test_paper_anecdote_statistics(self):
        """Over many requests at the default error rate, the mean audit
        trail should look like the paper's: ~a dozen emails and ~3 errors
        for a bad case."""
        wf = ManualReservationWorkflow(seed=2)
        emails, errors = [], []
        for i in range(200):
            out = wf.place(make_queue(), ReservationRequest(10.0, 4.0, 128))
            emails.append(out.emails)
            errors.append(len(out.errors_introduced))
        # Bad cases reach the paper's "dozen emails, three errors".
        assert np.percentile(emails, 90) >= 7
        assert max(errors) >= 3
        assert np.mean(emails) > 2

    def test_gives_up_after_max_attempts(self):
        wf = ManualReservationWorkflow(error_rate=0.95, max_attempts=3,
                                       seed=3)
        out = wf.place(make_queue(), ReservationRequest(10.0, 4.0, 128))
        if not out.succeeded:
            assert out.attempts == 3
            assert out.reservation is None

    def test_correct_reservation_placed_despite_garbling(self):
        """Whatever the journey, the final reservation matches the request."""
        wf = ManualReservationWorkflow(error_rate=0.5, seed=4)
        req = ReservationRequest(24.0, 6.0, 256)
        queue = make_queue()
        out = wf.place(queue, req)
        if out.succeeded:
            assert out.reservation.start == req.start
            assert out.reservation.procs == req.procs
            # Exactly one live reservation (garbled ones rolled back).
            assert len(queue.reservations) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ManualReservationWorkflow(error_rate=1.5)
        with pytest.raises(ConfigurationError):
            ManualReservationWorkflow(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ReservationRequest(0.0, 0.0, 10)


class TestWebWorkflow:
    def test_one_fewer_human_layer(self):
        web = WebReservationWorkflow(seed=5)
        manual = ManualReservationWorkflow(seed=5)
        assert web.HUMAN_LAYERS == manual.HUMAN_LAYERS - 1

    def test_web_cheaper_on_average(self):
        """Section V-C5: the web interface removes one human layer, so at
        the same per-layer error rate it needs fewer coordination hours."""
        rng_seeds = range(40)
        manual_hours = []
        web_hours = []
        for s in rng_seeds:
            m = ManualReservationWorkflow(seed=s).place(
                make_queue(), ReservationRequest(10.0, 4.0, 128))
            w = WebReservationWorkflow(seed=s).place(
                make_queue(), ReservationRequest(10.0, 4.0, 128))
            manual_hours.append(m.human_hours)
            web_hours.append(w.human_hours)
        assert np.mean(web_hours) < 0.5 * np.mean(manual_hours)
