"""Tests for the steering message vocabulary."""

import pytest

from repro.errors import SteeringError
from repro.steering import ControlAction, MessageType, SteeringMessage


class TestSteeringMessage:
    def test_sequence_numbers_unique_monotone(self):
        a = SteeringMessage(MessageType.STATUS, "a", "b")
        b = SteeringMessage(MessageType.STATUS, "a", "b")
        assert b.seq > a.seq

    def test_requires_endpoints(self):
        with pytest.raises(SteeringError):
            SteeringMessage(MessageType.STATUS, "", "b")
        with pytest.raises(SteeringError):
            SteeringMessage(MessageType.STATUS, "a", "")

    def test_control_constructor(self):
        m = SteeringMessage.control("steerer", "sim", ControlAction.PAUSE)
        assert m.msg_type is MessageType.CONTROL
        assert m.payload["action"] is ControlAction.PAUSE

    def test_param_set_constructor(self):
        m = SteeringMessage.param_set("s", "sim", "temperature", 310.0)
        assert m.payload == {"name": "temperature", "value": 310.0}

    def test_param_get_all(self):
        m = SteeringMessage.param_get("s", "sim")
        assert m.payload == {}

    def test_ack_reply_links_seq(self):
        req = SteeringMessage.param_get("steerer", "sim")
        ack = req.ack("sim", ok=True)
        assert ack.reply_to == req.seq
        assert ack.recipient == "steerer"
        assert ack.sender == "sim"

    def test_error_reply(self):
        req = SteeringMessage.param_get("steerer", "sim")
        err = req.error("sim", "no such parameter")
        assert err.msg_type is MessageType.ERROR
        assert err.payload["reason"] == "no such parameter"

    def test_steer_force_payload(self):
        import numpy as np

        m = SteeringMessage.steer_force("viz", "sim", np.array([0, 1]),
                                        np.array([0.0, 0.0, 1.0]))
        assert m.msg_type is MessageType.STEER_FORCE
        assert m.payload["indices"].shape == (2,)
