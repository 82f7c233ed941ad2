"""Tests for checkpoint migration between sites."""

import pytest

from repro.errors import ConfigurationError
from repro.grid import (
    CheckpointMigrator,
    paper_checkpoint_bytes,
)
from repro.net import LIGHTPATH, PRODUCTION_INTERNET


class TestSizeModel:
    def test_paper_scale(self):
        size = paper_checkpoint_bytes()
        # 300k atoms x 3 x 8 bytes x 2 arrays ~ 14.4 MB + metadata.
        assert 14_000_000 < size < 17_000_000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointMigrator(LIGHTPATH).transfer_hours(0)


class TestTransferTime:
    def test_lightpath_fast(self):
        m = CheckpointMigrator(LIGHTPATH)
        # ~16 MB at 1 Gb/s: a fraction of a second.
        hours = m.transfer_hours(paper_checkpoint_bytes())
        assert hours < 1.0 / 3600.0 * 2

    def test_production_slower(self):
        fast = CheckpointMigrator(LIGHTPATH)
        slow = CheckpointMigrator(PRODUCTION_INTERNET)
        size = paper_checkpoint_bytes()
        assert slow.transfer_hours(size) > fast.transfer_hours(size)
