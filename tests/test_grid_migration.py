"""Tests for checkpoint migration between sites."""

import pytest

from repro.errors import ConfigurationError
from repro.grid import (
    CheckpointMigrator,
    Job,
    paper_checkpoint_bytes,
)
from repro.net import LIGHTPATH, PRODUCTION_INTERNET


class TestSizeModel:
    def test_paper_scale(self):
        size = paper_checkpoint_bytes()
        # 300k atoms x 3 x 8 bytes x 2 arrays ~ 14.4 MB + metadata.
        assert 14_000_000 < size < 17_000_000

    def test_scales_with_atoms(self):
        assert paper_checkpoint_bytes(600_000) == pytest.approx(
            2 * paper_checkpoint_bytes(300_000), rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            paper_checkpoint_bytes(0)


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


class TestPlanning:
    def job(self):
        return Job("smdje-07", procs=128, duration_hours=8.0)

    def test_migration_beats_recompute_when_work_done(self):
        m = CheckpointMigrator(LIGHTPATH)
        plan = m.plan(self.job(), completed_fraction=0.75,
                      destination_wait_hours=1.0)
        # Recompute = 6 h of redone work + the same wait; migrate = transfer
        # (seconds) + wait.
        assert plan.migration_hours < plan.recompute_hours

    def test_fresh_job_not_worth_migrating(self):
        m = CheckpointMigrator(PRODUCTION_INTERNET)
        plan = m.plan(self.job(), completed_fraction=0.0,
                      destination_wait_hours=0.5)
        # Nothing to save: recompute == wait, migration adds transfer on top.
        assert plan.migration_hours > plan.recompute_hours

    def test_validation(self):
        m = CheckpointMigrator(LIGHTPATH)
        with pytest.raises(ConfigurationError):
            m.plan(self.job(), completed_fraction=1.5, destination_wait_hours=0.0)
        with pytest.raises(ConfigurationError):
            m.transfer_hours(0)
