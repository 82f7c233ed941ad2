"""Tests for the Verlet neighbor list and its direct pair search."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.md import NeighborList


def brute_force_pairs(positions, reach):
    n = positions.shape[0]
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(positions[j] - positions[i]) <= reach:
                out.add((i, j))
    return out


class TestConstruction:
    def test_bad_cutoff(self):
        with pytest.raises(ConfigurationError):
            NeighborList(0.0)

    def test_bad_skin(self):
        with pytest.raises(ConfigurationError):
            NeighborList(1.0, skin=-0.1)


class TestCorrectness:
    @pytest.mark.parametrize("n", [3, 20, 64, 65, 200])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        pos = rng.uniform(0, 15.0, size=(n, 3))
        nl = NeighborList(cutoff=3.0, skin=0.5)
        i, j = nl.pairs(pos)
        got = set(zip(i.tolist(), j.tolist()))
        expected = brute_force_pairs(pos, 3.5)
        assert got == expected

    def test_no_duplicate_pairs(self):
        rng = np.random.default_rng(9)
        pos = rng.uniform(0, 10.0, size=(150, 3))
        nl = NeighborList(cutoff=2.5, skin=1.0)
        i, j = nl.pairs(pos)
        keys = list(zip(i.tolist(), j.tolist()))
        assert len(keys) == len(set(keys))

    def test_pairs_ordered(self):
        rng = np.random.default_rng(10)
        pos = rng.uniform(0, 8.0, size=(100, 3))
        nl = NeighborList(cutoff=2.0)
        i, j = nl.pairs(pos)
        assert np.all(i < j)

    def test_exclusions(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        nl = NeighborList(cutoff=5.0, exclusions={(0, 1)})
        i, j = nl.pairs(pos)
        got = set(zip(i.tolist(), j.tolist()))
        assert (0, 1) not in got
        assert (1, 2) in got and (0, 2) in got

    def test_clustered_positions(self):
        # Degenerate single-cell layout.
        pos = np.zeros((80, 3)) + np.random.default_rng(1).normal(scale=0.01, size=(80, 3))
        nl = NeighborList(cutoff=1.0)
        i, j = nl.pairs(pos)
        assert i.size == 80 * 79 // 2


class TestRebuildPolicy:
    def test_no_rebuild_within_half_skin(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 10, size=(100, 3))
        nl = NeighborList(cutoff=3.0, skin=1.0)
        nl.pairs(pos)
        assert nl.n_builds == 1
        pos2 = pos + 0.2  # uniform translation: max disp 0.2*sqrt(3) < 0.5
        nl.pairs(pos2)
        assert nl.n_builds == 1

    def test_rebuild_after_large_move(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 10, size=(100, 3))
        nl = NeighborList(cutoff=3.0, skin=1.0)
        nl.pairs(pos)
        pos2 = pos.copy()
        pos2[0] += 2.0
        nl.pairs(pos2)
        assert nl.n_builds == 2

    def test_invalidate_forces_rebuild(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0, 10, size=(50, 3))
        nl = NeighborList(cutoff=3.0, skin=1.0)
        nl.pairs(pos)
        nl.invalidate()
        nl.pairs(pos)
        assert nl.n_builds == 2

    def test_zero_skin_rebuilds_every_call(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 10, size=(30, 3))
        nl = NeighborList(cutoff=3.0, skin=0.0)
        nl.pairs(pos)
        nl.pairs(pos)
        assert nl.n_builds == 2

    def test_shape_change_rebuilds(self):
        nl = NeighborList(cutoff=3.0, skin=1.0)
        nl.pairs(np.zeros((5, 3)))
        nl.pairs(np.zeros((6, 3)))
        assert nl.n_builds == 2

    def test_skin_correctness_under_motion(self):
        # Moving by less than skin/2 must still yield all true pairs of the
        # *new* configuration (they were within reach at build time).
        rng = np.random.default_rng(6)
        pos = rng.uniform(0, 12, size=(120, 3))
        nl = NeighborList(cutoff=3.0, skin=1.0)
        nl.pairs(pos)
        drift = rng.normal(scale=0.1, size=pos.shape)
        drift *= 0.4 / max(np.linalg.norm(drift, axis=1).max(), 1e-12)
        pos2 = pos + drift
        i, j = nl.pairs(pos2)
        candidate = set(zip(i.tolist(), j.tolist()))
        true_pairs = brute_force_pairs(pos2, 3.0)
        assert true_pairs <= candidate

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0, 3)])
    def test_empty_system_can_be_asked_twice(self, shape):
        nl = NeighborList(cutoff=3.0, skin=1.0)
        for _ in range(2):
            i, j = nl.stacked_pairs(np.zeros(shape))
            assert i.size == 0 and j.size == 0


class TestStackedPairs:
    """One displacement test per call for the whole stack, per-replica
    rebuild schedules: against R solo lists driven with the same rows."""

    @staticmethod
    def walk(n_replicas, n, steps, seed):
        """Random walks whose step size differs by replica, so the skin
        criterion fires for some rows, not others, at most steps."""
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 8, size=(n_replicas, n, 3))
        scale = np.linspace(0.0, 0.12, n_replicas)[:, None, None]
        for _ in range(steps):
            pos = pos + scale * rng.normal(size=pos.shape)
            yield pos

    def assert_equals_solo(self, stack, solos, pos):
        n = pos.shape[1]
        i, j = stack.stacked_pairs(pos)
        parts = [nl.pairs(x) for nl, x in zip(solos, pos)]
        np.testing.assert_array_equal(
            i, np.concatenate([a + r * n for r, (a, _) in enumerate(parts)]))
        np.testing.assert_array_equal(
            j, np.concatenate([b + r * n for r, (_, b) in enumerate(parts)]))
        assert [nl.n_builds for nl in stack._replicas] == \
            [nl.n_builds for nl in solos]

    @pytest.mark.parametrize("n", [12, 90])
    def test_matches_solo_lists_step_by_step(self, n):
        stack = NeighborList(cutoff=2.5, skin=1.0)
        solos = [stack.clone() for _ in range(8)]
        cached = 0
        for step, pos in enumerate(self.walk(8, n, 220, seed=n)):
            before = stack._stack_pairs
            self.assert_equals_solo(stack, solos, pos)
            cached += stack._stack_pairs is before
            if step == 100:
                stack.invalidate()
                for nl in solos:
                    nl.invalidate()
        builds = [nl.n_builds for nl in solos]
        # The still replica built twice (start, invalidate), the fastest
        # many times; calls between rebuilds returned the cached concatenation.
        assert builds[0] == 2 and builds[-1] > 20 and cached > 20

    def test_replica_count_change_starts_over(self):
        stack = NeighborList(cutoff=2.5, skin=1.0)
        for n_replicas in (8, 3, 8):
            solos = [stack.clone() for _ in range(n_replicas)]
            for pos in self.walk(n_replicas, 12, 30, seed=n_replicas):
                self.assert_equals_solo(stack, solos, pos)
            assert len(stack._replicas) == n_replicas

    def test_zero_skin_rebuilds_every_replica_every_call(self):
        stack = NeighborList(cutoff=2.5, skin=0.0)
        pos = np.random.default_rng(0).uniform(0, 5, size=(3, 10, 3))
        stack.stacked_pairs(pos)
        stack.stacked_pairs(pos)
        assert [nl.n_builds for nl in stack._replicas] == [2, 2, 2]
