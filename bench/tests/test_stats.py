"""Quartiles as the driver takes them; the percentile rule."""

import statistics

import pytest

import stats


def test_quartiles_are_the_statistics_module_s():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
    assert list(stats.quartiles(values)) == statistics.quantiles(values, n=4)
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert stats.summary(values)["n"] == 10


def test_percentile_is_nearest_rank():
    pool = list(range(1, 2001))
    assert stats.percentile(pool, 50.0) == 1000
    assert stats.percentile(pool, 90.0) == 1800
    assert stats.percentile(pool, 99.0) == 1980
    assert stats.percentile(pool, 99.9) == 1998
    assert stats.percentile([5.0], 99.0) == 5.0


@pytest.mark.parametrize("n, highest", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (2000, 99.0), (10000, 99.9),
])
def test_highest_percentile_needs_ten_samples_beyond_it(n, highest):
    assert stats.highest_percentile(n) == highest
