import math

import pytest

from measure import mean_abs_log_ratio, median, percentile, tail_percentile, worker_idle_s


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),  # the median would leave 9.5 beyond it
        (20, 50.0),
        (99, 50.0),  # p90 would leave 9.9
        (100, 90.0),
        (172, 90.0),  # the grid's cell count: p99 leaves 1.72
        (999, 90.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert median(values) == 2.5
    assert percentile(values, 90) == pytest.approx(3.7)


def test_model_error_is_mean_absolute_log_ratio():
    assert mean_abs_log_ratio([(1.0, 1.0)]) == 0.0
    # 2x over and 2x under score the same.
    assert mean_abs_log_ratio([(2.0, 1.0)]) == pytest.approx(math.log(2))
    assert mean_abs_log_ratio([(0.5, 1.0)]) == pytest.approx(math.log(2))
    pairs = [(0.87, 0.61), (1.0, 1.0), (6600.48, 6900.0)]
    expected = (math.log(0.87 / 0.61) + 0 + math.log(6900.0 / 6600.48)) / 3
    assert mean_abs_log_ratio(pairs) == pytest.approx(expected)


@pytest.mark.parametrize("pairs", [[], [(0.0, 1.0)], [(1.0, -1.0)], [(float("nan"), 1.0)]])
def test_model_error_rejects_degenerate_input(pairs):
    with pytest.raises(ValueError):
        mean_abs_log_ratio(pairs)


def test_worker_idle_counts_unused_pool_capacity():
    # Two workers busy over [0, 10]: 7 + 10 busy of 20 worker-seconds.
    assert worker_idle_s([(0.0, 7.0), (0.0, 10.0)], workers=2) == pytest.approx(3.0)
    assert worker_idle_s([], workers=2) == 0.0
