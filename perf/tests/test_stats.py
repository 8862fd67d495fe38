import pytest

from perf import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1_000, 99.0), (240, 95.0), (216, 95.0),
    (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.supported_tail(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= stats.MIN_SAMPLES_BEYOND


def test_tail_reports_its_sample_count():
    values = [float(i) for i in range(240)]
    p, value, beyond = stats.tail(values)
    assert (p, value, beyond) == (95.0, 227.0, 12)
    assert stats.tail([1.0, 2.0]) == (None, None, 0)


def test_spread_of_ten_runs_is_the_quartile_distance_over_the_median():
    ten = [100.0 + i for i in range(10)]
    # statistics.quantiles(n=4) puts the quartiles at 101.75 and 107.25.
    assert stats.iqr_share(ten) == pytest.approx(5.5 / 104.5)
