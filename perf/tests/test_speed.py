import pytest

from perf import speed


def test_slowdown_is_the_local_median_over_the_reference():
    gauge = speed.SpeedGauge()
    ref = speed.REFERENCE_KERNEL_SECONDS
    # Quiet, one spike, then a sustained slow stretch.
    gauge.samples = [ref] * 20 + [5 * ref] + [ref] * 20 + [2 * ref] * 30
    slow = gauge.slowdowns()
    assert len(slow) == len(gauge.samples)
    assert slow[10] == pytest.approx(1.0)
    assert slow[20] == pytest.approx(1.0), "one spike does not move the median"
    assert slow[-1] == pytest.approx(2.0)
    assert slow[60] == pytest.approx(2.0)


def test_kernel_is_fixed_work_and_the_gauge_records_it():
    assert speed.kernel() == sum(i * i for i in range(speed.KERNEL_STEPS))
    gauge = speed.SpeedGauge()
    assert gauge.burst(5) > 0
    assert len(gauge.samples) == 5
