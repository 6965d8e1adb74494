import os

import pytest

import speed


def test_uniform_speed_scales_the_interval():
    samples = [(t / 10, 1.0) for t in range(100)]
    assert speed.reference_seconds(samples, 2.0, 6.0) == pytest.approx(4.0)
    fast = [(t, 2.0 * s) for t, s in samples]
    # Twice the reference speed: the same wall time is twice the work.
    assert speed.reference_seconds(fast, 2.0, 6.0) == pytest.approx(8.0)


def test_speed_is_averaged_over_the_interval_only():
    samples = [(t / 10, 1.0 if t < 50 else 3.0) for t in range(100)]
    assert speed.reference_seconds(samples, 0.0, 4.9) == pytest.approx(4.9)
    assert speed.reference_seconds(samples, 5.0, 9.9) == pytest.approx(3 * 4.9)
    # Half the samples at each speed: the time-weighted mean speed is 2.
    assert speed.reference_seconds(samples, 0.0, 9.95) == pytest.approx(2 * 9.95)


def test_short_interval_is_judged_by_the_samples_around_it():
    samples = [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0), (5.0, 9.0)]
    # 0.2 s around t=0.5 holds one sample; widened to 1 s it holds three.
    assert speed.reference_seconds(samples, 0.4, 0.6) == pytest.approx(0.2 * 2.0)
    with pytest.raises(ValueError):
        speed.reference_seconds(samples, 2.0, 3.0)
    with pytest.raises(ValueError):
        speed.reference_seconds(samples, 1.0, 0.5)


def test_busy_ticks_cover_every_usable_cpu():
    ticks = speed.busy_ticks()
    assert set(os.sched_getaffinity(0)) <= set(ticks)
    assert all(v >= 0 for v in ticks.values())


def test_sampler_pins_only_its_own_thread():
    before = os.sched_getaffinity(0)
    with speed.SpeedSampler() as sampler:
        while len(sampler.samples) < 5:
            speed.kernel()
    assert os.sched_getaffinity(0) == before
    assert all(s > 0 for _, s in sampler.samples)
    times = [t for t, _ in sampler.samples]
    assert times == sorted(times)
