"""The percentile rule: a tail percentile needs ten samples beyond it."""

import pytest

from perfbench.stats import MIN_BEYOND, percentile, quartiles, samples_beyond, spread


def test_p95_needs_two_hundred_samples():
    assert samples_beyond(200, 95) == MIN_BEYOND
    assert samples_beyond(199, 95) < MIN_BEYOND
    assert samples_beyond(1000, 99) == MIN_BEYOND


def test_nearest_rank_percentile():
    samples = list(range(1, 201))  # 1..200
    assert percentile(samples, 50) == 100
    assert percentile(samples, 95) == 190
    # exactly samples_beyond values lie above the reported percentile
    assert sum(1 for s in samples if s > percentile(samples, 95)) == samples_beyond(200, 95)
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, median, q3 = quartiles(values)
    assert median == 12.0
    assert spread(values) == pytest.approx((q3 - q1) / 12.0)


def test_a_run_pools_units_until_p95_has_enough_samples_beyond():
    from perfbench.loadgen import Drive, Outcome
    from perfbench.workloads import Unit, _repeat

    def unit():
        outcomes = [Outcome(0, index, 0.0, 0.001) for index in range(50)]
        return Unit([], Drive(outcomes, 0.0, 0.05, [50]), 0.0, 0.0)

    # 0.05 s of timed work a unit meets the 0.01 s asked for at once, but
    # p95 of 150 samples has 7 beyond it, of 200 samples 10
    assert len(_repeat(0.01, unit)) == 4
    # time still adds units once p95 is supported
    assert len(_repeat(0.32, unit)) == 6
