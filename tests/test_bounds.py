import pytest

from binceo.bounds import (
    InfeasibleRateError,
    TestChannelPair,
    bsc_bounds,
    mi_region_oracle,
    optimize_test_channels,
    point_to_point_rate,
)


def test_point_to_point_rate_endpoints():
    assert point_to_point_rate(0.0) == pytest.approx(1.0)
    assert point_to_point_rate(0.5) == pytest.approx(0.0)


def test_test_channel_pair_validation():
    with pytest.raises(ValueError):
        TestChannelPair(0.6, 0.1)


def test_bsc_bounds_reference_point():
    pt = bsc_bounds(0.15, 0.15, TestChannelPair(0.1, 0.1))
    assert pt.sum_rate == pytest.approx(0.9898568304853806, abs=1e-12)
    assert pt.distortion == pytest.approx(0.5924869882599879, abs=1e-12)
    assert pt.r1 == pytest.approx(pt.r2, abs=1e-15)
    assert pt.r1 + pt.r2 > pt.sum_rate - 1.0  # sum bound is tighter than r1+r2-1


def test_bsc_bounds_matches_oracle_at_reference_point():
    closed = bsc_bounds(0.15, 0.15, TestChannelPair(0.1, 0.1))
    oracle = mi_region_oracle(0.15, 0.15, TestChannelPair(0.1, 0.1))
    for name in ("r1", "r2", "sum_rate", "distortion"):
        assert getattr(closed, name) == pytest.approx(getattr(oracle, name), abs=1e-12)


def test_bsc_bounds_asymmetric_rates():
    pt = bsc_bounds(0.15, 0.15, TestChannelPair(0.05, 0.2))
    assert pt.r1 > pt.r2  # finer quantizer needs the higher rate


def test_optimize_symmetric_case_recovers_symmetric_pair():
    target = bsc_bounds(0.15, 0.15, TestChannelPair(0.1, 0.1)).sum_rate
    res = optimize_test_channels(0.15, 0.15, target)
    assert res.pair.d1 == pytest.approx(res.pair.d2, abs=0.01)
    assert res.achieved_sum_rate == pytest.approx(target, abs=1e-6)


def test_optimize_never_worse_than_any_feasible_pair():
    pair = TestChannelPair(0.07, 0.23)
    ref = bsc_bounds(0.15, 0.15, pair)
    res = optimize_test_channels(0.15, 0.15, ref.sum_rate)
    assert res.distortion <= ref.distortion + 1e-6


def test_optimize_infeasible_rate():
    with pytest.raises(InfeasibleRateError):
        optimize_test_channels(0.15, 0.15, 1.999)


def test_optimize_rejects_bad_target():
    with pytest.raises(ValueError):
        optimize_test_channels(0.15, 0.15, 0.0)
    with pytest.raises(ValueError):
        optimize_test_channels(0.15, 0.15, 2.5)
