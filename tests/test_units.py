"""Unit-conversion helpers."""

import math

import pytest

from repro import units


def test_mbps_bytes_round_trip():
    assert units.bytes_per_s_to_mbps(units.mbps_to_bytes_per_s(123.4)) == pytest.approx(123.4)


def test_mbps_to_bytes_per_s_value():
    # 8 Mbps is exactly one megabyte per second.
    assert units.mbps_to_bytes_per_s(8.0) == pytest.approx(1e6)


def test_bytes_mb_round_trip():
    assert units.bytes_to_mb(units.mb_to_bytes(2.5)) == pytest.approx(2.5)


def test_dbm_mw_round_trip():
    assert units.mw_to_dbm(units.dbm_to_mw(-73.0)) == pytest.approx(-73.0)


def test_dbm_known_value():
    # 0 dBm is 1 mW; 30 dBm is 1 W.
    assert units.dbm_to_mw(0.0) == pytest.approx(1.0)
    assert units.dbm_to_mw(30.0) == pytest.approx(1000.0)


def test_db_linear_round_trip():
    assert units.linear_to_db(units.db_to_linear(17.0)) == pytest.approx(17.0)


def test_db_known_value():
    assert units.db_to_linear(3.0) == pytest.approx(10 ** 0.3)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        units.mw_to_dbm(0.0)
    with pytest.raises(ValueError):
        units.linear_to_db(-1.0)


def test_clamp_inside_and_outside():
    assert units.clamp(5.0, 0.0, 10.0) == 5.0
    assert units.clamp(-1.0, 0.0, 10.0) == 0.0
    assert units.clamp(11.0, 0.0, 10.0) == 10.0


def test_clamp_empty_interval_rejected():
    with pytest.raises(ValueError):
        units.clamp(1.0, 2.0, 1.0)


def test_sample_interval_is_50ms():
    # The 50 ms cadence is load-bearing across the whole system (§2).
    assert units.SAMPLE_INTERVAL_S == pytest.approx(0.050)


def test_serial_sum_adds_left_to_right():
    values = [1e16, 1.0, -1e16, 0.25]
    total = 0.0
    for v in values:
        total += v
    assert units.serial_sum(values) == total == 0.25
    # A compensated sum (Python 3.12's builtin, math.fsum) keeps the 1.0.
    assert math.fsum(values) == 1.25
    assert units.serial_sum([]) == 0.0
