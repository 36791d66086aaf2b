"""Unit tests for repro.core.geo: haversine correctness and the
meters-to-degrees conversions."""
import numpy as np
import pytest

from repro.core.geo import (
    EARTH_RADIUS_M,
    haversine_np,
    meters_to_lat_degrees,
    meters_to_lon_degrees,
)


class TestHaversineNumpy:
    def test_zero_distance(self):
        assert haversine_np(np.array(43.46), np.array(-3.80), np.array(43.46), np.array(-3.80)) == 0.0

    def test_one_degree_latitude_at_equator(self):
        d = haversine_np(np.array(0.0), np.array(0.0), np.array(1.0), np.array(0.0))
        assert d == pytest.approx(EARTH_RADIUS_M * np.pi / 180.0, rel=1e-9)

    def test_one_degree_longitude_shrinks_with_latitude(self):
        d_eq = haversine_np(np.array(0.0), np.array(0.0), np.array(0.0), np.array(1.0))
        d_60 = haversine_np(np.array(60.0), np.array(0.0), np.array(60.0), np.array(1.0))
        assert d_60 == pytest.approx(d_eq * 0.5, rel=1e-3)

    def test_known_city_pair_shanghai_guangzhou(self):
        # ~1,212 km great-circle; tolerate 2% (spherical model)
        d = haversine_np(np.array(31.23), np.array(121.47), np.array(23.13), np.array(113.26))
        assert d == pytest.approx(1_212_000, rel=0.02)

    def test_symmetry(self):
        a = haversine_np(np.array(43.0), np.array(-3.0), np.array(44.0), np.array(-4.0))
        b = haversine_np(np.array(44.0), np.array(-4.0), np.array(43.0), np.array(-3.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_antipodal_does_not_nan(self):
        d = haversine_np(np.array(0.0), np.array(0.0), np.array(0.0), np.array(180.0))
        assert np.isfinite(d) and d == pytest.approx(EARTH_RADIUS_M * np.pi, rel=1e-6)

    def test_broadcasts(self):
        lats = np.array([0.0, 1.0, 2.0])
        d = haversine_np(lats, np.zeros(3), lats + 1.0, np.zeros(3))
        assert d.shape == (3,) and np.all(d > 0)


class TestDegreeConversions:
    def test_lat_roundtrip(self):
        deg = meters_to_lat_degrees(111_195.0)  # ~1 degree
        assert deg == pytest.approx(1.0, rel=1e-3)

    def test_lon_wider_at_high_latitude(self):
        assert meters_to_lon_degrees(1000, 60.0) > meters_to_lon_degrees(1000, 0.0)

    def test_lon_at_equator_matches_lat(self):
        assert meters_to_lon_degrees(5000, 0.0) == pytest.approx(meters_to_lat_degrees(5000), rel=1e-9)

    def test_near_pole_does_not_divide_by_zero(self):
        assert np.isfinite(meters_to_lon_degrees(1000, 90.0))

    def test_conversion_consistent_with_haversine(self):
        # moving meters_to_lat_degrees(d) north really moves ~d meters
        deg = meters_to_lat_degrees(800.0)
        d = haversine_np(np.array(43.0), np.array(-3.0), np.array(43.0 + deg), np.array(-3.0))
        assert d == pytest.approx(800.0, rel=1e-3)
