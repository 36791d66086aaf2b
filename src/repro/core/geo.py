"""Geodesic helpers shared by the η-neighbor graph, the generators and
the test oracles, as vectorized numpy on a spherical Earth.
"""
from __future__ import annotations

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


def haversine_np(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Great-circle distance in meters (numpy, broadcasts)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def meters_to_lat_degrees(meters: float) -> float:
    """Degrees of latitude spanning ``meters`` (latitude-independent)."""
    return meters / (EARTH_RADIUS_M * np.pi / 180.0)


def meters_to_lon_degrees(meters: float, at_latitude: float) -> float:
    """Degrees of longitude spanning ``meters`` at a given latitude.

    The generators use it to space stations a fixed distance apart.
    """
    scale = np.cos(np.radians(at_latitude))
    scale = max(scale, 1e-6)  # degenerate near the poles
    return meters / (EARTH_RADIUS_M * np.pi / 180.0 * scale)
