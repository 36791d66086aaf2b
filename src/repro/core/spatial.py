"""Step 3a of MISCELA: the η-neighbor graph (paper §2.1 "distance
threshold η").

Two sensors are neighbors iff their haversine distance is below η. The
input has one row per sensor, so the graph is built on the driver with
a latitude band sweep: sort the sensors by latitude and compare each
one only with the sensors after it whose latitude is within η of its
own. A great-circle distance is never shorter than the latitude
difference, so the band misses no edge, and longitude plays no part in
the band, so edges across the ±180° meridian are found like any other.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.geo import haversine_np, meters_to_lat_degrees


def neighbor_pairs(locations: pd.DataFrame, eta_meters: float) -> pd.DataFrame:
    """Undirected η-neighbor edges ``(src, dst, dist_m)`` with src < dst.

    Parameters
    ----------
    locations:
        ``(sensor_id, lat, lon, ...)`` — one row per sensor (the paper
        treats co-located sensors with different attributes as
        *different* sensors, §4 footnote 2; a zero distance between
        them is therefore a valid edge).
    eta_meters:
        Distance threshold η; strict ``dist < η``.
    """
    pdf = locations.sort_values("lat")
    ids = pdf["sensor_id"].to_numpy()
    lat = pdf["lat"].to_numpy(dtype=float)
    lon = pdf["lon"].to_numpy(dtype=float)
    # the band is widened by a rounding margin; the exact distance
    # test below decides every candidate
    band = meters_to_lat_degrees(eta_meters) * (1.0 + 1e-9)
    ends = np.searchsorted(lat, lat + band, side="right")

    # each list starts empty-but-typed, so no sensors gives no edges
    src, dst, dist = [ids[:0]], [ids[:0]], [lat[:0]]
    for i, end in enumerate(ends):
        later = slice(i + 1, end)
        d = haversine_np(lat[i], lon[i], lat[later], lon[later])
        # a sensor id listed twice must not pair with itself; the
        # duplicate edges it gives are dropped below
        keep = (d < eta_meters) & (ids[later] != ids[i])
        src.append(np.repeat(ids[i : i + 1], keep.sum()))
        dst.append(ids[later][keep])
        dist.append(d[keep])
    a, b = np.concatenate(src), np.concatenate(dst)
    swap = a > b
    return pd.DataFrame(
        {
            "src": np.where(swap, b, a),
            "dst": np.where(swap, a, b),
            "dist_m": np.concatenate(dist),
        }
    ).drop_duplicates(["src", "dst"])


def neighbor_edges(locations: DataFrame, eta_meters: float) -> DataFrame:
    """:func:`neighbor_pairs` of a ``(sensor_id, lat, lon, ...)`` frame,
    as a ``(src string, dst string, dist_m double)`` frame."""
    edges = neighbor_pairs(
        locations.select("sensor_id", "lat", "lon").toPandas(), eta_meters
    )
    # from pandas, so that with Arrow on the frame is a local relation
    return locations.sparkSession.createDataFrame(
        edges, "src string, dst string, dist_m double"
    )
