"""JSON payloads for the two views of paper Figure 3 (substitution S8).

The demo renders (A/B) a Google Map of sensor markers with correlated
sensors highlighted, and (C/D) zoomable time-series charts of the
clicked sensors' measurements. Rendering is out of scope (figures are
excluded by the brief); these builders produce exactly the JSON a front
end would bind: markers with lat/lon/attribute/highlight flags and CAP
membership, and per-sensor series clipped to a zoom window.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.types import CAP


def build_map_payload(
    locations: DataFrame, caps: list[CAP], highlight: set[str] | None = None
) -> dict:
    """Marker list for the map view (Figure 3 A/B).

    Each marker carries the indices of the CAPs containing the sensor,
    so the front end can colour patterns; ``highlight`` marks the
    clicked sensor and its correlated set.
    """
    highlight = highlight or set()
    cap_index: dict[str, list[int]] = {}
    for i, cap in enumerate(caps):
        for s in cap.sensors:
            cap_index.setdefault(s, []).append(i)
    markers = [
        {
            "sensor_id": r["sensor_id"],
            "attribute": r["attribute"],
            "lat": float(r["lat"]),
            "lon": float(r["lon"]),
            "highlighted": r["sensor_id"] in highlight,
            "caps": cap_index.get(r["sensor_id"], []),
        }
        for r in locations.select("sensor_id", "attribute", "lat", "lon").collect()
    ]
    markers.sort(key=lambda m: m["sensor_id"])
    return {
        "markers": markers,
        "caps": [c.to_doc() for c in caps],
        "n_highlighted": sum(m["highlighted"] for m in markers),
    }


def build_timeseries_payload(
    readings: DataFrame,
    sensor_ids: list[str],
    meta: dict,
    t_min: int | None = None,
    t_max: int | None = None,
) -> dict:
    """Series for the chart view (Figure 3 C/D).

    ``t_min``/``t_max`` clip to a zoom window ("which we can zoom in and
    zoom out"); nulls stay null so the chart can show gaps.
    """
    df = readings.where(F.col("sensor_id").isin(list(sensor_ids)))
    if t_min is not None:
        df = df.where(F.col("t") >= int(t_min))
    if t_max is not None:
        df = df.where(F.col("t") <= int(t_max))
    series: dict[str, list] = {s: [] for s in sensor_ids}
    # a chart holds a few hundred points: ordering them here spares every
    # chart view a Spark sort and its shuffle
    rows = df.select("sensor_id", "t", "value").collect()
    for r in sorted(rows, key=lambda r: r["t"]):
        v = r["value"]
        series[r["sensor_id"]].append(
            {"t": int(r["t"]), "value": None if v is None else float(v)}
        )
    return {
        "start": meta.get("start"),
        "interval_minutes": meta.get("interval_minutes"),
        "series": series,
    }
