"""JSON payloads for the two views of paper Figure 3 (substitution S8).

The demo renders (A/B) a Google Map of sensor markers with correlated
sensors highlighted, and (C/D) zoomable time-series charts of the
clicked sensors' measurements. Rendering is out of scope (figures are
excluded by the brief); these builders produce exactly the JSON a front
end would bind: markers with lat/lon/attribute/highlight flags and CAP
membership, and per-sensor series clipped to a zoom window.

A view holds a few hundred points, so each reads its rows from the
stored parquet file with pyarrow on the driver and runs no Spark job.
"""
from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from repro.core.types import CAP


def build_map_payload(
    locations: Path, caps: list[CAP], highlight: set[str] | None = None
) -> dict:
    """Marker list for the map view (Figure 3 A/B) from the ``locations`` file.

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
        {**r, "highlighted": r["sensor_id"] in highlight,
         "caps": cap_index.get(r["sensor_id"], [])}
        for r in pq.read_table(locations, columns=["sensor_id", "attribute", "lat", "lon"])
        .to_pylist()
    ]
    markers.sort(key=lambda m: m["sensor_id"])
    return {
        "markers": markers,
        "caps": [c.to_doc() for c in caps],
        "n_highlighted": sum(m["highlighted"] for m in markers),
    }


def build_timeseries_payload(
    readings: Path,
    sensor_ids: list[str],
    meta: dict,
    t_min: int | None = None,
    t_max: int | None = None,
) -> dict:
    """Series for the chart view (Figure 3 C/D) from the ``readings`` file.

    ``t_min``/``t_max`` clip to a zoom window ("which we can zoom in and
    zoom out"); nulls stay null so the chart can show gaps.
    """
    rows = pc.field("sensor_id").isin(pa.array(list(sensor_ids), pa.string()))
    if t_min is not None:
        rows &= pc.field("t") >= int(t_min)
    if t_max is not None:
        rows &= pc.field("t") <= int(t_max)
    table = pq.read_table(readings, columns=["sensor_id", "t", "value"], filters=rows)
    series: dict[str, list] = {s: [] for s in sensor_ids}
    for r in table.sort_by("t").to_pylist():
        series[r["sensor_id"]].append({"t": r["t"], "value": r["value"]})
    return {
        "start": meta.get("start"),
        "interval_minutes": meta.get("interval_minutes"),
        "series": series,
    }
