"""CSV schemas of MISCELA-V's upload interface (paper §3.2).

The demo requires three files per dataset:

* ``data.csv``      — ``id,attribute,time,data`` (one row per sensor per
  timestamp; ``data`` is ``null`` when the sensor has no value),
* ``location.csv``  — ``id,attribute,lat,lon``,
* ``attribute.csv`` — one attribute name per line.

Internally everything becomes two relations (DESIGN.md §3): long-format
``readings (sensor_id, t, value)`` on a synchronized tick index and
``locations (sensor_id, attribute, lat, lon)``. Their column types are
defined once, as Arrow schemas: the upload casts to them when it writes,
and Spark reads with the schemas derived from them. Helpers here convert
both ways so the ingest tests can round-trip the paper's exact formats.
"""
from __future__ import annotations

from pathlib import Path

import pandas as pd
import pyarrow as pa
from pyspark.sql.pandas.types import from_arrow_schema

READINGS_ARROW = pa.schema({"sensor_id": pa.string(), "t": pa.int64(), "value": pa.float64()})
LOCATIONS_ARROW = pa.schema(
    {"sensor_id": pa.string(), "attribute": pa.string(), "lat": pa.float64(), "lon": pa.float64()}
)
READINGS_SCHEMA = from_arrow_schema(READINGS_ARROW)
LOCATIONS_SCHEMA = from_arrow_schema(LOCATIONS_ARROW)

DATA_CSV_HEADER = ["id", "attribute", "time", "data"]
LOCATION_CSV_HEADER = ["id", "attribute", "lat", "lon"]


def ticks_to_timestamps(
    ticks: pd.Series, start: str, interval_minutes: int
) -> pd.Series:
    """Tick index → wall-clock timestamps ('%Y-%m-%d %H:%M:%S')."""
    base = pd.Timestamp(start)
    return (
        base + pd.to_timedelta(ticks.astype("int64") * interval_minutes, unit="m")
    ).dt.strftime("%Y-%m-%d %H:%M:%S")


def timestamps_to_ticks(
    times: pd.Series, start: str, interval_minutes: int
) -> pd.Series:
    """Wall-clock timestamps, as strings or already parsed → tick index;
    raises if a timestamp is not on the synchronized grid (paper §3.2:
    'timestamps must be the same time intervals')."""
    base = pd.Timestamp(start)
    deltas = pd.to_datetime(times) - base
    minutes = deltas / pd.Timedelta(minutes=1)
    ticks = minutes / interval_minutes
    if not (ticks == ticks.round()).all():
        bad = str(times[ticks != ticks.round()].iloc[0])
        raise ValueError(f"timestamp {bad!r} is not on the {interval_minutes}-minute grid")
    return ticks.round().astype("int64")


def write_csv_bundle(
    directory: str | Path,
    readings_pdf: pd.DataFrame,
    locations_pdf: pd.DataFrame,
    attributes: list[str],
    start: str,
    interval_minutes: int,
) -> dict[str, Path]:
    """Write the three upload files exactly as §3.2 specifies.

    ``readings_pdf`` is the internal long format; nulls are serialized
    as the literal string ``null`` (as in the paper's example).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    attr_of = dict(zip(locations_pdf["sensor_id"], locations_pdf["attribute"]))
    data = pd.DataFrame(
        {
            "id": readings_pdf["sensor_id"],
            "attribute": readings_pdf["sensor_id"].map(attr_of),
            "time": ticks_to_timestamps(readings_pdf["t"], start, interval_minutes),
            "data": readings_pdf["value"],
        }
    ).sort_values(["id", "time"])
    data_path = directory / "data.csv"
    data.to_csv(data_path, index=False, na_rep="null")

    loc = locations_pdf.rename(columns={"sensor_id": "id"})[LOCATION_CSV_HEADER]
    loc_path = directory / "location.csv"
    loc.to_csv(loc_path, index=False)

    attr_path = directory / "attribute.csv"
    attr_path.write_text("\n".join(attributes) + "\n")
    return {"data": data_path, "location": loc_path, "attribute": attr_path}
