"""Chunked dataset upload (paper §3.2, S5).

"The data.csv might be very large. For scalably uploading large
datasets, we divide the file into 10,000 lines and send each divided
set to our system." We reproduce that contract: the client-side reader
yields 10,000-line chunks; each chunk is 'POSTed' (a function call) to
the ingestor, which accumulates normalized chunks and finally registers
the dataset in the :class:`~repro.store.datasets.DatasetStore` as the
two internal relations. Timestamps are validated against the
synchronized grid, which must be full (one row per sensor and tick),
and converted to the tick index; literal ``null`` measurements become
NaN.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterator

import pandas as pd

from repro.smartcity.schema import DATA_CSV_HEADER, LOCATION_CSV_HEADER, timestamps_to_ticks
from repro.store.datasets import DatasetStore

CHUNK_LINES = 10_000


def read_location_csv(path: str | Path) -> pd.DataFrame:
    pdf = pd.read_csv(path, dtype={"id": str, "attribute": str})
    missing = set(LOCATION_CSV_HEADER) - set(pdf.columns)
    if missing:
        raise ValueError(f"location.csv missing columns: {sorted(missing)}")
    return pdf.rename(columns={"id": "sensor_id"})[
        ["sensor_id", "attribute", "lat", "lon"]
    ]


def read_attribute_csv(path: str | Path) -> list[str]:
    return [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]


def iter_data_chunks(path: str | Path, chunk_lines: int = CHUNK_LINES) -> Iterator[pd.DataFrame]:
    """Yield data.csv in ``chunk_lines``-row chunks (paper: 10,000)."""
    for chunk in pd.read_csv(
        path, dtype={"id": str, "attribute": str}, na_values=["null"], keep_default_na=True,
        chunksize=chunk_lines,
    ):
        missing = set(DATA_CSV_HEADER) - set(chunk.columns)
        if missing:
            raise ValueError(f"data.csv missing columns: {sorted(missing)}")
        yield chunk


class ChunkedUploader:
    """Server side of the upload: receives chunks, assembles relations.

    One instance per upload session, mirroring the demo's per-request
    accumulation before the dataset is committed to the store.
    """

    def __init__(self, store: DatasetStore, name: str, interval_minutes: int = 60):
        self.store = store
        self.name = name
        self.interval_minutes = interval_minutes
        self._chunks: list[pd.DataFrame] = []
        self.n_chunks_received = 0

    def receive_chunk(self, chunk: pd.DataFrame) -> None:
        self._chunks.append(chunk)
        self.n_chunks_received += 1

    def commit(self, locations: pd.DataFrame, attributes: list[str]) -> dict:
        """Finalize: convert timestamps → ticks, persist, return stats.
        Raises ``ValueError``, before saving, for an empty data.csv; for
        a location.csv with a duplicate id, an attribute missing from
        attribute.csv, or a lat/lon that is not a finite number in range;
        for a data.csv row whose id is missing from location.csv or whose
        attribute differs from its id's there; for two rows with the same
        (id, time) (supports count each tick once); or for a missing
        (id, time) row (evolving timestamps diff consecutive ticks)."""
        if not self._chunks:
            raise ValueError("no chunks received")
        data = pd.concat(self._chunks, ignore_index=True)
        if data.empty:
            raise ValueError("data.csv has no rows")
        locations = _checked_locations(locations, attributes)
        # each row's attribute must be its id's, which is in attribute.csv
        attribute = data["id"].map(dict(zip(locations["sensor_id"], locations["attribute"])))
        unplaced = set(data.loc[attribute.isna(), "id"])
        if unplaced:
            raise ValueError(f"data.csv ids not in location.csv: {sorted(unplaced)}")
        mismatched = data.loc[attribute != data["attribute"], ["id", "attribute"]]
        if len(mismatched):
            raise ValueError(f"data.csv rows whose attribute differs from location.csv: "
                             f"{mismatched.drop_duplicates().values[:3].tolist()}")
        times = pd.to_datetime(data["time"])
        start = str(times.min())
        readings = pd.DataFrame(
            {
                "sensor_id": data["id"],
                "t": timestamps_to_ticks(times, start, self.interval_minutes),
                "value": pd.to_numeric(data["data"], errors="coerce"),
            }
        )
        twice = data.loc[readings.duplicated(["sensor_id", "t"]), ["id", "time"]]
        if len(twice):
            raise ValueError(f"data.csv has duplicate (id, time) rows: {twice.values[:3].tolist()}")
        # without duplicates, a full sensors × ticks grid has exactly this many rows
        n_ids, n_ticks = readings["sensor_id"].nunique(), int(readings["t"].max()) + 1
        if len(readings) != n_ids * n_ticks:
            raise ValueError(
                f"data.csv has {n_ids * n_ticks - len(readings)} missing (id, time) rows: "
                f"expected {n_ids} ids × {n_ticks} ticks"
            )
        self.store.save(
            self.name,
            readings,
            locations,
            attributes,
            meta={
                "start": start,
                "interval_minutes": self.interval_minutes,
                "n_records": int(len(readings)),
                "n_chunks": self.n_chunks_received,
            },
        )
        return {"n_records": int(len(readings)), "n_chunks": self.n_chunks_received,
                "start": start}


def _checked_locations(locations: pd.DataFrame, attributes: list[str]) -> pd.DataFrame:
    """``locations`` with numeric lat/lon, after the §3.2 checks of
    location.csv: each id once, each attribute in attribute.csv, each
    lat/lon a finite number in range."""
    twice = locations.loc[locations["sensor_id"].duplicated(), "sensor_id"]
    if len(twice):
        raise ValueError(f"location.csv has duplicate ids: {sorted(set(twice))[:3]}")
    unknown = set(locations["attribute"]) - set(attributes)
    if unknown:
        raise ValueError(f"location.csv attributes not in attribute.csv: {sorted(unknown)}")
    lat = pd.to_numeric(locations["lat"], errors="coerce")
    lon = pd.to_numeric(locations["lon"], errors="coerce")
    # NaN (not a number) and ±inf fail every comparison that `ok` needs
    ok = (lat.abs() <= 90) & (lon.abs() <= 180)
    if not ok.all():
        raise ValueError(f"location.csv lat/lon not finite numbers in range for ids: "
                         f"{locations.loc[~ok, 'sensor_id'].tolist()[:3]}")
    return locations.assign(lat=lat, lon=lon)


def upload_csv_bundle(
    store: DatasetStore,
    name: str,
    directory: str | Path,
    chunk_lines: int = CHUNK_LINES,
    interval_minutes: int = 60,
) -> dict:
    """End-to-end upload of a §3.2 CSV bundle directory."""
    directory = Path(directory)
    uploader = ChunkedUploader(store, name, interval_minutes)
    for chunk in iter_data_chunks(directory / "data.csv", chunk_lines):
        uploader.receive_chunk(chunk)
    return uploader.commit(
        read_location_csv(directory / "location.csv"),
        read_attribute_csv(directory / "attribute.csv"),
    )
