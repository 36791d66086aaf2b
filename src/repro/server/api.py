"""The MISCELA-V API layer (paper §3.1/§3.4, substitution S6).

The demo wires a django API server between the JS front end, MongoDB,
and the MISCELA miner. Here the same endpoints are plain methods on
:class:`MiscelaApi` returning the JSON the front end would render:

* ``upload``            — §3.2 chunked CSV bundle upload;
* ``mine``              — run CAP mining with user parameters, cache-
                          aware per §3.3 (same dataset + parameters ⇒
                          served without re-mining, from the cache's
                          in-memory slot when it is the last result put
                          or read);
* ``correlated_sensors``— the "click a sensor on the map" interaction:
                          sensors correlated with the clicked one, for
                          highlighting; each answer is kept in the cache
                          slot beside the CAPs it came from, so a repeat
                          click is a lookup;
* ``map_payload`` / ``timeseries_payload`` — the two views of Figure 3,
  built by :mod:`repro.viz.payload`.

Spark runs only a ``mine`` that misses the cache: the upload writes the
stored files with pyarrow, and the views read them with pyarrow.

A re-upload empties the cache slot. The cached documents stay keyed by
(dataset name, parameters), so a re-upload of other data is still served
the old CAPs (ROADMAP 4a).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from pyspark.sql import SparkSession

from repro.core.miscela import mine_caps, rows_to_caps
from repro.core.types import CAP, MiscelaParams, SearchStats
from repro.smartcity.ingest import upload_csv_bundle
from repro.store.cache import CapCache
from repro.store.datasets import DatasetStore
from repro.viz.payload import build_map_payload, build_timeseries_payload


@dataclass
class MineResponse:
    """What the front end receives from the mine endpoint."""

    dataset: str
    params: MiscelaParams
    caps: list[CAP]
    from_cache: bool
    elapsed_s: float
    timings: dict = field(default_factory=dict)
    stats: SearchStats | None = None  # None when served from the cache

    @property
    def n_caps(self) -> int:
        return len(self.caps)


class MiscelaApi:
    """Single-process stand-in for the django API server."""

    def __init__(self, spark: SparkSession, root: str | Path):
        self.spark = spark
        self.store = DatasetStore(root)
        self.cache = CapCache(self.store.docs)

    # ---- §3.2 upload ------------------------------------------------
    def upload(self, name: str, csv_dir: str | Path, chunk_lines: int = 10_000,
               interval_minutes: int = 60) -> dict:
        """Upload a CSV bundle under ``name``; re-uploading overwrites."""
        self.cache.drop()
        return upload_csv_bundle(
            self.store, name, csv_dir,
            chunk_lines=chunk_lines, interval_minutes=interval_minutes,
        )

    def datasets(self) -> list[str]:
        return self.store.names()

    # ---- §3.1 + §3.3 mine with cache --------------------------------
    def mine(self, dataset: str, params: MiscelaParams) -> MineResponse:
        """CAP mining, served from the cache when (dataset, params) was
        mined before — the §3.3 interactive-analysis accelerator."""
        t0 = time.perf_counter()
        cached = self.cache.get(dataset, params)
        if cached is not None:
            return MineResponse(
                dataset=dataset, params=params, caps=cached,
                from_cache=True, elapsed_s=time.perf_counter() - t0,
            )
        readings, locations, _ = self.store.load(self.spark, dataset)
        artifacts = mine_caps(self.spark, readings, locations, params)
        caps = rows_to_caps(artifacts.caps.collect())
        self.cache.put(dataset, params, caps)
        return MineResponse(
            dataset=dataset, params=params, caps=caps,
            from_cache=False, elapsed_s=time.perf_counter() - t0,
            timings=artifacts.timings, stats=artifacts.stats,
        )

    # ---- map interaction --------------------------------------------
    def correlated_sensors(self, dataset: str, params: MiscelaParams,
                           sensor_id: str) -> dict[str, list[str]]:
        """Sensors to highlight when ``sensor_id`` is clicked: every
        sensor sharing a CAP with it, with the shared attributes
        (paper §3.1: "sensors are highlighted if their measurements are
        correlated to measurements of the clicked sensor")."""
        return self._correlated(self.mine(dataset, params).caps, sensor_id)

    def _correlated(self, caps: list[CAP], sensor_id: str) -> dict[str, list[str]]:
        """The click answer for ``caps``, the CAPs a ``mine`` call just
        returned (so the cache slot holds them): scanned on the first
        click of ``sensor_id``, then kept in the slot's ``clicks``."""
        clicks = self.cache.clicks
        if sensor_id not in clicks:
            correlated: dict[str, set[str]] = {}
            for cap in caps:
                if sensor_id in cap.sensors:
                    for other in cap.sensors:
                        if other != sensor_id:
                            correlated.setdefault(other, set()).update(cap.attributes)
            clicks[sensor_id] = {s: sorted(a) for s, a in sorted(correlated.items())}
        return {s: list(a) for s, a in clicks[sensor_id].items()}

    # ---- Figure-3 payloads ------------------------------------------
    def map_payload(self, dataset: str, params: MiscelaParams,
                    clicked: str | None = None) -> dict:
        caps = self.mine(dataset, params).caps
        highlight = set(self._correlated(caps, clicked)) | {clicked} if clicked else set()
        return build_map_payload(self.store.files(dataset)[1], caps, highlight)

    def timeseries_payload(self, dataset: str, sensor_ids: list[str],
                           t_min: int | None = None, t_max: int | None = None) -> dict:
        readings, _, doc = self.store.files(dataset)
        return build_timeseries_payload(readings, sensor_ids, doc["meta"],
                                        t_min=t_min, t_max=t_max)
