"""Table 3 — the §3.3 caching mechanism.

"MISCELA may take a long time for finding CAPs ... For efficient
interactive analysis, MISCELA-V caches CAP mining results and reuses
the cached results if users specify the same parameter setting."

The harness plays an interactive session against :class:`MiscelaApi`:
each parameter setting is requested twice (the paper's "input the same
parameters to compare results repeatedly"); the first request mines,
the second must be served from the cache with identical results. The
warm request is answered from the cache's in-memory slot, so the same
request is also sent through a fresh ``MiscelaApi`` on the same store
(``store_s``): that one reads and decodes the cached document. Rows
report cold latency, warm latency, document-store latency, and the
speedup of the warm request.
"""
from __future__ import annotations

import dataclasses
import tempfile

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.types import MiscelaParams
from repro.server import MiscelaApi
from repro.smartcity import santander
from repro.smartcity.schema import write_csv_bundle

BASE = MiscelaParams(
    epsilon=0.05, eta_meters=800.0, mu=3, psi=8, segment_tolerance=0.02, max_sensors=5
)


def run(
    spark: SparkSession,
    scale: float = 0.02,
    seed: int = 7,
    psis: tuple[int, ...] = (4, 8, 16),
    root: str | None = None,
) -> pd.DataFrame:
    d = santander(spark, scale=scale, seed=seed)
    root = root or tempfile.mkdtemp(prefix="miscela_cache_")
    api = MiscelaApi(spark, root)
    with tempfile.TemporaryDirectory() as bundle:
        write_csv_bundle(
            bundle, d.readings.toPandas(), d.locations.toPandas(),
            d.attributes, d.start, d.interval_minutes,
        )
        api.upload("santander", bundle)

    rows = []
    for psi in psis:
        p = dataclasses.replace(BASE, psi=psi)
        cold = api.mine("santander", p)
        warm = api.mine("santander", p)
        store = MiscelaApi(spark, root).mine("santander", p)
        assert not cold.from_cache and warm.from_cache and store.from_cache
        assert set(warm.caps) == set(cold.caps)
        assert store.caps == warm.caps
        rows.append(
            {
                "psi": psi,
                "n_caps": cold.n_caps,
                "cold_s": round(cold.elapsed_s, 3),
                "warm_s": round(warm.elapsed_s, 4),
                "store_s": round(store.elapsed_s, 4),
                "speedup": round(cold.elapsed_s / max(warm.elapsed_s, 1e-9), 1),
            }
        )
    rows.append(
        {
            "psi": "total",
            "n_caps": sum(r["n_caps"] for r in rows),
            "cold_s": round(sum(r["cold_s"] for r in rows), 3),
            "warm_s": round(sum(r["warm_s"] for r in rows), 4),
            "store_s": round(sum(r["store_s"] for r in rows), 4),
            "speedup": round(
                sum(r["cold_s"] for r in rows) / max(sum(r["warm_s"] for r in rows), 1e-9), 1
            ),
        }
    )
    return pd.DataFrame(rows)
