"""Table 5 — the China wind-direction case study (paper §4).

"sensors are not correlated if two sensors are vertically (north and
south) close to each other, but if sensors are horizontally (east and
west) close, they are correlated. These are often caused by wind
directions."

On the China grid (each latitude band shares an advected pollution
signal), we take every η-neighbor pair, classify it as east–west
(|Δlat| small relative to |Δlon|) or north–south (the converse), and
report per class: pair count, mean co-evolution support, and the
fraction of pairs that are co-evolving at ψ. The shape to match:
E–W pairs far exceed N–S pairs in support and co-evolving fraction.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.evolving import gather_evolving
from repro.core.search import support
from repro.core.spatial import neighbor_pairs
from repro.core.types import MiscelaParams
from repro.smartcity import china6

PARAMS = MiscelaParams(
    epsilon=0.05, eta_meters=70_000.0, mu=3, psi=8, segment_tolerance=0.02
)


def run(
    spark: SparkSession,
    scale: float = 0.004,
    seed: int = 11,
    params: MiscelaParams = PARAMS,
) -> pd.DataFrame:
    d = china6(spark, scale=scale, seed=seed)
    # at ψ = 1 every sensor with an evolving tick is kept; one without
    # has support 0 with every other sensor, which `support` gives too
    epos, eneg = gather_evolving(d.readings, replace(params, psi=1))
    loc = d.locations.toPandas()
    pairs = neighbor_pairs(loc, params.eta_meters)

    # orientation from the location deltas; 3x factor separates grid
    # rows (Δlat ≈ 0) from grid columns (Δlon ≈ 0); co-located
    # same-station pairs (different attributes) are their own class
    at = loc.set_index("sensor_id")
    dlat = (pairs["src"].map(at["lat"]) - pairs["dst"].map(at["lat"])).abs()
    dlon = (pairs["src"].map(at["lon"]) - pairs["dst"].map(at["lon"])).abs()
    pairs["orientation"] = np.select(
        [(dlat < 1e-9) & (dlon < 1e-9), dlon > 3 * dlat, dlat > 3 * dlon],
        ["same_station", "east_west", "north_south"],
        "diagonal",
    )
    pairs["support"] = [
        support(pair, epos, eneg, same_direction=False)
        for pair in zip(pairs["src"], pairs["dst"])
    ]
    pairs["coevolving"] = pairs["support"] >= params.psi
    out = pairs.groupby("orientation", as_index=False).agg(
        n_pairs=("support", "size"),
        mean_support=("support", "mean"),
        coevolving_frac=("coevolving", "mean"),
    )
    return out.round({"mean_support": 2, "coevolving_frac": 3})
