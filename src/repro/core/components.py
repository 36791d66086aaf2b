"""Step 3b of MISCELA: spatially connected sensor sets (paper §2.2
step 3) — connected components of the sensor graph.

The graph the search needs is the co-evolving η-edge list, which scales
with sensors × local density, not with readings (about a thousand edges
at full Santander size), so it is labeled on the driver by union-find
with path halving. The label of a component is its smallest member.

Isolated sensors (no neighbor within η) form singleton components; CAPs
need ≥ 2 sensors so singletons are dropped by the search, but they are
kept here because the map view still renders them.
"""
from __future__ import annotations

from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame


def union_find(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> dict[str, str]:
    """sensor_id → component label (smallest sensor_id in the component)
    for every node and every edge endpoint; edges are undirected."""
    parent: dict[str, str] = {s: s for s in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {s: find(s) for s in parent}


def connected_components(sensors: DataFrame, edges: DataFrame) -> DataFrame:
    """Label every sensor with its component id.

    Parameters
    ----------
    sensors:
        DataFrame with a ``sensor_id`` column (one row per sensor).
    edges:
        Undirected edges ``(src, dst)`` (``dist_m`` ignored if present).

    Returns ``(sensor_id, component)`` where ``component`` is the
    lexicographically smallest sensor_id in the component. Both inputs
    are collected to the driver; see the module docstring for why that
    is small.
    """
    ids = list(dict.fromkeys(r["sensor_id"] for r in sensors.select("sensor_id").collect()))
    labels = union_find(
        ids, ((r["src"], r["dst"]) for r in edges.select("src", "dst").collect())
    )
    return sensors.sparkSession.createDataFrame(
        pd.DataFrame({"sensor_id": ids, "component": [labels[s] for s in ids]}, dtype=object),
        "sensor_id string, component string",
    )
