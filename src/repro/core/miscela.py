"""MISCELA: the full 4-step CAP mining pipeline (paper §2.2).

:func:`mine_caps` is the one mining entry point. Spark runs only what
scales with readings (sensors × ticks): linear segmentation and
evolving-timestamp extraction. One job then gathers, per active sensor
(≥ ψ evolving timestamps), its evolving timestamps split by direction
(:func:`repro.core.evolving.evolving_sets`), and one collect brings the
locations. Everything after that scales with sensors and runs on the
driver: the η-neighbor graph by a latitude band sweep
(:func:`repro.core.spatial.neighbor_pairs`), the pairwise supports by
the search's own set intersection (:func:`repro.core.search.support`),
union-find components
(:mod:`repro.core.components`) and :func:`search_component` once per
component (DESIGN.md §3).

Components are computed over the *co-evolving* η-edges (pairwise
support ≥ ψ), which is sound and complete: inside any valid CAP every
pair's support is at least the CAP's support ≥ ψ, so the CAP's induced
η-subgraph and induced co-evolving subgraph coincide — a CAP can never
straddle two co-evolving components (DESIGN.md §3).

Table 4's baselines are the same run with ``prune_support=False`` (no
anti-monotone pruning) and ``naive_spatial=True`` (search the raw
η-neighbor graph).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.components import union_find
from repro.core.evolving import evolving_sets, extract_evolving
from repro.core.search import search_component, support
from repro.core.segmentation import smooth_readings
from repro.core.spatial import neighbor_pairs
from repro.core.types import CAP, MiscelaParams, SearchStats

CAPS_SCHEMA = "component string, sensors string, attributes string, support long, size long"
CAPS_COLUMNS = ["component", "sensors", "attributes", "support", "size"]


@dataclass
class MiningArtifacts:
    """Result of one mining run: the CAPs, the merged search
    statistics, one wall time per stage, and the η-neighbor and
    co-evolving edges as ``(src, dst)`` lists with src < dst (Table 2
    counts the co-evolving edges)."""

    edges: list[tuple[str, str]]
    coev_edges: list[tuple[str, str]]
    caps: DataFrame
    stats: SearchStats
    timings: dict = field(default_factory=dict)


def caps_to_rows(caps: list[CAP]) -> list[dict]:
    """CAP list → rows matching :data:`CAPS_SCHEMA` (lists are joined
    with ',' so every column stays scalar/orderable for the oracle)."""
    return [
        {
            "component": c.component,
            "sensors": ",".join(c.sensors),
            "attributes": ",".join(c.attributes),
            "support": c.support,
            "size": c.size,
        }
        for c in caps
    ]


def rows_to_caps(rows) -> list[CAP]:
    """Inverse of :func:`caps_to_rows`; accepts Spark Rows or dicts."""
    out = []
    for r in rows:
        d = r.asDict() if hasattr(r, "asDict") else dict(r)
        out.append(
            CAP(
                sensors=tuple(d["sensors"].split(",")),
                attributes=tuple(d["attributes"].split(",")),
                support=int(d["support"]),
                component=d["component"],
            )
        )
    return out


def mine_caps(
    spark: SparkSession,
    readings: DataFrame,
    locations: DataFrame,
    params: MiscelaParams,
    prune_support: bool = True,
    naive_spatial: bool = False,
) -> MiningArtifacts:
    """Mine every CAP of a dataset.

    Parameters
    ----------
    readings:
        ``(sensor_id string, t long, value double)`` long-format
        synchronized measurements (nulls allowed).
    locations:
        ``(sensor_id, attribute, lat, lon)`` — one row per sensor.
    prune_support:
        False runs the Table-4 baseline: the same enumeration without
        anti-monotone support pruning.
    naive_spatial:
        True searches the raw η-neighbor graph instead of the
        co-evolving edges (Table 4's fully naive miner). The CAPs are
        the same; their component labels come from the η-graph.

    ``timings`` holds one wall time per stage: ``segment_and_extract_s``
    (including the gather of the evolving timestamps), ``spatial_join_s``
    (the locations, the η-graph and the pair supports), ``search_s``
    (components and the search) and ``caps_frame_s`` (the CAP list into
    ``caps``).
    """
    timings: dict = {}
    t0 = time.perf_counter()
    smoothed = smooth_readings(readings, params.segment_tolerance)
    epos, eneg = evolving_sets(extract_evolving(smoothed, params.epsilon), params.psi)
    timings["segment_and_extract_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    loc = locations.select("sensor_id", "attribute", "lat", "lon").toPandas()
    attribute = dict(zip(loc["sensor_id"], loc["attribute"]))
    near = neighbor_pairs(loc[loc["sensor_id"].isin(set(epos))], params.eta_meters)
    edges = list(zip(near["src"], near["dst"]))
    coev = [
        (a, b) for a, b in edges
        if support((a, b), epos, eneg, params.same_direction) >= params.psi
    ]
    timings["spatial_join_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    search_edges = edges if naive_spatial else coev
    labels = union_find((), search_edges)
    adjacency: dict[str, set] = {}
    for a, b in search_edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    groups: dict[str, list[str]] = {}
    for s, comp in labels.items():
        groups.setdefault(comp, []).append(s)
    caps: list[CAP] = []
    stats = SearchStats()
    for comp, members in sorted(groups.items()):
        found, comp_stats = search_component(
            {s: attribute[s] for s in members},
            adjacency,
            epos,
            eneg,
            params,
            component=comp,
            prune_support=prune_support,
        )
        caps.extend(found)
        stats.merge(comp_stats)
    timings["search_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # from pandas, so that with Arrow on the frame is a local relation:
    # collecting it back runs no Spark job
    caps_df = spark.createDataFrame(
        pd.DataFrame(caps_to_rows(caps), columns=CAPS_COLUMNS), CAPS_SCHEMA
    )
    timings["caps_frame_s"] = time.perf_counter() - t0

    return MiningArtifacts(
        edges=edges,
        coev_edges=coev,
        caps=caps_df,
        stats=stats,
        timings=timings,
    )
