"""MISCELA: the full 4-step CAP mining pipeline (paper §2.2).

:func:`mine_caps` is the one mining entry point. Steps 1–3 run as
DataFrame dataflow, because their input, the readings, scales with
sensors × ticks: linear segmentation, evolving-timestamp extraction,
the active-sensor filter and the pairwise supports. The η-neighbor
graph, whose input has one row per sensor, is built on the driver by
:func:`repro.core.spatial.neighbor_edges`.
What step 4 needs scales with sensors only, so the driver collects it
once — the co-evolving edge list and, for the sensors on it, their
evolving timestamps split by direction and their attribute — labels
the components by union-find (:mod:`repro.core.components`) and runs
:func:`search_component` once per component (DESIGN.md §3).

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
from pyspark.sql import functions as F

from repro.core.components import union_find
from repro.core.coevolution import coevolving_edges
from repro.core.evolving import active_sensors, extract_evolving
from repro.core.search import search_component
from repro.core.segmentation import smooth_readings
from repro.core.spatial import neighbor_edges
from repro.core.types import CAP, MiscelaParams, SearchStats

CAPS_SCHEMA = "component string, sensors string, attributes string, support long, size long"
CAPS_COLUMNS = ["component", "sensors", "attributes", "support", "size"]


@dataclass
class MiningArtifacts:
    """Result of one mining run: the CAPs, the merged search
    statistics, one wall time per stage, and the intermediate relations
    as lazy DataFrames (Table 2 counts the co-evolving edges). Nothing
    stays persisted, so reading a relation again recomputes it."""

    smoothed: DataFrame
    evolving: DataFrame
    edges: DataFrame
    coev_edges: DataFrame
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


def _sensor_sets(
    evolving: DataFrame, locations: DataFrame, sensors: list[str]
) -> tuple[dict[str, frozenset], dict[str, frozenset], dict[str, str]]:
    """(increasing, decreasing evolving timestamps, attribute) of each
    of ``sensors``, collected to the driver."""
    if not sensors:
        return {}, {}, {}
    epos: dict[str, frozenset] = {}
    eneg: dict[str, frozenset] = {}
    for r in (
        evolving.where(F.col("sensor_id").isin(sensors))
        .groupBy("sensor_id")
        .agg(
            F.collect_list(F.when(F.col("direction") == 1, F.col("t"))).alias("p"),
            F.collect_list(F.when(F.col("direction") == -1, F.col("t"))).alias("m"),
        )
        .collect()
    ):
        epos[r["sensor_id"]] = frozenset(r["p"])
        eneg[r["sensor_id"]] = frozenset(r["m"])
    attribute = {
        r["sensor_id"]: r["attribute"]
        for r in locations.where(F.col("sensor_id").isin(sensors))
        .select("sensor_id", "attribute")
        .collect()
    }
    return epos, eneg, attribute


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

    ``timings`` holds one wall time per stage: ``segment_and_extract_s``,
    ``spatial_join_s``, ``collect_s`` (the driver's gather of the search
    inputs), ``search_s`` (components and the search) and
    ``caps_frame_s`` (the CAP list into ``caps``).
    """
    timings: dict = {}
    t0 = time.perf_counter()
    smoothed = smooth_readings(readings, params.segment_tolerance)
    # cached only while this run is open: the active filter, both sides
    # of the pair-support self-join and the gather below read it
    evolving = extract_evolving(smoothed, params.epsilon).cache()
    try:
        evolving.count()
        timings["segment_and_extract_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        active = active_sensors(evolving, params.psi)
        edges = neighbor_edges(locations.join(active, on="sensor_id"), params.eta_meters)
        coev = coevolving_edges(
            evolving, edges, params.psi, same_direction=params.same_direction
        )
        search_edges = [
            (r["src"], r["dst"])
            for r in (edges if naive_spatial else coev).select("src", "dst").collect()
        ]
        timings["spatial_join_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        nodes = sorted({s for edge in search_edges for s in edge})
        epos, eneg, attribute = _sensor_sets(evolving, locations, nodes)
        timings["collect_s"] = time.perf_counter() - t0
    finally:
        evolving.unpersist()

    t0 = time.perf_counter()
    labels = union_find(nodes, search_edges)
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
        smoothed=smoothed,
        evolving=evolving,
        edges=edges,
        coev_edges=coev,
        caps=caps_df,
        stats=stats,
        timings=timings,
    )
