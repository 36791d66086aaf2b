"""Pairwise co-evolution supports (paper §2.1 "minimum support ψ").

Two sensors co-evolve at timestamp t when both have an evolving
timestamp at t; their support is the number of such t. Computed as a
self-join of the evolving-timestamp relation on ``t`` restricted to the
η-neighbor pairs — a pure Catalyst dataflow that (a) prunes the search:
an edge whose pairwise support is < ψ can never appear inside a CAP
(anti-monotonicity), and (b) directly powers Table 5 (east–west vs
north–south pair supports).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def pair_supports(
    evolving: DataFrame, edges: DataFrame, same_direction: bool = False
) -> DataFrame:
    """Support of every neighbor pair: ``(src, dst, support)``.

    Parameters
    ----------
    evolving:
        ``(sensor_id, t, direction)`` from
        :func:`repro.core.evolving.extract_evolving`.
    edges:
        η-neighbor edges ``(src, dst, ...)`` with src < dst.
    same_direction:
        Count only timestamps where both sensors move with the same
        sign (strict co-evolution; DESIGN.md §3).

    Pairs whose sensors never co-evolve are absent (support 0).
    """
    e_src = evolving.select(
        F.col("sensor_id").alias("src"),
        F.col("t"),
        F.col("direction").alias("src_dir"),
    )
    e_dst = evolving.select(
        F.col("sensor_id").alias("dst"),
        F.col("t"),
        F.col("direction").alias("dst_dir"),
    )
    joined = (
        edges.select("src", "dst")
        .join(e_src, on="src")
        .join(e_dst, on=["dst", "t"])
    )
    if same_direction:
        joined = joined.where(F.col("src_dir") == F.col("dst_dir"))
    return joined.groupBy("src", "dst").agg(F.count("*").alias("support"))


def coevolving_edges(
    evolving: DataFrame, edges: DataFrame, psi: int, same_direction: bool = False
) -> DataFrame:
    """Neighbor edges that meet the minimum support ψ — the only edges
    the CAP search needs to consider (anti-monotone edge pruning)."""
    return pair_supports(evolving, edges, same_direction=same_direction).where(
        F.col("support") >= int(psi)
    )

