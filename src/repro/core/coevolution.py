"""Pairwise co-evolution supports (paper §2.1 "minimum support ψ").

Two sensors co-evolve at timestamp t when both have an evolving
timestamp at t; their support is the number of such t, computed on
the driver by :func:`repro.core.search.support`, the set intersection
the CAP search uses for larger sets. It (a) prunes the search: an edge
whose pairwise support is < ψ can never appear inside a CAP
(anti-monotonicity), and (b) directly powers Table 5 (east–west vs
north–south pair supports). :func:`coevolving_edges` gives the step as
a frame, for timing it alone and for the DuckDB oracle.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.evolving import evolving_sets
from repro.core.search import support


def coevolving_edges(
    evolving: DataFrame, edges: DataFrame, psi: int, same_direction: bool = False
) -> DataFrame:
    """Neighbor edges that meet the minimum support ψ — the only edges
    the CAP search needs to consider (anti-monotone edge pruning) — as
    ``(src, dst, support)``.

    Parameters
    ----------
    evolving:
        ``(sensor_id, t, direction)`` from
        :func:`repro.core.evolving.extract_evolving`.
    edges:
        η-neighbor edges ``(src, dst, ...)`` with src < dst.
    psi:
        Minimum support ψ; at ψ ≤ 1 these are the supports of every pair
        whose sensors co-evolve at all (support 0 is never listed).
    same_direction:
        Count only timestamps where both sensors move with the same
        sign (strict co-evolution; DESIGN.md §3).
    """
    epos, eneg = evolving_sets(evolving, 0)
    rows = [
        (r["src"], r["dst"], n)
        for r in edges.select("src", "dst").collect()
        if (n := support((r["src"], r["dst"]), epos, eneg, same_direction)) >= max(psi, 1)
    ]
    # from pandas, so that with Arrow on the frame is a local relation
    return evolving.sparkSession.createDataFrame(
        pd.DataFrame(rows, columns=["src", "dst", "support"]),
        "src string, dst string, support long",
    )
