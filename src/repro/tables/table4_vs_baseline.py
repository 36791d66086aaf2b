"""Table 4 — MISCELA vs the unpruned baseline (paper §2.2).

"MISCELA supports efficient computation for CAP mining" via the
spatially restricted, anti-monotone-pruned tree search. We compare
three miners that provably return the same CAPs:

* **miscela** — co-evolving-edge graph + support pruning,
* **no-prune** — co-evolving-edge graph, no support pruning,
* **naive**   — raw η-graph, no support pruning (the fully naive
  search the MDM paper's baselines approximate).

Rows report search wall-time and nodes expanded per ψ. A search takes
well under a second and its time varies by up to 1.6× between runs of
the same code, so each ``*_search_s`` is the median ``search_s`` of
:data:`REPS` mines; the node counts are the same in every run. The
*shape* to match: miscela ≤ no-prune ≤ naive in work, with the gap
widening as ψ grows (more pruning opportunity).
"""
from __future__ import annotations

import dataclasses
import statistics

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.miscela import mine_caps
from repro.core.types import MiscelaParams
from repro.smartcity import santander

# η=2000 m (vs the 800 m of Tables 2/7) deliberately over-connects the
# spatial graph: background sensors join cluster components, so the
# naive η-lattice is much larger than the co-evolving-edge lattice and
# the pruning gap the table measures actually exists.
BASE = MiscelaParams(
    epsilon=0.05, eta_meters=2000.0, mu=3, psi=8, segment_tolerance=0.02, max_sensors=5
)

REPS = 5  # mines per miner and ψ; the time columns are their median


def _cap_keys(rows) -> set[tuple[str, int]]:
    return {(r["sensors"], r["support"]) for r in rows}


def _mine(spark, readings, locations, params, **miner):
    """:data:`REPS` mines with one miner → (the first run, median search_s)."""
    runs = [mine_caps(spark, readings, locations, params, **miner) for _ in range(REPS)]
    return runs[0], statistics.median(r.timings["search_s"] for r in runs)


def run(
    spark: SparkSession,
    scale: float = 0.02,
    seed: int = 7,
    psis: tuple[int, ...] = (4, 8, 16),
) -> pd.DataFrame:
    d = santander(spark, scale=scale, seed=seed)
    readings = d.readings.cache()
    locations = d.locations.cache()
    rows = []
    for psi in psis:
        p = dataclasses.replace(BASE, psi=psi)
        fast, t_fast = _mine(spark, readings, locations, p)
        slow, t_slow = _mine(spark, readings, locations, p, prune_support=False)
        naive, t_naive = _mine(
            spark, readings, locations, p, prune_support=False, naive_spatial=True
        )
        fast_caps = fast.caps.collect()
        assert _cap_keys(fast_caps) == _cap_keys(slow.caps.collect()) \
            == _cap_keys(naive.caps.collect())
        rows.append(
            {
                "psi": psi,
                "n_caps": len(fast_caps),
                "miscela_search_s": round(t_fast, 3),
                "noprune_search_s": round(t_slow, 3),
                "naive_search_s": round(t_naive, 3),
                "miscela_nodes": fast.stats.nodes_expanded,
                "noprune_nodes": slow.stats.nodes_expanded,
                "naive_nodes": naive.stats.nodes_expanded,
                "speedup_vs_naive": round(t_naive / max(t_fast, 1e-9), 1),
            }
        )
    readings.unpersist()
    locations.unpersist()
    return pd.DataFrame(rows)
