"""Table 2 — parameter sensitivity (paper §2.1).

The paper states, per parameter, how the number of discovered CAPs
moves: η↑ ⇒ more CAPs (more sensors are spatially close), ψ↓ ⇒ more
(weaker co-evolution accepted), μ↑ ⇒ more (larger attribute sets
admitted), and — its ε claim — "if ε is large, sensors likely
co-evolve, so the number of CAPs likely becomes large".

The ε claim cannot hold under the paper's own absolute-support
definition: raising ε only removes evolving timestamps
(E_ε2(s) ⊆ E_ε1(s) for ε2 > ε1), so every set's support is
non-increasing in ε and the CAP set at a larger ε is a *subset* of the
CAP set at a smaller ε. We therefore expect — and verify — #CAPs
non-increasing in ε, and record the discrepancy with the paper's
informal statement in EXPERIMENTS.md (it would hold for a *relative*
support, e.g. shared fraction of evolving timestamps, where a large ε
filters unshared noise).

This harness sweeps one parameter at a time around a base setting on
Santander-lite and reports #CAPs, so EXPERIMENTS.md can diff the
*directions* against §2.1.
"""
from __future__ import annotations

import dataclasses

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.miscela import mine_caps
from repro.core.types import MiscelaParams
from repro.smartcity import santander

BASE = MiscelaParams(
    epsilon=0.05, eta_meters=800.0, mu=3, psi=8, segment_tolerance=0.02, max_sensors=5
)

SWEEPS: dict[str, list] = {
    "epsilon": [0.02, 0.05, 0.10],
    "eta_meters": [300.0, 800.0, 2000.0],
    "psi": [4, 8, 16],
    "mu": [2, 3, 4],
}


def run(
    spark: SparkSession,
    scale: float = 0.02,
    seed: int = 7,
    sweeps: dict[str, list] | None = None,
    base: MiscelaParams = BASE,
) -> pd.DataFrame:
    d = santander(spark, scale=scale, seed=seed)
    readings = d.readings.cache()
    locations = d.locations.cache()
    rows = []
    for param, values in (sweeps or SWEEPS).items():
        for v in values:
            p = dataclasses.replace(base, **{param: v})
            art = mine_caps(spark, readings, locations, p)
            rows.append(
                {
                    "param": param,
                    "value": v,
                    "n_caps": art.caps.count(),
                    "n_coev_edges": len(art.coev_edges),
                    "search_s": round(art.timings["search_s"], 3),
                }
            )
    readings.unpersist()
    locations.unpersist()
    return pd.DataFrame(rows)


def direction_ok(df: pd.DataFrame) -> dict[str, bool]:
    """Check the monotone directions on a sweep result: more CAPs as
    η↑, μ↑; fewer as ψ↑ (paper §2.1) and fewer as ε↑ (the provable
    direction under absolute support — see module docstring)."""
    out = {}
    for param, increasing in (
        ("epsilon", False), ("eta_meters", True), ("mu", True), ("psi", False)
    ):
        sub = df[df["param"] == param].sort_values("value")["n_caps"].tolist()
        out[param] = (
            sub == sorted(sub) if increasing else sub == sorted(sub, reverse=True)
        )
    return out
