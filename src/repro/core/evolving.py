"""Step 2 of MISCELA: extracting evolving timestamps (paper §2.2 step 2).

A timestamp t *evolves* for a sensor iff the smoothed measurement moved
by more than the evolving rate ε since t−1 (paper §2.1: "if the amount
of changes from the previous timestamp is smaller than ε, the
timestamps are evaluated as that the measurements do not change").

Implemented as a window ``lag`` partitioned by sensor — the canonical
Catalyst expression of a per-entity temporal diff.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def extract_evolving(smoothed: DataFrame, epsilon: float) -> DataFrame:
    """Evolving timestamps of every sensor.

    Parameters
    ----------
    smoothed:
        Output of :func:`repro.core.segmentation.smooth_readings`
        (needs ``sensor_id``, ``t``, ``smoothed``).
    epsilon:
        Evolving rate ε in normalized units; strictly-greater threshold.

    Returns ``(sensor_id, t, direction)`` with ``direction`` ∈ {1, -1}
    (increase / decrease), one row per evolving timestamp.
    """
    w = Window.partitionBy("sensor_id").orderBy("t")
    diff = F.col("smoothed") - F.lag("smoothed").over(w)
    return (
        smoothed.withColumn("_diff", diff)
        .where(F.col("_diff").isNotNull() & (F.abs("_diff") > F.lit(float(epsilon))))
        .select(
            "sensor_id",
            "t",
            F.when(F.col("_diff") > 0, F.lit(1)).otherwise(F.lit(-1)).alias("direction"),
        )
    )


def evolving_counts(evolving: DataFrame) -> DataFrame:
    """Per-sensor evolving-timestamp counts ``(sensor_id, n_evolving)``
    — used to drop never-evolving sensors before the spatial join (a
    sensor with fewer than ψ evolving timestamps can never reach
    support ψ, even alone)."""
    return evolving.groupBy("sensor_id").agg(F.count("*").alias("n_evolving"))


def active_sensors(evolving: DataFrame, psi: int) -> DataFrame:
    """Sensors that can still reach minimum support ψ."""
    return (
        evolving_counts(evolving)
        .where(F.col("n_evolving") >= int(psi))
        .select("sensor_id")
    )
