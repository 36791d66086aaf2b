"""Step 2 of MISCELA: extracting evolving timestamps (paper §2.2 step 2).

A timestamp t *evolves* for a sensor iff the smoothed measurement moved
by more than the evolving rate ε since t−1 (paper §2.1: "if the amount
of changes from the previous timestamp is smaller than ε, the
timestamps are evaluated as that the measurements do not change").

The diff is a window ``lag`` partitioned by sensor — the relation
scales with readings, so it stays a DataFrame. What the later steps
need of it scales with sensors, so :func:`evolving_sets` gathers it to
the driver in one job, dropping the sensors that cannot reach ψ.
"""
from __future__ import annotations

import pandas as pd
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


def evolving_sets(
    evolving: DataFrame, psi: int
) -> tuple[dict[str, frozenset], dict[str, frozenset]]:
    """Increasing and decreasing evolving timestamps of every *active*
    sensor, gathered to the driver in one job. A sensor is active when
    it has at least ψ evolving timestamps; with fewer it can never reach
    support ψ, even alone."""
    epos: dict[str, frozenset] = {}
    eneg: dict[str, frozenset] = {}
    for r in (
        evolving.groupBy("sensor_id")
        .agg(
            F.collect_list(F.when(F.col("direction") == 1, F.col("t"))).alias("p"),
            F.collect_list(F.when(F.col("direction") == -1, F.col("t"))).alias("m"),
        )
        .where(F.size("p") + F.size("m") >= int(psi))
        .collect()
    ):
        epos[r["sensor_id"]] = frozenset(r["p"])
        eneg[r["sensor_id"]] = frozenset(r["m"])
    return epos, eneg


def active_sensors(evolving: DataFrame, psi: int) -> DataFrame:
    """Sensors that can still reach minimum support ψ, as a one-column
    ``sensor_id`` frame over :func:`evolving_sets`."""
    epos, _ = evolving_sets(evolving, psi)
    return evolving.sparkSession.createDataFrame(
        pd.DataFrame({"sensor_id": list(epos)}, dtype=object), "sensor_id string"
    )
