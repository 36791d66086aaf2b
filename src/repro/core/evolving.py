"""Step 2 of MISCELA: extracting evolving timestamps (paper §2.2 step 2).

A timestamp t *evolves* for a sensor iff the smoothed measurement moved
by more than the evolving rate ε since t−1 (paper §2.1: "if the amount
of changes from the previous timestamp is smaller than ε, the
timestamps are evaluated as that the measurements do not change").

The numpy kernel :func:`evolving_ticks` is the one definition of the
step. :func:`gather_evolving` is the mine path: one Arrow grouped map
per sensor runs steps 1–2 on the readings and sends to the driver only
the evolving ticks of the sensors that can reach ψ. The frame functions
:func:`extract_evolving`, :func:`evolving_sets` and
:func:`active_sensors` expose the same stage as relations, for timing
each step on its own.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.segmentation import normalize_series, segment_series
from repro.core.types import MiscelaParams

EVOLVING_SCHEMA = "sensor_id string, t long, direction int"
_EVOLVING_ARROW = pa.schema(
    [("sensor_id", pa.string()), ("t", pa.int64()), ("direction", pa.int32())]
)
_TICK_SETS_ARROW = pa.schema(
    [
        ("sensor_id", pa.string()),
        ("increasing", pa.list_(pa.int64())),
        ("decreasing", pa.list_(pa.int64())),
    ]
)
TICK_SETS_SCHEMA = "sensor_id string, increasing array<long>, decreasing array<long>"


def evolving_ticks(
    t: np.ndarray, smoothed: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Evolving ticks of one sensor's series, sorted by ``t`` →
    (increasing ticks, decreasing ticks): each tick whose smoothed value
    differs from the previous tick's by more than ε (strictly), split by
    the sign of the difference."""
    d = np.diff(smoothed)
    moved = np.abs(d) > epsilon
    up = d > 0
    later = t[1:]
    return later[moved & up], later[moved & ~up]


def _series(table: pa.Table, column: str) -> tuple[np.ndarray, np.ndarray]:
    """One sensor's ``(t, column)`` in tick order; nulls become NaN."""
    table = table.sort_by("t")
    return table.column("t").to_numpy(), table.column(column).to_numpy()


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

    # unannotated: Spark takes type hints on a grouped map as its UDF kind
    def _extract(key, table):
        up, down = evolving_ticks(*_series(table, "smoothed"), epsilon)
        n = len(up) + len(down)
        return pa.table(
            [
                pa.array([key[0].as_py()] * n, pa.string()),
                np.concatenate([up, down]),
                np.repeat(np.int32([1, -1]), [len(up), len(down)]),
            ],
            schema=_EVOLVING_ARROW,
        )

    return (
        smoothed.select("sensor_id", "t", "smoothed")
        .groupBy("sensor_id")
        .applyInArrow(_extract, schema=EVOLVING_SCHEMA)
    )


def gather_evolving(
    readings: DataFrame, params: MiscelaParams
) -> tuple[dict[str, frozenset], dict[str, frozenset]]:
    """Steps 1–2 in one pass: the increasing and decreasing evolving
    timestamps of every *active* sensor of the raw ``readings``.

    Each sensor's series is sorted by ``t``, normalized, segmented and
    diffed in its Spark task, and the task sends back one row per
    sensor with at least ψ evolving timestamps (with fewer it can never
    reach support ψ, even alone). The result equals
    ``evolving_sets(extract_evolving(smooth_readings(readings, tol), ε), ψ)``
    without the readings-sized smoothed relation ever leaving Python.
    """
    tolerance, epsilon, psi = params.segment_tolerance, params.epsilon, params.psi

    def _gather(key, table):
        t, values = _series(table, "value")
        up, down = evolving_ticks(
            t, segment_series(normalize_series(values), tolerance), epsilon
        )
        if len(up) + len(down) < psi:
            return _TICK_SETS_ARROW.empty_table()
        return pa.table(
            [
                pa.array([key[0].as_py()], pa.string()),
                pa.array([up], pa.list_(pa.int64())),
                pa.array([down], pa.list_(pa.int64())),
            ],
            schema=_TICK_SETS_ARROW,
        )

    sets = (
        readings.select("sensor_id", "t", "value")
        .groupBy("sensor_id")
        .applyInArrow(_gather, schema=TICK_SETS_SCHEMA)
        .toArrow()
    )
    ids = sets.column("sensor_id").to_pylist()
    return (
        dict(zip(ids, map(frozenset, sets.column("increasing").to_pylist()))),
        dict(zip(ids, map(frozenset, sets.column("decreasing").to_pylist()))),
    )


def evolving_sets(
    evolving: DataFrame, psi: int
) -> tuple[dict[str, frozenset], dict[str, frozenset]]:
    """Increasing and decreasing evolving timestamps of every *active*
    sensor (≥ ψ evolving timestamps) of an :func:`extract_evolving`
    frame, gathered to the driver in one job."""
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
