"""Unit tests for step 2 (evolving-timestamp extraction) with the
DuckDB oracle pinning the window-lag dataflow to plain SQL."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.evolving import active_sensors, evolving_sets, extract_evolving
from repro.core.segmentation import smooth_readings
from repro.oracle import assert_equivalent
from tests.helpers import A_JUMPS, B_JUMPS, C_JUMPS, ref_evolving, scene_readings_pdf, scene_spark


@pytest.fixture(scope="module")
def scene_smoothed(spark):
    readings, _ = scene_spark(spark)
    return smooth_readings(readings, 0.0).cache()


class TestExtractEvolving:
    def test_scene_jump_ticks_exact(self, spark, scene_smoothed):
        out = extract_evolving(scene_smoothed, epsilon=0.1).toPandas()
        got = {
            sid: sorted(grp["t"]) for sid, grp in out.groupby("sensor_id")
        }
        assert got == {
            "a1": list(A_JUMPS), "a2": list(A_JUMPS), "a3": list(A_JUMPS),
            "b1": list(B_JUMPS), "b2": list(B_JUMPS), "c1": list(C_JUMPS),
        }

    def test_directions(self, spark, scene_smoothed):
        out = extract_evolving(scene_smoothed, epsilon=0.1).toPandas()
        assert set(out[out["sensor_id"] == "a1"]["direction"]) == {1}
        assert set(out[out["sensor_id"] == "a3"]["direction"]) == {-1}  # inverted series

    def test_epsilon_strictly_greater(self, spark):
        # diff exactly == ε must NOT evolve
        pdf = pd.DataFrame({"sensor_id": "x", "t": [0, 1, 2], "value": [0.0, 0.5, 1.0]})
        sm = smooth_readings(
            spark.createDataFrame(pdf, "sensor_id string, t long, value double"), 0.0
        )
        assert extract_evolving(sm, epsilon=0.5).count() == 0
        assert extract_evolving(sm, epsilon=0.49).count() == 2

    def test_large_epsilon_kills_everything(self, spark, scene_smoothed):
        assert extract_evolving(scene_smoothed, epsilon=1.0).count() == 0

    def test_epsilon_monotone_in_count(self, spark, scene_smoothed):
        counts = [extract_evolving(scene_smoothed, e).count() for e in (0.01, 0.1, 0.3)]
        assert counts == sorted(counts, reverse=True)

    def test_matches_pandas_reference(self, spark, scene_smoothed):
        got = (
            extract_evolving(scene_smoothed, 0.1)
            .toPandas()
            .sort_values(["sensor_id", "t"])
            .reset_index(drop=True)
        )
        want = (
            ref_evolving(scene_readings_pdf(), 0.0, 0.1)
            .sort_values(["sensor_id", "t"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_oracle_duckdb_lag_sql(self, spark, scene_smoothed):
        smoothed_pdf = scene_smoothed.toPandas()
        got = extract_evolving(scene_smoothed, 0.1).select("sensor_id", "t", "direction")
        assert_equivalent(
            got,
            """
            WITH lagged AS (
              SELECT sensor_id, t,
                     smoothed - lag(smoothed) OVER (PARTITION BY sensor_id ORDER BY t) AS d
              FROM sm
            )
            SELECT sensor_id, t,
                   CASE WHEN d > 0 THEN 1 ELSE -1 END AS direction
            FROM lagged WHERE d IS NOT NULL AND abs(d) > 0.1
            """,
            sm=smoothed_pdf,
        )


class TestEvolvingCountsAndActive:
    @pytest.mark.parametrize(
        "psi,expected",
        [
            (1, {"a1", "a2", "a3", "b1", "b2", "c1"}),
            (2, {"a1", "a2", "a3", "b1", "b2"}),
            (4, {"a1", "a2", "a3"}),
            (5, set()),
        ],
    )
    def test_active_sensors_threshold(self, spark, scene_smoothed, psi, expected):
        ev = extract_evolving(scene_smoothed, 0.1)
        got = {r["sensor_id"] for r in active_sensors(ev, psi).collect()}
        assert got == expected

    def test_sets_match_reference_split_by_direction(self, spark, scene_smoothed):
        # psi=2 drops c1, the one sensor with a single evolving tick
        epos, eneg = evolving_sets(extract_evolving(scene_smoothed, 0.1), 2)
        ref = ref_evolving(scene_readings_pdf(), 0.0, 0.1)
        ref = ref[ref["sensor_id"] != "c1"]
        assert set(epos) == set(eneg) == set(ref["sensor_id"])
        for s, g in ref.groupby("sensor_id"):
            assert epos[s] == frozenset(g["t"][g["direction"] == 1])
            assert eneg[s] == frozenset(g["t"][g["direction"] == -1])
