"""Unit tests for step 2 (evolving-timestamp extraction): the numpy
kernel, the grouped-map frame with the DuckDB oracle pinning it to a
plain SQL ``lag``, and the one-pass gather of the mine path against the
pandas reference of steps 1–2."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.evolving import (
    active_sensors,
    evolving_sets,
    evolving_ticks,
    extract_evolving,
    gather_evolving,
)
from repro.core.segmentation import smooth_readings
from repro.core.types import MiscelaParams
from repro.oracle import assert_equivalent
from tests.helpers import A_JUMPS, B_JUMPS, C_JUMPS, ref_evolving, scene_readings_pdf, scene_spark


READINGS_SCHEMA = "sensor_id string, t long, value double"


def ref_sets(readings_pdf, tolerance, epsilon, psi):
    """(epos, eneg) of the sensors with ≥ ψ evolving ticks, from the
    pandas reference of steps 1–2."""
    ref = ref_evolving(readings_pdf, tolerance, epsilon)
    epos, eneg = {}, {}
    for s, g in ref.groupby("sensor_id"):
        if len(g) >= psi:
            epos[s] = frozenset(g["t"][g["direction"] == 1].tolist())
            eneg[s] = frozenset(g["t"][g["direction"] == -1].tolist())
    return epos, eneg


def noisy_readings_pdf(seed=0, n_sensors=7, n_ticks=80):
    """Random walks with interior and edge nulls, rows in no tick order."""
    g = np.random.default_rng(seed)
    frames = []
    for i in range(n_sensors):
        v = np.cumsum(g.normal(0, 1, n_ticks))
        v[g.random(n_ticks) < 0.08] = np.nan
        v[:2] = np.nan
        v[-1] = np.nan
        frames.append(pd.DataFrame({"sensor_id": f"s{i}", "t": np.arange(n_ticks), "value": v}))
    pdf = pd.concat(frames, ignore_index=True)
    return pdf.iloc[g.permutation(len(pdf))].reset_index(drop=True)


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


class TestEvolvingTicks:
    def test_strict_threshold_and_sign_split(self):
        t = np.arange(10, 16)
        sm = np.array([0.0, 0.5, 0.5, 0.2, 0.2 + 1e-9, 1.0])
        up, down = evolving_ticks(t, sm, 0.3)
        assert up.tolist() == [11, 15] and down.tolist() == []  # |−0.3| is not > 0.3
        up, down = evolving_ticks(t, sm, 0.0)
        assert up.tolist() == [11, 14, 15] and down.tolist() == [13]

    def test_matches_diff_reference(self):
        g = np.random.default_rng(5)
        sm = np.cumsum(g.normal(0, 0.05, 200))
        t = np.arange(200) + 7
        up, down = evolving_ticks(t, sm, 0.05)
        d = np.diff(sm)
        assert up.tolist() == (t[1:][d > 0.05]).tolist()
        assert down.tolist() == (t[1:][d < -0.05]).tolist()

    def test_short_series(self):
        for n in (0, 1):
            up, down = evolving_ticks(np.arange(n), np.zeros(n), 0.1)
            assert len(up) == len(down) == 0


class TestGatherEvolving:
    """The mine path's one Arrow pass against the pandas reference of
    steps 1–2 plus the ψ filter."""

    @pytest.mark.parametrize("psi", [1, 2, 4, 5])
    def test_scene_matches_reference(self, spark, psi):
        # ψ=4 leaves only cluster A and ψ=5 no sensor, so tasks return
        # empty batches, which must carry the declared Arrow types
        readings, _ = scene_spark(spark)
        got = gather_evolving(readings, MiscelaParams(epsilon=0.1, psi=psi, segment_tolerance=0.0))
        assert got == ref_sets(scene_readings_pdf(), 0.0, 0.1, psi)

    def test_psi_above_every_count_is_empty(self, spark):
        readings, _ = scene_spark(spark)
        assert gather_evolving(readings, MiscelaParams(epsilon=0.1, psi=1000)) == ({}, {})

    @pytest.mark.parametrize("tol", [0.0, 0.02, 0.05])
    def test_nulls_and_unsorted_rows_match_reference(self, spark, tol):
        pdf = noisy_readings_pdf()
        readings = spark.createDataFrame(pdf, READINGS_SCHEMA)
        for psi in (1, 6, 12):
            params = MiscelaParams(epsilon=0.05, psi=psi, segment_tolerance=tol)
            want = ref_sets(pdf, tol, 0.05, psi)
            assert gather_evolving(readings, params) == want
        assert want[0]  # the highest ψ still leaves sensors to compare

    @pytest.mark.parametrize("tol,eps,psi", [(0.03, 0.1, 2), (0.02, 0.05, 3)])
    def test_frame_adapters_agree_with_mine_path(self, spark, tol, eps, psi):
        # the traced pass times smooth → extract → sets; mine runs the gather
        for readings in (scene_spark(spark)[0],
                         spark.createDataFrame(noisy_readings_pdf(1), READINGS_SCHEMA)):
            adapters = evolving_sets(
                extract_evolving(smooth_readings(readings, tol), eps), psi
            )
            params = MiscelaParams(epsilon=eps, psi=psi, segment_tolerance=tol)
            assert adapters == gather_evolving(readings, params)
            assert adapters[0]
