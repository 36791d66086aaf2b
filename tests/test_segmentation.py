"""Unit tests for step 1 (linear segmentation + normalization), both
the numpy kernels and the distributed applyInPandas wrapper."""
import numpy as np
import pandas as pd
import pytest

from repro.core.segmentation import (
    normalize_series,
    segment_series,
    smooth_readings,
)
from tests.helpers import (
    fuzz_nulls,
    fuzz_series,
    ref_normalize_series,
    ref_segment_series,
    scene_readings_pdf,
    scene_spark,
    step_series,
)


class TestNormalizeSeries:
    def test_identity_on_unit_range(self):
        v = np.array([0.0, 0.25, 1.0, 0.5])
        np.testing.assert_allclose(normalize_series(v), v)

    def test_scales_to_unit_range(self):
        out = normalize_series(np.array([10.0, 20.0, 30.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_constant_series_maps_to_zeros(self):
        np.testing.assert_array_equal(normalize_series(np.full(5, 7.0)), np.zeros(5))

    def test_all_nan_maps_to_zeros(self):
        np.testing.assert_array_equal(normalize_series(np.full(4, np.nan)), np.zeros(4))

    def test_interior_nan_interpolated(self):
        out = normalize_series(np.array([0.0, np.nan, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_edge_nans_filled(self):
        out = normalize_series(np.array([np.nan, 0.0, 1.0, np.nan]))
        assert not np.isnan(out).any()
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 1.0])

    def test_negative_values(self):
        out = normalize_series(np.array([-10.0, 0.0, 10.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_fuzz_equals_pandas_reference(self):
        for seed in range(2_000):
            v = fuzz_nulls(seed)
            assert np.array_equal(normalize_series(v), ref_normalize_series(v),
                                  equal_nan=True), seed

    def test_input_left_unchanged(self):
        v = np.array([np.nan, 2.0, np.nan, 4.0])
        normalize_series(v)
        assert np.array_equal(v, [np.nan, 2.0, np.nan, 4.0], equal_nan=True)


class TestSegmentSeries:
    def test_tolerance_zero_is_identity(self):
        v = np.random.default_rng(0).random(50)
        np.testing.assert_array_equal(segment_series(v, 0.0), v)

    def test_short_series_unchanged(self):
        v = np.array([0.3, 0.9])
        np.testing.assert_array_equal(segment_series(v, 0.1), v)

    def test_perfect_line_single_segment(self):
        v = np.linspace(0, 1, 40)
        out = segment_series(v, 0.01)
        np.testing.assert_allclose(out, v, atol=1e-9)

    def test_respects_tolerance(self):
        g = np.random.default_rng(1)
        v = np.clip(np.cumsum(g.normal(0, 0.05, 100)), -3, 3)
        tol = 0.1
        out = segment_series(v, tol)
        assert np.max(np.abs(out - v)) <= tol + 1e-9

    def test_filters_small_fluctuation_keeps_jump(self):
        # tiny noise around 0 then a big step: smoothing kills the noise
        # (diffs below tol) but keeps the jump visible
        g = np.random.default_rng(2)
        v = np.concatenate([g.normal(0, 0.005, 30), 1.0 + g.normal(0, 0.005, 30)])
        out = segment_series(v, 0.05)
        diffs = np.abs(np.diff(out))
        assert diffs[29] > 0.5  # the jump survives
        small = np.delete(diffs, 29)
        assert np.all(small < 0.05)

    def test_piecewise_linear_recovered(self):
        v = np.concatenate([np.linspace(0, 1, 20), np.linspace(1, 0, 20)])
        out = segment_series(v, 0.02)
        assert np.max(np.abs(out - v)) <= 0.02 + 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_tiny_lengths(self, n):
        v = np.arange(n, dtype="float64")
        out = segment_series(v, 0.1)
        assert len(out) == n and np.all(np.isfinite(out))

    def test_output_length_always_matches(self):
        for seed in range(5):
            v = np.random.default_rng(seed).random(73)
            assert len(segment_series(v, 0.08)) == 73


class TestSegmentSeriesBitIdentity:
    """The kernel against the frozen reference of its spec, compared
    with ``array_equal``: the fast fit must not move a single bit."""

    @pytest.mark.parametrize("block", range(8))
    def test_fuzz_equals_reference(self, block):
        for seed in range(block * 250, (block + 1) * 250):
            v, tol = fuzz_series(seed)
            assert np.array_equal(segment_series(v, tol), ref_segment_series(v, tol)), seed

    def test_scene_and_lengths_equal_reference(self):
        v = step_series((5, 10, 15, 20)) + np.random.default_rng(3).normal(0, 0.01, 30)
        for n in range(1, 30):
            for tol in (0.005, 0.02, 0.05):
                assert np.array_equal(segment_series(v[:n], tol), ref_segment_series(v[:n], tol))


class TestSmoothReadingsDistributed:
    def test_matches_kernel_per_sensor(self, spark):
        readings, _ = scene_spark(spark)
        tol = 0.03
        got = smooth_readings(readings, tol).toPandas().sort_values(["sensor_id", "t"])
        for sid, grp in got.groupby("sensor_id"):
            raw = scene_readings_pdf()
            raw = raw[raw["sensor_id"] == sid].sort_values("t")
            norm = normalize_series(raw["value"].to_numpy())
            np.testing.assert_allclose(grp["value"].to_numpy(), norm, atol=1e-12)
            np.testing.assert_allclose(
                grp["smoothed"].to_numpy(), segment_series(norm, tol), atol=1e-12
            )

    def test_schema_and_cardinality(self, spark):
        readings, _ = scene_spark(spark)
        out = smooth_readings(readings, 0.0)
        assert set(out.columns) == {"sensor_id", "t", "value", "smoothed"}
        assert out.count() == readings.count()

    def test_nulls_interpolated_not_dropped(self, spark):
        pdf = pd.DataFrame(
            {"sensor_id": "x", "t": range(5), "value": [0.0, None, 1.0, None, 0.5]}
        )
        out = (
            smooth_readings(
                spark.createDataFrame(pdf, "sensor_id string, t long, value double"), 0.0
            )
            .toPandas()
            .sort_values("t")
        )
        assert len(out) == 5 and out["smoothed"].notna().all()

    def test_step_series_survives_smoothing(self, spark):
        # step jumps are exactly preserved at tolerance 0
        readings, _ = scene_spark(spark)
        out = smooth_readings(readings, 0.0).toPandas()
        a1 = out[out["sensor_id"] == "a1"].sort_values("t")["smoothed"].to_numpy()
        np.testing.assert_allclose(a1, step_series((5, 10, 15, 20)), atol=1e-12)
