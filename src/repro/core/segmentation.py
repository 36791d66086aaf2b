"""Step 1 of MISCELA: linear segmentation (paper §2.2 step 1).

"We filter uninteresting data fluctuation by applying a linear
segmentation algorithm to time series data." We segment greedily left
to right: a segment ends where its least-squares line would leave a
point more than ``tolerance`` away. :func:`segment_series` finds that
end by doubling and binary search, which is not the classic grow-by-one
sliding window: it assumes the max residual grows with window length,
which it does not (ROADMAP item 3). The smoothed series is each
segment's fitted line evaluated at the original timestamps, so
downstream steps keep one value per (sensor, t).

Before segmenting, each sensor series is min-max normalized to [0, 1]
(DESIGN.md §3) and nulls are linearly interpolated (the paper allows
null measurements in data.csv; edge nulls are back/forward filled). A
constant series normalizes to all-zeros, i.e. it never evolves.

The numpy kernel :func:`segment_series` is the single source of truth;
the distributed path wraps it in ``applyInPandas`` grouped by sensor.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

SMOOTHED_SCHEMA = "sensor_id string, t long, value double, smoothed double"


def normalize_series(values: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0,1] after interpolating interior nulls.

    Returns float64; a constant (or all-null) series maps to zeros.
    """
    v = pd.Series(np.asarray(values, dtype="float64"))
    v = v.interpolate(method="linear", limit_direction="both")
    v = v.to_numpy()
    if np.all(np.isnan(v)):
        return np.zeros_like(v)
    lo, hi = np.nanmin(v), np.nanmax(v)
    if hi - lo <= 0:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def _fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares line through (xs, ys) → (fitted values, max |resid|)."""
    if len(xs) <= 2:
        return ys.copy(), 0.0
    x0 = xs - xs[0]
    denom = float(np.dot(x0, x0) - len(x0) * (x0.mean() ** 2))
    if denom == 0:
        fitted = np.full_like(ys, ys.mean())
    else:
        slope = float(np.dot(x0 - x0.mean(), ys - ys.mean())) / denom
        intercept = float(ys.mean() - slope * x0.mean())
        fitted = intercept + slope * x0
    return fitted, float(np.max(np.abs(fitted - ys)))


def segment_series(values: np.ndarray, tolerance: float) -> np.ndarray:
    """Greedy left-to-right linear segmentation of one series.

    Doubles the window to find an upper bound on the segment end, then
    binary-searches the largest end still within ``tolerance`` —
    O(n log n) fits overall instead of O(n²) for grow-by-one. The max
    residual is not monotone in window length, so the segments can
    differ from grow-by-one's (ROADMAP item 3).
    ``tolerance <= 0`` returns the series unchanged (smoothing off).
    """
    v = np.asarray(values, dtype="float64")
    n = len(v)
    if tolerance <= 0 or n <= 2:
        return v.copy()
    out = np.empty(n)
    xs = np.arange(n, dtype="float64")
    start = 0
    while start < n:
        lo = min(start + 2, n)  # a 2-point segment always fits exactly
        hi = lo
        while hi < n:  # exponential probe for the first failing end
            nxt = min(n, start + 2 * max(1, hi - start))
            if nxt == hi:
                break
            _, err = _fit_line(xs[start:nxt], v[start:nxt])
            if err <= tolerance:
                hi = nxt
            else:
                # binary search in (hi, nxt] for last fitting end
                bad = nxt
                while hi + 1 < bad:
                    mid = (hi + bad) // 2
                    _, err = _fit_line(xs[start:mid], v[start:mid])
                    if err <= tolerance:
                        hi = mid
                    else:
                        bad = mid
                break
        fitted, _ = _fit_line(xs[start:hi], v[start:hi])
        out[start:hi] = fitted
        start = hi
    return out


def smooth_readings(readings: DataFrame, tolerance: float) -> DataFrame:
    """Distributed step 1: normalize + segment every sensor series.

    Parameters
    ----------
    readings:
        Long-format DataFrame ``(sensor_id string, t long, value double)``
        — ``t`` is the synchronized tick index (paper §2.1: "each sensor
        is synchronized"); ``value`` may be null.

    Returns ``(sensor_id, t, value, smoothed)`` where ``value`` is the
    normalized series and ``smoothed`` its segmented approximation.
    """

    def _smooth(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("t").reset_index(drop=True)
        norm = normalize_series(pdf["value"].to_numpy())
        pdf["value"] = norm
        pdf["smoothed"] = segment_series(norm, tolerance)
        return pdf[["sensor_id", "t", "value", "smoothed"]]

    return (
        readings.select("sensor_id", "t", "value")
        .groupBy("sensor_id")
        .applyInPandas(_smooth, schema=SMOOTHED_SCHEMA)
    )
