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

The numpy kernel :func:`segment_series` is the single source of truth.
The mine path runs it inside the per-sensor Arrow pass of
:func:`repro.core.evolving.gather_evolving`; :func:`smooth_readings`
wraps it in ``applyInPandas`` for callers that need the smoothed series
as a frame. Its cost is numpy call overhead on small arrays, so each
fit reuses the x side computed once per window length and a segment
keeps its last accepted fit instead of refitting it; both change no
bit of the output (``tests/helpers.ref_segment_series`` holds the plain
version it is checked against).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

SMOOTHED_SCHEMA = "sensor_id string, t long, value double, smoothed double"


def normalize_series(values: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0,1] after filling nulls as pandas'
    ``interpolate(limit_direction="both")`` does, by the same ``np.interp``:
    linearly by position inside, with the nearest value at the edges.

    Returns float64; a constant (or all-null) series maps to zeros.
    """
    v = np.array(values, dtype="float64")
    null = np.isnan(v)
    if null.all():
        return np.zeros_like(v)
    if null.any():
        at = np.arange(len(v))
        v[null] = np.interp(at[null], at[~null], v[~null])
    lo, hi = v.min(), v.max()
    if hi - lo <= 0:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


@lru_cache(maxsize=256)
def _x_side(k: int) -> tuple[np.ndarray, float, np.ndarray, float]:
    """The x side of a least-squares fit over k points: ``x = 0..k-1``,
    its mean ``(k-1)/2``, the centred x and the denominator
    ``Σx² − k·mean²``. Every value is exact in float64, so computing
    them once per k changes no bit of any fit. The arrays are shared by
    every caller, so they are read-only."""
    x = np.arange(k, dtype="float64")
    xm = x.mean()
    xc = x - xm
    x.flags.writeable = xc.flags.writeable = False
    return x, xm, xc, float(np.dot(x, x) - k * (xm ** 2))


def _fit_line(ys: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares line through ``(0..k-1, ys)`` for k ≥ 3 →
    (fitted values, max |resid|)."""
    x, xm, xc, denom = _x_side(len(ys))
    ym = np.add.reduce(ys) / len(ys)  # ys.mean() without its Python wrapper
    slope = float(np.dot(xc, ys - ym)) / denom
    intercept = float(ym - slope * xm)
    fitted = intercept + slope * x
    resid = fitted - ys
    return fitted, np.maximum.reduce(np.absolute(resid, out=resid))


def segment_series(values: np.ndarray, tolerance: float) -> np.ndarray:
    """Greedy left-to-right linear segmentation of one series.

    Doubles the window to find an upper bound on the segment end, then
    binary-searches the largest end still within ``tolerance`` —
    O(n log n) fits overall instead of O(n²) for grow-by-one. The max
    residual is not monotone in window length, so the segments can
    differ from grow-by-one's (ROADMAP item 3). A segment's output is
    the fit of the last probe that was accepted, so no slice is fitted
    twice; a segment no probe extends (two points, or the last point)
    is copied as is.
    ``tolerance <= 0`` returns the series unchanged (smoothing off).
    """
    v = np.asarray(values, dtype="float64")
    n = len(v)
    if tolerance <= 0 or n <= 2:
        return v.copy()
    out = np.empty(n)
    start = 0
    while start < n:
        hi = min(start + 2, n)  # a 2-point segment always fits exactly
        fitted = v[start:hi]
        while hi < n:  # exponential probe for the first failing end
            nxt = min(n, start + 2 * (hi - start))
            probe, err = _fit_line(v[start:nxt])
            if err <= tolerance:
                hi, fitted = nxt, probe
            else:
                # binary search in (hi, nxt] for last fitting end
                bad = nxt
                while hi + 1 < bad:
                    mid = (hi + bad) // 2
                    probe, err = _fit_line(v[start:mid])
                    if err <= tolerance:
                        hi, fitted = mid, probe
                    else:
                        bad = mid
                break
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
