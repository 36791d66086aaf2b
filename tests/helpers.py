"""Shared test fixtures: a hand-crafted smart-city scene with exactly
known evolving timestamps and CAPs, plus pandas/numpy reference
implementations used as oracles for the distributed stages.

The **two-cluster scene**: cluster A (three sensors, three attributes,
pairwise ≤ ~250 m apart) shares step-jumps at ticks {5, 10, 15, 20};
cluster B (two sensors, two attributes, ~10 km away) jumps at
{7, 14, 21}; a lone sensor C jumps at {3}. All series are piecewise
constant in [0, 1] with min 0 / max 1, so min-max normalization is the
identity and with ``segment_tolerance=0`` the evolving timestamps equal
the jump ticks exactly.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.geo import haversine_np

N_TICKS = 30
A_JUMPS = (5, 10, 15, 20)
B_JUMPS = (7, 14, 21)
C_JUMPS = (3,)


def step_series(jumps: tuple[int, ...], n_ticks: int = N_TICKS, sign: int = 1) -> np.ndarray:
    """Piecewise-constant series jumping by ±1/len(jumps) at each jump
    tick; min 0 and max 1 (after sign flip for decreasing series)."""
    v = np.zeros(n_ticks)
    for j in jumps:
        v[j:] += 1.0 / len(jumps)
    if sign < 0:
        v = 1.0 - v
    return v


SCENE_SENSORS = [
    # sensor_id, attribute, lat, lon, jumps, sign
    ("a1", "temperature", 43.4620, -3.8020, A_JUMPS, 1),
    ("a2", "traffic", 43.4635, -3.8020, A_JUMPS, 1),
    ("a3", "light", 43.4620, -3.7995, A_JUMPS, -1),
    ("b1", "temperature", 43.5500, -3.8020, B_JUMPS, 1),
    ("b2", "traffic", 43.5513, -3.8020, B_JUMPS, 1),
    ("c1", "humidity", 43.3000, -3.9500, C_JUMPS, 1),
]


def scene_locations_pdf() -> pd.DataFrame:
    return pd.DataFrame(
        [
            {"sensor_id": s, "attribute": a, "lat": lat, "lon": lon}
            for s, a, lat, lon, _, _ in SCENE_SENSORS
        ]
    )


def scene_readings_pdf() -> pd.DataFrame:
    frames = []
    for s, _, _, _, jumps, sign in SCENE_SENSORS:
        v = step_series(jumps, sign=sign)
        frames.append(pd.DataFrame({"sensor_id": s, "t": np.arange(N_TICKS), "value": v}))
    return pd.concat(frames, ignore_index=True)


def scene_spark(spark):
    """(readings, locations) Spark DataFrames of the scene."""
    return (
        spark.createDataFrame(scene_readings_pdf(), "sensor_id string, t long, value double"),
        spark.createDataFrame(scene_locations_pdf(), "sensor_id string, attribute string, lat double, lon double"),
    )


# ---- reference implementations (oracles) ----------------------------

def ref_neighbor_edges(locations_pdf: pd.DataFrame, eta_meters: float) -> set[tuple[str, str]]:
    """O(n²) haversine reference for the η-neighbor band sweep."""
    out = set()
    rows = locations_pdf.to_dict("records")
    for i, r1 in enumerate(rows):
        for r2 in rows[i + 1 :]:
            d = haversine_np(
                np.array(r1["lat"]), np.array(r1["lon"]),
                np.array(r2["lat"]), np.array(r2["lon"]),
            )
            if d < eta_meters:
                a, b = sorted([r1["sensor_id"], r2["sensor_id"]])
                out.add((a, b))
    return out


def ref_components(sensors: list[str], edges: set[tuple[str, str]]) -> dict[str, str]:
    """Flood-fill reference for the union-find components: each sensor
    is labeled with the smallest sensor reachable from it."""
    adj: dict[str, set[str]] = {s: set() for s in sensors}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out: dict[str, str] = {}
    for s in sorted(sensors):
        if s in out:
            continue
        todo, seen = [s], {s}
        while todo:
            for w in adj[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
        for w in seen:
            out[w] = s  # s is the smallest: sensors are visited in order
    return out


def ref_evolving(readings_pdf: pd.DataFrame, tolerance: float, epsilon: float) -> pd.DataFrame:
    """Pandas reference of steps 1–2 (shares the numpy kernels, which
    are themselves unit-tested against hand-computed values)."""
    from repro.core.segmentation import normalize_series, segment_series

    rows = []
    for sid, grp in readings_pdf.groupby("sensor_id"):
        grp = grp.sort_values("t")
        sm = segment_series(normalize_series(grp["value"].to_numpy()), tolerance)
        d = np.diff(sm)
        ts = grp["t"].to_numpy()
        for i, dd in enumerate(d):
            if abs(dd) > epsilon:
                rows.append({"sensor_id": sid, "t": int(ts[i + 1]), "direction": 1 if dd > 0 else -1})
    return pd.DataFrame(rows, columns=["sensor_id", "t", "direction"])


def _ref_fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, float]:
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


def ref_segment_series(values: np.ndarray, tolerance: float) -> np.ndarray:
    """Frozen reference of ``segment_series``: the current spec
    (doubling, then binary search for the segment end, one plain
    least-squares fit per probe) as the kernel computed it before its
    fits were made cheaper, kept verbatim so the kernel is held to it
    bit for bit. When ROADMAP item 3 changes the spec to the classic
    grow-by-one sliding window, a grow-by-one oracle replaces it."""
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
            _, err = _ref_fit_line(xs[start:nxt], v[start:nxt])
            if err <= tolerance:
                hi = nxt
            else:
                # binary search in (hi, nxt] for last fitting end
                bad = nxt
                while hi + 1 < bad:
                    mid = (hi + bad) // 2
                    _, err = _ref_fit_line(xs[start:mid], v[start:mid])
                    if err <= tolerance:
                        hi = mid
                    else:
                        bad = mid
                break
        fitted, _ = _ref_fit_line(xs[start:hi], v[start:hi])
        out[start:hi] = fitted
        start = hi
    return out


def fuzz_series(seed: int) -> tuple[np.ndarray, float]:
    """One seeded (series, tolerance) case for segmentation fuzzing:
    uniform noise, a random walk, or step plateaus with 1e-3 noise, of
    length 3–900, at a tolerance in {0, 0.005, 0.02, 0.05, 0.2}."""
    g = np.random.default_rng(seed)
    n = int(g.integers(3, 901))
    kind = seed % 3
    if kind == 0:
        v = g.random(n)
    elif kind == 1:
        v = np.cumsum(g.normal(0, 0.05, n))
    else:
        levels = g.random(int(g.integers(1, 12)))
        v = levels[np.sort(g.integers(0, len(levels), n))] + g.normal(0, 1e-3, n)
    return v, float(g.choice([0.0, 0.005, 0.02, 0.05, 0.2]))


def random_graph_instance(seed: int, n: int = 8, n_attrs: int = 3, n_ticks: int = 25,
                          edge_prob: float = 0.45, evolve_prob: float = 0.4):
    """Random (attributes, adjacency, epos, eneg) for search-kernel
    fuzzing against the brute-force oracle."""
    g = np.random.default_rng(seed)
    sensors = [f"s{i}" for i in range(n)]
    attributes = {s: f"attr{int(g.integers(n_attrs))}" for s in sensors}
    adjacency = {s: set() for s in sensors}
    for i in range(n):
        for j in range(i + 1, n):
            if g.random() < edge_prob:
                adjacency[sensors[i]].add(sensors[j])
                adjacency[sensors[j]].add(sensors[i])
    epos, eneg = {}, {}
    for s in sensors:
        mask = g.random(n_ticks) < evolve_prob
        ticks = np.nonzero(mask)[0]
        split = g.random(len(ticks)) < 0.5
        epos[s] = frozenset(int(t) for t in ticks[split])
        eneg[s] = frozenset(int(t) for t in ticks[~split])
    return attributes, adjacency, epos, eneg
