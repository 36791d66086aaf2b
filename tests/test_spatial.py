"""Unit tests for step 3a (the η-neighbor graph's latitude band sweep)
against the O(n²) haversine reference."""
import numpy as np
import pandas as pd
import pytest

from repro.core.spatial import neighbor_edges
from repro.core.geo import haversine_np, meters_to_lat_degrees, meters_to_lon_degrees
from tests.helpers import ref_neighbor_edges, scene_locations_pdf

LOC_SCHEMA = "sensor_id string, attribute string, lat double, lon double"


def _edges_set(df):
    return {(r["src"], r["dst"]) for r in df.collect()}


def _random_locations(seed: int, n: int, span_deg: float = 0.05,
                      center=(43.46, -3.80)) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "sensor_id": [f"s{i:03d}" for i in range(n)],
            "attribute": g.choice(["temp", "traffic", "light"], n),
            "lat": center[0] + g.uniform(-span_deg, span_deg, n),
            "lon": center[1] + g.uniform(-span_deg, span_deg, n),
        }
    )


def _station_grid(rows: int = 6, cols: int = 8, attributes: int = 3) -> pd.DataFrame:
    """China6-style stations 60 km apart on an exact lat/lon grid, with
    several co-located sensors per station: every sensor of a grid row
    shares one latitude, so the sweep's sort is full of ties."""
    dlat = meters_to_lat_degrees(60_000.0)
    dlon = meters_to_lon_degrees(60_000.0, at_latitude=32.0)
    return pd.DataFrame(
        [
            {"sensor_id": f"st{r}_{c}_{k}", "attribute": f"attr{k}",
             "lat": 32.0 + r * dlat, "lon": 110.0 + c * dlon}
            for r in range(rows) for c in range(cols) for k in range(attributes)
        ]
    )


def _layout(layout) -> pd.DataFrame:
    """A random 60-sensor layout for an int seed, else a named layout."""
    if isinstance(layout, int):
        return _random_locations(layout, 60)
    if layout == "antimeridian":
        # ~213 m apart across the ±180° meridian
        return pd.DataFrame({"sensor_id": ["e", "w"], "attribute": ["a", "b"],
                             "lat": [-17.0, -17.0], "lon": [179.999, -179.999]})
    if layout == "station_grid":
        return _station_grid()
    if layout == "random300":
        return _random_locations(7, 300)
    raise ValueError(layout)


class TestNeighborEdges:
    def test_scene_clusters(self, spark):
        loc = spark.createDataFrame(scene_locations_pdf(), LOC_SCHEMA)
        got = _edges_set(neighbor_edges(loc, 500.0))
        # cluster A pairwise close, cluster B pair, C isolated
        assert got == {("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("b1", "b2")}

    def test_scene_large_eta_connects_ab(self, spark):
        loc = spark.createDataFrame(scene_locations_pdf(), LOC_SCHEMA)
        got = _edges_set(neighbor_edges(loc, 15_000.0))
        assert ("a1", "b1") in got and ("c1", "c1") not in {tuple(sorted(e)) for e in got}

    @pytest.mark.parametrize(
        "layout,eta",
        [
            (0, 500.0), (1, 1500.0), (2, 3000.0), (3, 800.0),
            ("antimeridian", 1000.0),
            ("station_grid", 70_000.0), ("station_grid", 90_000.0),
            ("random300", 500.0), ("random300", 2000.0),
        ],
    )
    def test_matches_bruteforce_reference(self, spark, layout, eta):
        pdf = _layout(layout)
        got = _edges_set(neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), eta))
        assert got == ref_neighbor_edges(pdf, eta)

    def test_southern_hemisphere(self, spark):
        pdf = _random_locations(4, 40, center=(-33.9, 151.2))  # Sydney-ish
        got = _edges_set(neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 2000.0))
        assert got == ref_neighbor_edges(pdf, 2000.0)

    def test_spanning_equator(self, spark):
        pdf = _random_locations(5, 40, center=(0.0, 10.0))
        got = _edges_set(neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 3000.0))
        assert got == ref_neighbor_edges(pdf, 3000.0)

    def test_colocated_different_attribute_sensors_are_neighbors(self, spark):
        # §4 footnote 2: same location, different attribute ⇒ distinct
        # sensors; distance 0 < η so they must form an edge
        pdf = pd.DataFrame(
            {
                "sensor_id": ["x1", "x2"],
                "attribute": ["temp", "traffic"],
                "lat": [43.46, 43.46],
                "lon": [-3.80, -3.80],
            }
        )
        got = _edges_set(neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 100.0))
        assert got == {("x1", "x2")}

    def test_strictly_less_than_eta(self, spark):
        # two sensors ~1111.95 m apart (0.01 deg lat): η at the exact
        # distance must exclude, slightly above must include
        pdf = pd.DataFrame(
            {"sensor_id": ["p", "q"], "attribute": ["a", "b"],
             "lat": [0.0, 0.01], "lon": [0.0, 0.0]}
        )
        d = float(haversine_np(np.array(0.0), np.array(0.0), np.array(0.01), np.array(0.0)))
        loc = spark.createDataFrame(pdf, LOC_SCHEMA)
        assert _edges_set(neighbor_edges(loc, d)) == set()
        assert _edges_set(neighbor_edges(loc, d + 1.0)) == {("p", "q")}

    def test_empty_input(self, spark):
        loc = spark.createDataFrame([], LOC_SCHEMA)
        out = neighbor_edges(loc, 500.0)
        assert out.count() == 0
        assert set(out.columns) == {"src", "dst", "dist_m"}

    def test_single_sensor(self, spark):
        loc = spark.createDataFrame(
            pd.DataFrame({"sensor_id": ["only"], "attribute": ["a"], "lat": [1.0], "lon": [2.0]}),
            LOC_SCHEMA,
        )
        assert neighbor_edges(loc, 10_000.0).count() == 0

    def test_dist_column_correct(self, spark):
        pdf = scene_locations_pdf()
        out = neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 500.0).toPandas()
        by_id = pdf.set_index("sensor_id")
        for _, r in out.iterrows():
            want = haversine_np(
                np.array(by_id.loc[r["src"], "lat"]), np.array(by_id.loc[r["src"], "lon"]),
                np.array(by_id.loc[r["dst"], "lat"]), np.array(by_id.loc[r["dst"], "lon"]),
            )
            assert r["dist_m"] == pytest.approx(float(want), rel=1e-9)

    def test_src_always_less_than_dst_and_no_duplicates(self, spark):
        pdf = _random_locations(6, 50)
        out = neighbor_edges(spark.createDataFrame(pdf, LOC_SCHEMA), 2000.0).toPandas()
        assert (out["src"] < out["dst"]).all()
        assert not out.duplicated(["src", "dst"]).any()
