"""Unit tests for pairwise co-evolution supports, pinned to DuckDB SQL
via the oracle: at ψ = 1 ``coevolving_edges`` lists the support of every
neighbor pair that co-evolves at all."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.coevolution import coevolving_edges
from repro.core.evolving import extract_evolving
from repro.core.segmentation import smooth_readings
from repro.core.spatial import neighbor_edges
from repro.oracle import assert_equivalent
from tests.helpers import scene_spark

LOC_SCHEMA = "sensor_id string, attribute string, lat double, lon double"


@pytest.fixture(scope="module")
def scene(spark):
    readings, locations = scene_spark(spark)
    ev = extract_evolving(smooth_readings(readings, 0.0), 0.1).cache()
    edges_near = neighbor_edges(locations, 500.0).cache()
    edges_far = neighbor_edges(locations, 50_000.0).cache()
    return ev, edges_near, edges_far


class TestPairSupports:
    def test_cluster_a_full_support(self, spark, scene):
        ev, edges, _ = scene
        got = {(r["src"], r["dst"]): r["support"]
               for r in coevolving_edges(ev, edges, 1).collect()}
        # all of cluster A jumps at the same 4 ticks; B pair at 3 ticks
        assert got[("a1", "a2")] == 4
        assert got[("a1", "a3")] == 4
        assert got[("a2", "a3")] == 4
        assert got[("b1", "b2")] == 3

    def test_cross_cluster_pairs_have_no_common_ticks(self, spark, scene):
        ev, _, edges_far = scene
        got = {(r["src"], r["dst"]): r["support"]
               for r in coevolving_edges(ev, edges_far, 1).collect()}
        # a* jumps {5,10,15,20}, b* jumps {7,14,21} — no overlap, so the
        # pair is absent from the support relation entirely
        assert ("a1", "b1") not in got

    def test_same_direction_excludes_inverted_sensor(self, spark, scene):
        ev, edges, _ = scene
        loose = {(r["src"], r["dst"]): r["support"]
                 for r in coevolving_edges(ev, edges, 1, same_direction=False).collect()}
        strict = {(r["src"], r["dst"]): r["support"]
                  for r in coevolving_edges(ev, edges, 1, same_direction=True).collect()}
        # a3 is the inverted series: loose counts its ticks, strict drops them
        assert loose[("a1", "a3")] == 4
        assert ("a1", "a3") not in strict
        assert strict[("a1", "a2")] == 4

    def test_oracle_duckdb_join(self, spark, scene):
        ev, edges, _ = scene
        assert_equivalent(
            coevolving_edges(ev, edges, 1),
            """
            SELECT e.src AS src, e.dst AS dst, count(*) AS support
            FROM edges e
            JOIN ev a ON a.sensor_id = e.src
            JOIN ev b ON b.sensor_id = e.dst AND b.t = a.t
            GROUP BY e.src, e.dst
            """,
            edges=edges.select("src", "dst"),
            ev=ev,
        )

    def test_oracle_duckdb_same_direction(self, spark, scene):
        ev, edges, _ = scene
        assert_equivalent(
            coevolving_edges(ev, edges, 1, same_direction=True),
            """
            SELECT e.src AS src, e.dst AS dst, count(*) AS support
            FROM edges e
            JOIN ev a ON a.sensor_id = e.src
            JOIN ev b ON b.sensor_id = e.dst AND b.t = a.t
                     AND b.direction = a.direction
            GROUP BY e.src, e.dst
            """,
            edges=edges.select("src", "dst"),
            ev=ev,
        )


class TestCoevolvingEdges:
    @pytest.mark.parametrize("psi,expected_pairs", [
        (1, {("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("b1", "b2")}),
        (4, {("a1", "a2"), ("a1", "a3"), ("a2", "a3")}),
        (5, set()),
    ])
    def test_psi_threshold(self, spark, scene, psi, expected_pairs):
        ev, edges, _ = scene
        got = {(r["src"], r["dst"]) for r in coevolving_edges(ev, edges, psi).collect()}
        assert got == expected_pairs
