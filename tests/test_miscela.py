"""Integration tests: the full 4-step pipeline, its agreement with the
brute-force search and the unpruned baselines, and the planted-pattern
ground truth of the scene."""
import dataclasses

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.miscela import caps_to_rows, mine_caps, rows_to_caps
from repro.core.search import brute_force_caps
from repro.core.types import CAP, MiscelaParams
from repro.oracle import assert_equivalent
from tests.helpers import (
    ref_neighbor_edges,
    scene_locations_pdf,
    scene_readings_pdf,
    scene_spark,
)

PARAMS = MiscelaParams(epsilon=0.1, eta_meters=500.0, mu=3, psi=3,
                       segment_tolerance=0.0, max_sensors=5)


@pytest.fixture(scope="module")
def scene_mined(spark):
    readings, locations = scene_spark(spark)
    return mine_caps(spark, readings, locations, PARAMS)


def _cap_set(caps):
    return {(c.sensors, c.attributes, c.support) for c in caps}


class TestDistributedPipeline:
    def test_finds_exactly_the_planted_caps(self, spark, scene_mined):
        got = _cap_set(rows_to_caps(scene_mined.caps.collect()))
        # cluster A: three sensors, three attributes, all jump at the
        # same 4 ticks; every connected ≥2-attribute subset qualifies.
        # cluster B co-evolves only 3 ticks with ψ=3 → included.
        assert got == {
            (("a1", "a2"), ("temperature", "traffic"), 4),
            (("a1", "a3"), ("light", "temperature"), 4),
            (("a2", "a3"), ("light", "traffic"), 4),
            (("a1", "a2", "a3"), ("light", "temperature", "traffic"), 4),
            (("b1", "b2"), ("temperature", "traffic"), 3),
        }

    def test_psi_four_drops_cluster_b(self, spark):
        readings, locations = scene_spark(spark)
        art = mine_caps(spark, readings, locations, dataclasses.replace(PARAMS, psi=4))
        got = {tuple(r["sensors"].split(",")) for r in art.caps.collect()}
        assert ("b1", "b2") not in got and ("a1", "a2") in got

    def test_caps_schema(self, spark, scene_mined):
        assert scene_mined.caps.schema.simpleString() == (
            "struct<component:string,sensors:string,attributes:string,support:bigint,size:bigint>"
        )

    def test_component_labels_consistent(self, spark, scene_mined):
        rows = scene_mined.caps.collect()
        for r in rows:
            assert r["component"] in ("a1", "b1")
            assert r["sensors"].split(",")[0].startswith(r["component"][0])

    def test_size_column_matches_sensor_count(self, spark, scene_mined):
        for r in scene_mined.caps.collect():
            assert r["size"] == len(r["sensors"].split(","))

    def test_artifacts_expose_intermediates(self, spark, scene_mined):
        # c1 is inactive (1 evolving tick < ψ); A triangle + B pair
        pairs = {("a1", "a2"), ("a1", "a3"), ("a2", "a3"), ("b1", "b2")}
        assert sorted(scene_mined.edges) == sorted(pairs)
        # every pair co-evolves on ≥ ψ=3 ticks: A on 4, B on 3
        assert sorted(scene_mined.coev_edges) == sorted(pairs)
        assert set(scene_mined.timings) >= {"segment_and_extract_s", "spatial_join_s", "search_s"}

    def test_oracle_cap_count_by_size(self, spark, scene_mined):
        got = scene_mined.caps.groupBy("size").agg(F.count("*").alias("n"))
        assert_equivalent(
            got,
            "SELECT size, count(*) AS n FROM caps GROUP BY size",
            caps=scene_mined.caps,
        )


class TestLocalAndBaselineAgree:
    @pytest.mark.parametrize("same_direction", [False, True])
    def test_matches_brute_force(self, spark, same_direction):
        # the exhaustive search over the whole scene, fed straight from
        # the test fixture, knows nothing of components or pruning
        params = dataclasses.replace(PARAMS, same_direction=same_direction)
        readings, locations = scene_spark(spark)
        mined = mine_caps(spark, readings, locations, params)
        loc = scene_locations_pdf()
        attributes = dict(zip(loc["sensor_id"], loc["attribute"]))
        epos, eneg = {}, {}
        for s, g in scene_readings_pdf().sort_values("t").groupby("sensor_id"):
            diff = g["value"].diff()
            epos[s] = frozenset(g["t"][diff > PARAMS.epsilon])
            eneg[s] = frozenset(g["t"][diff < -PARAMS.epsilon])
        adjacency = {s: set() for s in attributes}
        for a, b in ref_neighbor_edges(loc, PARAMS.eta_meters):
            adjacency[a].add(b)
            adjacency[b].add(a)
        want = brute_force_caps(attributes, adjacency, epos, eneg, params)
        # with same_direction a3, the inverted series, co-evolves with
        # no one: only the a1-a2 and b1-b2 pairs remain
        assert len(want) == (2 if same_direction else 5)
        assert _cap_set(rows_to_caps(mined.caps.collect())) == _cap_set(want)
        assert mined.stats.emitted == len(want)

    def test_baseline_matches_miscela(self, spark, scene_mined):
        readings, locations = scene_spark(spark)
        base = mine_caps(spark, readings, locations, PARAMS, prune_support=False)
        assert _cap_set(rows_to_caps(base.caps.collect())) \
            == _cap_set(rows_to_caps(scene_mined.caps.collect()))

    def test_naive_spatial_baseline_matches_too(self, spark, scene_mined):
        readings, locations = scene_spark(spark)
        base = mine_caps(spark, readings, locations, PARAMS,
                         prune_support=False, naive_spatial=True)
        assert _cap_set(rows_to_caps(base.caps.collect())) \
            == _cap_set(rows_to_caps(scene_mined.caps.collect()))

    def test_miscela_never_does_more_support_work(self, spark, scene_mined):
        readings, locations = scene_spark(spark)
        naive = mine_caps(spark, readings, locations, PARAMS,
                          prune_support=False, naive_spatial=True)
        assert scene_mined.stats.nodes_expanded <= naive.stats.nodes_expanded


class TestRowConversion:
    def test_roundtrip(self):
        caps = [CAP(("b", "a"), ("y", "x"), 5, component="a"),
                CAP(("c", "d"), ("x", "z"), 2, component="c")]
        rows = caps_to_rows(caps)
        assert rows_to_caps(rows) == [
            CAP(("a", "b"), ("x", "y"), 5, "a"), CAP(("c", "d"), ("x", "z"), 2, "c")
        ]

    def test_rows_are_scalar_only(self):
        rows = caps_to_rows([CAP(("a", "b"), ("x", "y"), 5, "a")])
        assert rows[0] == {
            "component": "a", "sensors": "a,b", "attributes": "x,y",
            "support": 5, "size": 2,
        }


class TestEmptyInputs:
    def test_no_evolving_sensors_yields_no_caps(self, spark):
        # constant series → normalization zeros → nothing evolves
        pdf = pd.DataFrame(
            {"sensor_id": ["k"] * 5 + ["l"] * 5, "t": list(range(5)) * 2, "value": 1.0}
        )
        loc = pd.DataFrame(
            {"sensor_id": ["k", "l"], "attribute": ["x", "y"],
             "lat": [0.0, 0.0], "lon": [0.0, 0.0001]}
        )
        art = mine_caps(
            spark,
            spark.createDataFrame(pdf, "sensor_id string, t long, value double"),
            spark.createDataFrame(loc, "sensor_id string, attribute string, lat double, lon double"),
            PARAMS,
        )
        assert art.caps.count() == 0
        assert art.caps.columns == ["component", "sensors", "attributes", "support", "size"]
