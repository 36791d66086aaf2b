"""Unit tests for step 3b (connected components by union-find) against
a flood-fill reference, both on plain Python and through the DataFrame
wrapper."""
import numpy as np
import pandas as pd
import pytest

from repro.core.components import connected_components, union_find
from tests.helpers import ref_components


def _run(spark, sensors, edges):
    sdf = spark.createDataFrame(pd.DataFrame({"sensor_id": sensors}), "sensor_id string")
    edf = spark.createDataFrame(
        pd.DataFrame(list(edges) or [], columns=["src", "dst"]), "src string, dst string"
    )
    out = connected_components(sdf, edf)
    assert out.columns == ["sensor_id", "component"]
    return {r["sensor_id"]: r["component"] for r in out.collect()}


class TestConnectedComponents:
    def test_two_triangles(self, spark):
        edges = {("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")}
        got = _run(spark, list("abcxyz"), edges)
        assert got == {"a": "a", "b": "a", "c": "a", "x": "x", "y": "x", "z": "x"}

    def test_isolated_sensors_are_singletons(self, spark):
        got = _run(spark, ["a", "b", "lone"], {("a", "b")})
        assert got["lone"] == "lone" and got["a"] == got["b"] == "a"

    def test_long_chain(self, spark):
        sensors = [f"n{i:02d}" for i in range(12)]
        edges = {(sensors[i], sensors[i + 1]) for i in range(11)}
        got = _run(spark, sensors, edges)
        assert set(got.values()) == {"n00"}

    def test_no_edges(self, spark):
        got = _run(spark, ["a", "b", "c"], set())
        assert got == {"a": "a", "b": "b", "c": "c"}

    def test_empty_graph(self, spark):
        assert _run(spark, [], set()) == {}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_match_union_find(self, spark, seed):
        g = np.random.default_rng(seed)
        sensors = [f"s{i:02d}" for i in range(25)]
        edges = set()
        for i in range(25):
            for j in range(i + 1, 25):
                if g.random() < 0.06:
                    edges.add((sensors[i], sensors[j]))
        got = _run(spark, sensors, edges)
        assert got == ref_components(sensors, edges)

    def test_component_label_is_min_member(self, spark):
        got = _run(spark, ["z", "m", "a"], {("z", "m"), ("m", "a")})
        assert set(got.values()) == {"a"}


class TestUnionFind:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs_match_flood_fill(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 60))
        sensors = [f"s{i:02d}" for i in g.permutation(n)]
        edges = {
            (sensors[i], sensors[j])
            for i in range(n) for j in range(n) if i != j and g.random() < 1.5 / n
        }
        assert union_find(sensors, edges) == ref_components(sensors, edges)

    def test_edge_endpoints_join_the_nodes(self):
        assert union_find((), [("b", "c"), ("c", "a"), ("x", "y")]) == {
            "a": "a", "b": "a", "c": "a", "x": "x", "y": "x"
        }
