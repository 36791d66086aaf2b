"""Tests for the storage substrate: document store (MongoDB stand-in),
dataset store, and the §3.3 CAP cache."""
import dataclasses

import pandas as pd
import pyarrow as pa
import pytest

from repro.core.types import CAP, MiscelaParams
from repro.store import CapCache, DatasetStore, DocumentStore


class TestDocumentStore:
    def test_insert_and_get(self, tmp_path):
        db = DocumentStore(tmp_path)
        i = db.insert("col", {"a": 1})
        assert db.get("col", i) == {"a": 1}

    def test_get_missing_returns_none(self, tmp_path):
        assert DocumentStore(tmp_path).get("col", "nope") is None

    def test_explicit_id_overwrites(self, tmp_path):
        db = DocumentStore(tmp_path)
        db.insert("col", {"v": 1}, doc_id="k")
        db.insert("col", {"v": 2}, doc_id="k")
        assert db.get("col", "k") == {"v": 2}
        assert db.count("col") == 1

    def test_find_by_equality(self, tmp_path):
        db = DocumentStore(tmp_path)
        db.insert("col", {"name": "a", "x": 1})
        db.insert("col", {"name": "b", "x": 1})
        db.insert("col", {"name": "a", "x": 2})
        assert len(list(db.find("col", name="a"))) == 2
        assert len(list(db.find("col", name="a", x=2))) == 1
        assert list(db.find("col", name="zzz")) == []

    def test_delete(self, tmp_path):
        db = DocumentStore(tmp_path)
        db.insert("col", {"v": 1}, doc_id="k")
        assert db.delete("col", "k") is True
        assert db.delete("col", "k") is False
        assert db.get("col", "k") is None

    def test_collections_are_isolated(self, tmp_path):
        db = DocumentStore(tmp_path)
        db.insert("c1", {"v": 1}, doc_id="k")
        assert db.get("c2", "k") is None

    @pytest.mark.parametrize("bad", ["", "a/b", "a\\b", "a.b", "..", "a b"])
    def test_bad_collection_names_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError, match="bad collection name"):
            DocumentStore(tmp_path).insert(bad, {})

    @pytest.mark.parametrize("bad", ["../x", "a/b", "a\\b", "a.b", "..", "x y"])
    def test_bad_document_ids_rejected(self, tmp_path, bad):
        db = DocumentStore(tmp_path)
        for op in (lambda: db.get("col", bad), lambda: db.delete("col", bad),
                   lambda: db.insert("col", {}, doc_id=bad)):
            with pytest.raises(ValueError, match="bad document id"):
                op()
        assert db.count("col") == 0

    def test_nested_documents_roundtrip(self, tmp_path):
        db = DocumentStore(tmp_path)
        doc = {"caps": [{"sensors": ["a", "b"], "support": 3}], "params": {"psi": 5}}
        db.insert("col", doc, doc_id="k")
        assert db.get("col", "k") == doc


class TestDatasetStore:
    READINGS = pd.DataFrame({"sensor_id": ["a", "a"], "t": [0, 1], "value": [1.0, None]})
    LOCATIONS = pd.DataFrame({"sensor_id": ["a"], "attribute": ["temp"], "lat": [1.0],
                              "lon": [2.0]})

    def test_save_load_roundtrip(self, spark, tmp_path):
        store = DatasetStore(tmp_path)
        store.save("d1", self.READINGS, self.LOCATIONS, ["temp"], meta={"k": "v"})
        r, l, doc = store.load(spark, "d1")
        assert r.count() == 2 and l.count() == 1
        assert doc["attributes"] == ["temp"] and doc["meta"] == {"k": "v"}

    def test_failed_save_leaves_the_old_dataset_whole(self, spark, tmp_path):
        store = DatasetStore(tmp_path)
        store.save("d", self.READINGS, self.LOCATIONS, ["temp"], meta={"v": 1})
        # the locations cannot be cast: the readings were already written
        with pytest.raises(pa.ArrowException):
            store.save("d", self.READINGS.assign(value=[7.0, 8.0]),
                       self.LOCATIONS.assign(lat=["north"]), ["temp"], meta={"v": 2})
        r, l, doc = store.load(spark, "d")
        assert [x["value"] for x in r.orderBy("t").collect()] == [1.0, None]
        assert l.count() == 1 and doc["meta"] == {"v": 1}
        assert sorted(p.name for p in (tmp_path / "data" / "d").iterdir()) == [
            "locations.parquet", "readings.parquet"]

    def test_exists_and_names(self, spark, tmp_path):
        store = DatasetStore(tmp_path)
        assert not store.exists("x")
        store.save("x", self.READINGS, self.LOCATIONS, ["temp"])
        store.save("y", self.READINGS, self.LOCATIONS, ["temp"])
        assert store.exists("x") and store.names() == ["x", "y"]

    def test_load_missing_raises(self, spark, tmp_path):
        with pytest.raises(KeyError, match="not uploaded"):
            DatasetStore(tmp_path).load(spark, "ghost")

    def test_exists_does_not_read_outside_its_collection(self, tmp_path):
        store = DatasetStore(tmp_path)
        (tmp_path / "docs" / "x.json").write_text("{}")
        with pytest.raises(ValueError):
            store.exists("../x")


CAPS = [CAP(("a", "b"), ("x", "y"), 5, "a"), CAP(("b", "c"), ("y", "z"), 3, "a")]


class TestCapCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CapCache(DocumentStore(tmp_path))
        p = MiscelaParams()
        assert cache.get("d", p) is None
        cache.put("d", p, CAPS)
        assert cache.get("d", p) == sorted(CAPS, key=lambda c: c.sensors)
        assert cache.hits == 1 and cache.misses == 1

    def test_different_params_are_different_entries(self, tmp_path):
        cache = CapCache(DocumentStore(tmp_path))
        p1 = MiscelaParams(psi=5)
        p2 = MiscelaParams(psi=6)
        cache.put("d", p1, CAPS)
        assert cache.get("d", p2) is None
        assert cache.get("d", p1) is not None

    def test_different_dataset_different_entry(self, tmp_path):
        cache = CapCache(DocumentStore(tmp_path))
        p = MiscelaParams()
        cache.put("d1", p, CAPS)
        assert cache.get("d2", p) is None

    def test_empty_result_is_cached_too(self, tmp_path):
        # "no CAPs" is a valid, cacheable answer — must not re-mine
        cache = CapCache(DocumentStore(tmp_path))
        p = MiscelaParams()
        cache.put("d", p, [])
        assert cache.get("d", p) == []

    def test_invalidate(self, tmp_path):
        cache = CapCache(DocumentStore(tmp_path))
        p = MiscelaParams()
        cache.put("d", p, CAPS)
        assert cache.invalidate("d", p) is True
        assert cache.get("d", p) is None

    def test_stored_document_shape_matches_paper(self, tmp_path):
        # §3.3: "the name of the dataset, parameters, and CAPs"
        docs = DocumentStore(tmp_path)
        cache = CapCache(docs)
        p = MiscelaParams()
        cache.put("d", p, CAPS)
        doc = docs.get("cap_results", p.cache_key("d"))
        assert doc["dataset"] == "d"
        assert doc["params"]["psi"] == p.psi
        assert {tuple(c["sensors"]) for c in doc["caps"]} == {("a", "b"), ("b", "c")}

    def test_slot_hit_equals_disk_hit(self, tmp_path):
        docs = DocumentStore(tmp_path)
        cache = CapCache(docs)
        p = MiscelaParams()
        cache.put("d", p, CAPS[::-1])
        from_slot = cache.get("d", p)
        from_disk = CapCache(docs).get("d", p)
        assert from_slot == from_disk == sorted(CAPS, key=lambda c: c.sensors)
        assert [c.component for c in from_slot] == [c.component for c in from_disk]

    def test_hit_from_slot_reads_no_document(self, tmp_path, monkeypatch):
        docs = DocumentStore(tmp_path)
        cache = CapCache(docs)
        p, other = MiscelaParams(psi=5), MiscelaParams(psi=6)
        reads = []
        get = docs.get
        monkeypatch.setattr(docs, "get", lambda c, i: reads.append(c) or get(c, i))
        cache.put("d", p, CAPS)
        cache.put("d", other, CAPS[:1])
        reads.clear()
        for _ in range(3):
            assert cache.get("d", other) == CAPS[:1]
        assert "cap_results" not in reads  # the last put fills the slot
        assert cache.get("d", p) == sorted(CAPS, key=lambda c: c.sensors)
        assert reads.count("cap_results") == 1  # another key: read from disk once
        cache.get("d", p)
        assert reads.count("cap_results") == 1
        assert cache.hits == 5 and cache.misses == 0

    @pytest.mark.parametrize("how", ["put", "invalidate", "miss", "drop"])
    def test_slot_and_clicks_are_dropped(self, tmp_path, how):
        cache = CapCache(DocumentStore(tmp_path))
        p, other = MiscelaParams(psi=5), MiscelaParams(psi=6)
        cache.put("d", p, CAPS)
        cache.get("d", p)
        cache.clicks["a"] = {"b": ["x", "y"]}
        if how == "put":
            cache.put("d", other, CAPS[:1])
        elif how == "invalidate":
            assert cache.invalidate("d", p)
        elif how == "miss":
            assert cache.get("d2", p) is None
        else:
            cache.drop()
        assert cache.clicks == {}
        assert cache.get("d", p) == (None if how == "invalidate" else
                                     sorted(CAPS, key=lambda c: c.sensors))

    def test_mutating_a_returned_list_leaves_the_cache_intact(self, tmp_path):
        cache = CapCache(DocumentStore(tmp_path))
        p = MiscelaParams()
        cache.put("d", p, CAPS)
        got = cache.get("d", p)
        got.clear()
        assert cache.get("d", p) == sorted(CAPS, key=lambda c: c.sensors)
