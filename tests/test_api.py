"""Tests for the API facade: the demo's interactive loop — upload,
mine (cache-aware), click-to-highlight, and the Figure-3 payloads."""
import dataclasses
import itertools
from pathlib import Path

import pandas as pd
import pytest

from repro.core.types import MiscelaParams
from repro.server import MiscelaApi
from repro.smartcity.schema import write_csv_bundle
from tests.helpers import scene_locations_pdf, scene_readings_pdf, SCENE_SENSORS

PARAMS = MiscelaParams(epsilon=0.1, eta_meters=500.0, mu=3, psi=3,
                       segment_tolerance=0.0, max_sensors=5)


def write_scene(directory, readings=None, locations=None):
    """The scene (or other readings and locations of its sensors) as a
    §3.2 CSV bundle in ``directory``."""
    write_csv_bundle(
        directory,
        scene_readings_pdf() if readings is None else readings,
        scene_locations_pdf() if locations is None else locations,
        sorted({a for _, a, _, _, _, _ in SCENE_SENSORS}),
        "2016-03-01 00:00:00", 60,
    )
    return directory


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return write_scene(tmp_path_factory.mktemp("scene_bundle"))


_GROUPS = itertools.count()


def spark_jobs(spark, fn, *args) -> int:
    """Spark jobs that ``fn(*args)`` runs, counted by a job group once
    the listener bus has delivered their events to the status tracker."""
    sc = spark.sparkContext
    group = f"count-{next(_GROUPS)}"
    sc.setJobGroup(group, group)
    try:
        fn(*args)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


def brute_force_clicks(caps, sensor):
    correlated: dict[str, set[str]] = {}
    for cap in caps:
        if sensor in cap.sensors:
            for other in cap.sensors:
                if other != sensor:
                    correlated.setdefault(other, set()).update(cap.attributes)
    return {s: sorted(a) for s, a in sorted(correlated.items())}


@pytest.fixture(scope="module")
def api(spark, tmp_path_factory, bundle):
    root = tmp_path_factory.mktemp("apiroot")
    api = MiscelaApi(spark, root)
    api.upload("scene", bundle, chunk_lines=50)
    return api


class TestUploadEndpoint:
    def test_dataset_registered(self, api):
        assert api.datasets() == ["scene"]

    def test_reupload_overwrites(self, spark, tmp_path, bundle):
        api = MiscelaApi(spark, tmp_path / "root")
        api.upload("scene", bundle, chunk_lines=50)
        new = scene_readings_pdf().assign(value=lambda d: d["value"] * 2 + 5)
        api.upload("scene", write_scene(tmp_path / "new", new), chunk_lines=50)
        readings, _, _ = api.store.load(spark, "scene")
        got = readings.toPandas().sort_values(["sensor_id", "t"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got, new.sort_values(["sensor_id", "t"]).reset_index(drop=True), check_dtype=False)
        chart = api.timeseries_payload("scene", ["a1"])["series"]["a1"]
        assert [p["value"] for p in chart] == pytest.approx(
            new.loc[new["sensor_id"] == "a1", "value"].tolist())

    def test_integer_columns_read_back_as_double(self, spark, tmp_path):
        # all-integer data, lat and lon columns parse as int64 in pandas
        readings = scene_readings_pdf().assign(value=lambda d: (d["value"] * 12).round())
        locations = scene_locations_pdf().assign(lat=range(6), lon=range(6))
        api = MiscelaApi(spark, tmp_path / "root")
        api.upload("ints", write_scene(tmp_path / "ints", readings.astype({"value": int}),
                                       locations), chunk_lines=50)
        r, l, _ = api.store.load(spark, "ints")
        assert dict(r.dtypes)["value"] == dict(l.dtypes)["lat"] == dict(l.dtypes)["lon"] == "double"
        got = r.toPandas().sort_values(["sensor_id", "t"]).reset_index(drop=True)
        pd.testing.assert_series_equal(got["value"], readings["value"])
        chart = api.timeseries_payload("ints", ["a1"])["series"]["a1"]
        want = readings.loc[readings["sensor_id"] == "a1", "value"].tolist()
        assert [p["value"] for p in chart] == want
        assert all(isinstance(p["value"], float) for p in chart)


class TestDatasetNames:
    @pytest.mark.parametrize("bad", ["../x", "../../x", "a/b", ""])
    def test_unsafe_name_rejected_and_nothing_written(self, spark, tmp_path, bundle, bad):
        root = tmp_path / "store"
        api = MiscelaApi(spark, root)
        with pytest.raises(ValueError):
            api.upload(bad, bundle, chunk_lines=50)
        with pytest.raises(ValueError):
            api.mine(bad, PARAMS)
        assert [p.name for p in tmp_path.iterdir()] == ["store"]
        assert [p.name for p in root.iterdir()] == ["docs"]
        assert api.datasets() == []

    @pytest.mark.parametrize("bad", ["../x", "../datasets/scene"])
    def test_unsafe_name_read_nothing(self, spark, tmp_path, bundle, bad, monkeypatch):
        root = tmp_path / "store"
        api = MiscelaApi(spark, root)
        api.upload("scene", bundle, chunk_lines=50)
        (root / "docs" / "x.json").write_text("{}")
        reads = []
        read_text = Path.read_text
        monkeypatch.setattr(Path, "read_text",
                            lambda self, *a, **k: reads.append(self) or read_text(self, *a, **k))
        with pytest.raises(ValueError):
            api.mine(bad, PARAMS)
        assert reads == []


class TestMineEndpoint:
    def test_first_call_misses_cache(self, api):
        r = api.mine("scene", PARAMS)
        assert r.from_cache is False
        assert r.n_caps == 5  # the scene's planted CAPs (see test_miscela)

    def test_second_call_hits_cache_same_results(self, api):
        r1 = api.mine("scene", PARAMS)
        r2 = api.mine("scene", PARAMS)
        assert r2.from_cache is True
        assert set(r2.caps) == set(r1.caps)

    def test_changed_params_miss_cache(self, api):
        r = api.mine("scene", dataclasses.replace(PARAMS, psi=4))
        assert r.from_cache is False
        assert r.n_caps == 4  # cluster B (support 3) drops out

    def test_cached_call_is_not_slower_class_of_work(self, api):
        api.mine("scene", PARAMS)
        r = api.mine("scene", PARAMS)
        assert r.from_cache and r.elapsed_s < 1.0

    def test_unknown_dataset_raises(self, api):
        with pytest.raises(KeyError):
            api.mine("ghost", PARAMS)

    def test_search_stats_reported_on_a_miss_only(self, api):
        api.cache.invalidate("scene", PARAMS)
        miss = api.mine("scene", PARAMS)
        assert miss.stats is not None and miss.stats.emitted == miss.n_caps
        assert api.mine("scene", PARAMS).stats is None

    def test_truncation_by_max_sensors_is_reported(self, api):
        # cluster A is a triangle: every pair could still grow by one
        r = api.mine("scene", dataclasses.replace(PARAMS, max_sensors=2))
        assert r.stats.hit_max_sensors > 0
        assert all(c.size <= 2 for c in r.caps)

    def test_timings_are_flat_seconds(self, api):
        r = api.mine("scene", dataclasses.replace(PARAMS, mu=2))
        assert set(r.timings) >= {"segment_and_extract_s", "spatial_join_s", "search_s"}
        assert all(isinstance(v, float) and v >= 0 for v in r.timings.values())


class TestReupload:
    def test_reupload_drops_the_cache_slot(self, spark, tmp_path, bundle):
        api = MiscelaApi(spark, tmp_path / "a")
        api.upload("city", bundle, chunk_lines=50)
        api.mine("city", PARAMS)
        assert api.correlated_sensors("city", PARAMS, "b1") == {"b2": ["temperature", "traffic"]}
        assert api.cache.clicks
        api.upload("city", bundle, chunk_lines=50)
        assert api.cache.clicks == {} and api.cache._caps == ()


class TestSparkJobs:
    def test_only_a_cold_mine_runs_spark_jobs(self, spark, tmp_path, bundle):
        api = MiscelaApi(spark, tmp_path / "root")
        assert spark_jobs(spark, api.upload, "scene", bundle, 50) == 0
        assert spark_jobs(spark, api.mine, "scene", PARAMS) > 0  # the cold mine
        assert spark_jobs(spark, api.mine, "scene", PARAMS) == 0  # a cache hit
        assert spark_jobs(spark, api.correlated_sensors, "scene", PARAMS, "a1") == 0
        assert spark_jobs(spark, api.timeseries_payload, "scene", ["a1", "b1"], 3, 20) == 0
        assert spark_jobs(spark, api.map_payload, "scene", PARAMS, "a1") == 0


class TestSparkStorage:
    def test_cold_mines_leave_nothing_persisted(self, api, spark):
        jsc = spark.sparkContext._jsc
        before = len(jsc.getPersistentRDDs())
        for psi in (2, 3):
            params = dataclasses.replace(PARAMS, psi=psi, max_sensors=4)
            api.cache.invalidate("scene", params)
            assert api.mine("scene", params).from_cache is False
        assert len(jsc.getPersistentRDDs()) == before


class TestCorrelatedSensors:
    def test_click_a1_highlights_cluster(self, api):
        got = api.correlated_sensors("scene", PARAMS, "a1")
        assert set(got) == {"a2", "a3"}
        assert got["a2"] == ["light", "temperature", "traffic"]

    def test_click_b1(self, api):
        got = api.correlated_sensors("scene", PARAMS, "b1")
        assert set(got) == {"b2"}
        assert got["b2"] == ["temperature", "traffic"]

    def test_click_isolated_sensor_empty(self, api):
        assert api.correlated_sensors("scene", PARAMS, "c1") == {}

    def test_every_click_matches_a_scan_of_the_caps(self, api):
        other = dataclasses.replace(PARAMS, psi=4)
        for params in (PARAMS, other, PARAMS):  # re-mines swap the cache slot
            caps = api.mine("scene", params).caps
            for _ in range(2):  # the first click scans, the repeat is a lookup
                for s, *_ in SCENE_SENSORS:
                    assert api.correlated_sensors("scene", params, s) == brute_force_clicks(caps, s)

    def test_mutating_an_answer_leaves_the_next_one_intact(self, api):
        got = api.correlated_sensors("scene", PARAMS, "a1")
        got["a2"].clear()
        got.clear()
        assert api.correlated_sensors("scene", PARAMS, "a1")["a2"] == [
            "light", "temperature", "traffic"]


class TestMapPayload:
    def test_markers_cover_all_sensors(self, api):
        p = api.map_payload("scene", PARAMS)
        assert [m["sensor_id"] for m in p["markers"]] == ["a1", "a2", "a3", "b1", "b2", "c1"]
        assert p["n_highlighted"] == 0

    def test_click_highlights_clicked_and_correlated(self, api):
        p = api.map_payload("scene", PARAMS, clicked="a1")
        hl = {m["sensor_id"] for m in p["markers"] if m["highlighted"]}
        assert hl == {"a1", "a2", "a3"}
        assert p["n_highlighted"] == 3

    def test_clicked_view_reads_the_cache_once_and_no_readings(self, api, monkeypatch):
        api.cache.drop()  # the slot may hold another entry: make the hit read the document
        gets = []
        get = api.cache.get
        monkeypatch.setattr(api.cache, "get", lambda *a: gets.append(a) or get(*a))
        monkeypatch.setattr(api.store, "load", None)  # readings are not needed
        clicked = api.map_payload("scene", PARAMS, clicked="a1")
        assert len(gets) == 1
        plain = api.map_payload("scene", PARAMS)
        assert clicked["caps"] == plain["caps"]
        assert [{**m, "highlighted": False} for m in clicked["markers"]] == plain["markers"]

    def test_markers_carry_cap_membership(self, api):
        p = api.map_payload("scene", PARAMS)
        by_id = {m["sensor_id"]: m for m in p["markers"]}
        assert len(by_id["a1"]["caps"]) == 3  # {a1,a2},{a1,a3},{a1,a2,a3}
        assert by_id["c1"]["caps"] == []
        for i in by_id["a1"]["caps"]:
            assert "a1" in p["caps"][i]["sensors"]


class TestTimeseriesPayload:
    def test_full_series(self, api):
        p = api.timeseries_payload("scene", ["a1", "b1"])
        assert set(p["series"]) == {"a1", "b1"}
        assert len(p["series"]["a1"]) == 30
        assert p["interval_minutes"] == 60

    def test_zoom_window_clips(self, api):
        p = api.timeseries_payload("scene", ["a1"], t_min=5, t_max=10)
        ts = [pt["t"] for pt in p["series"]["a1"]]
        assert ts == list(range(5, 11))

    def test_requesting_unknown_sensor_gives_empty_series(self, api):
        p = api.timeseries_payload("scene", ["nope"])
        assert p["series"]["nope"] == []
