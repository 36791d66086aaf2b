"""Tests for the §3.2 CSV schemas and the 10,000-line chunked upload."""
import numpy as np
import pandas as pd
import pytest

from repro.smartcity import covid19
from repro.smartcity.ingest import (
    ChunkedUploader,
    iter_data_chunks,
    read_attribute_csv,
    read_location_csv,
    upload_csv_bundle,
)
from repro.smartcity.schema import (
    ticks_to_timestamps,
    timestamps_to_ticks,
    write_csv_bundle,
)
from repro.store.datasets import DatasetStore


class TestTickConversion:
    def test_roundtrip_hourly(self):
        ticks = pd.Series([0, 1, 5, 100])
        ts = ticks_to_timestamps(ticks, "2016-03-01 00:00:00", 60)
        back = timestamps_to_ticks(ts, "2016-03-01 00:00:00", 60)
        assert back.tolist() == ticks.tolist()

    def test_paper_example_format(self):
        ts = ticks_to_timestamps(pd.Series([1]), "2016-03-01 00:00:00", 60)
        assert ts.iloc[0] == "2016-03-01 01:00:00"

    def test_off_grid_timestamp_rejected(self):
        with pytest.raises(ValueError, match="not on the 60-minute grid"):
            timestamps_to_ticks(pd.Series(["2016-03-01 00:30:00"]), "2016-03-01 00:00:00", 60)

    def test_minutely_grid(self):
        ts = ticks_to_timestamps(pd.Series([90]), "2020-01-01 00:00:00", 1)
        assert ts.iloc[0] == "2020-01-01 01:30:00"


@pytest.fixture(scope="module")
def bundle_dir(spark, tmp_path_factory):
    """A small covid dataset written out as the paper's CSV bundle."""
    d = covid19(spark, scale=0.05, seed=4)
    out = tmp_path_factory.mktemp("bundle")
    write_csv_bundle(
        out,
        d.readings.toPandas(),
        d.locations.toPandas(),
        d.attributes,
        d.start,
        d.interval_minutes,
    )
    return out, d


class TestCsvBundle:
    def test_files_exist_with_paper_headers(self, bundle_dir):
        out, _ = bundle_dir
        assert (out / "data.csv").read_text().splitlines()[0] == "id,attribute,time,data"
        assert (out / "location.csv").read_text().splitlines()[0] == "id,attribute,lat,lon"

    def test_nulls_written_as_literal_null(self, bundle_dir):
        out, _ = bundle_dir
        assert ",null" in (out / "data.csv").read_text()

    def test_attribute_csv_lists_attributes(self, bundle_dir):
        out, d = bundle_dir
        assert read_attribute_csv(out / "attribute.csv") == d.attributes

    def test_location_csv_roundtrip(self, bundle_dir):
        out, d = bundle_dir
        got = read_location_csv(out / "location.csv").sort_values("sensor_id").reset_index(drop=True)
        want = d.locations.toPandas().sort_values("sensor_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestChunking:
    def test_chunks_are_10000_lines_by_default(self, bundle_dir):
        out, d = bundle_dir
        chunks = list(iter_data_chunks(out / "data.csv"))
        assert all(len(c) == 10_000 for c in chunks[:-1])
        assert sum(len(c) for c in chunks) == d.n_records

    def test_custom_chunk_size(self, bundle_dir):
        out, d = bundle_dir
        chunks = list(iter_data_chunks(out / "data.csv", chunk_lines=777))
        assert all(len(c) == 777 for c in chunks[:-1])
        assert len(chunks) == -(-d.n_records // 777)

    def test_null_literal_parsed_as_nan(self, bundle_dir):
        out, d = bundle_dir
        chunk = next(iter_data_chunks(out / "data.csv"))
        assert chunk["data"].dtype == "float64"

    def test_missing_column_rejected(self, tmp_path):
        bad = tmp_path / "data.csv"
        bad.write_text("id,time,data\n0,2020-01-01 00:00:00,1.0\n")
        with pytest.raises(ValueError, match="missing columns"):
            next(iter_data_chunks(bad))


class TestUploadEndToEnd:
    def test_upload_roundtrips_relations(self, spark, bundle_dir, tmp_path):
        out, d = bundle_dir
        store = DatasetStore(tmp_path / "store")
        stats = upload_csv_bundle(store, "covid", out, chunk_lines=5000)
        assert stats["n_records"] == d.n_records
        assert stats["n_chunks"] == -(-d.n_records // 5000)
        readings, locations, doc = store.load(spark, "covid")
        assert doc["attributes"] == d.attributes
        got = readings.toPandas().sort_values(["sensor_id", "t"]).reset_index(drop=True)
        want = d.readings.toPandas().sort_values(["sensor_id", "t"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_upload_without_chunks_rejected(self, tmp_path):
        store = DatasetStore(tmp_path / "s")
        up = ChunkedUploader(store, "x")
        with pytest.raises(ValueError, match="no chunks"):
            up.commit(pd.DataFrame(columns=["sensor_id", "attribute", "lat", "lon"]), [])

    def test_unknown_attribute_rejected(self, tmp_path):
        store = DatasetStore(tmp_path / "s2")
        up = ChunkedUploader(store, "x")
        up.receive_chunk(
            pd.DataFrame(
                {"id": ["0"], "attribute": ["mystery"],
                 "time": ["2020-01-01 00:00:00"], "data": [1.0]}
            )
        )
        with pytest.raises(ValueError, match="not in attribute.csv"):
            up.commit(
                pd.DataFrame({"sensor_id": ["0"], "attribute": ["mystery"],
                              "lat": [0.0], "lon": [0.0]}),
                ["temperature"],
            )

    @staticmethod
    def _uploader(tmp_path, rows):
        store = DatasetStore(tmp_path / "s3")
        up = ChunkedUploader(store, "x")
        up.receive_chunk(pd.DataFrame(rows, columns=["id", "attribute", "time", "data"]))
        return store, up

    LOCATIONS = pd.DataFrame({"sensor_id": ["0", "1"], "attribute": ["temperature"] * 2,
                              "lat": [0.0, 0.0], "lon": [0.0, 0.001]})

    def test_duplicate_id_time_rejected(self, tmp_path):
        # the second reading of sensor 0 at 01:00 sits in its own chunk
        store, up = self._uploader(tmp_path, [
            ["0", "temperature", "2020-01-01 00:00:00", 1.0],
            ["0", "temperature", "2020-01-01 01:00:00", 2.0],
            ["1", "temperature", "2020-01-01 01:00:00", 2.0],
        ])
        up.receive_chunk(pd.DataFrame(
            [["0", "temperature", "2020-01-01 01:00:00", 3.0]],
            columns=["id", "attribute", "time", "data"]))
        with pytest.raises(ValueError, match=r"duplicate \(id, time\) rows: \[\[.0., .2020-01-01 01:00:00.\]\]"):
            up.commit(self.LOCATIONS, ["temperature"])
        assert store.names() == []

    def test_empty_data_csv_rejected(self, tmp_path):
        store, up = self._uploader(tmp_path, [])
        with pytest.raises(ValueError, match="data.csv has no rows"):
            up.commit(self.LOCATIONS, ["temperature"])
        assert store.names() == []

    def test_missing_id_time_row_rejected(self, bundle_dir, tmp_path):
        # one reading dropped from the middle of a sensor's series leaves a gap
        out, _ = bundle_dir
        gap = tmp_path / "gap"
        gap.mkdir()
        for name in ("location.csv", "attribute.csv"):
            (gap / name).write_text((out / name).read_text())
        lines = (out / "data.csv").read_text().splitlines(keepends=True)
        (gap / "data.csv").write_text("".join(lines[:10] + lines[11:]))
        store = DatasetStore(tmp_path / "store")
        with pytest.raises(ValueError, match=r"1 missing \(id, time\) rows"):
            upload_csv_bundle(store, "covid", gap)
        assert store.names() == []

    def test_id_missing_from_location_csv_rejected(self, tmp_path):
        store, up = self._uploader(tmp_path, [
            ["0", "temperature", "2020-01-01 00:00:00", 1.0],
            ["7", "temperature", "2020-01-01 00:00:00", 1.0],
        ])
        with pytest.raises(ValueError, match=r"ids not in location.csv: \['7'\]"):
            up.commit(self.LOCATIONS, ["temperature"])
        assert store.names() == []

    ROWS = [["0", "temperature", "2020-01-01 00:00:00", 1.0],
            ["1", "temperature", "2020-01-01 00:00:00", 2.0]]

    def test_duplicate_location_id_rejected(self, tmp_path):
        store, up = self._uploader(tmp_path, self.ROWS)
        twice = pd.concat([self.LOCATIONS, self.LOCATIONS.iloc[[1]]], ignore_index=True)
        with pytest.raises(ValueError, match=r"location.csv has duplicate ids: \['1'\]"):
            up.commit(twice, ["temperature"])
        assert store.names() == []

    def test_location_attribute_missing_from_attribute_csv_rejected(self, tmp_path):
        store, up = self._uploader(tmp_path, self.ROWS)
        other = self.LOCATIONS.assign(attribute=["temperature", "light"])
        with pytest.raises(ValueError,
                           match=r"location.csv attributes not in attribute.csv: \['light'\]"):
            up.commit(other, ["temperature"])
        assert store.names() == []

    @pytest.mark.parametrize("lat,lon", [
        ("north", 0.0), (0.0, None), (float("inf"), 0.0), (0.0, float("-inf")),
        (90.5, 0.0), (0.0, -180.5),
    ])
    def test_bad_lat_lon_rejected(self, tmp_path, lat, lon):
        store, up = self._uploader(tmp_path, self.ROWS)
        bad = self.LOCATIONS.astype({"lat": object, "lon": object})
        bad.loc[1, ["lat", "lon"]] = [lat, lon]
        with pytest.raises(ValueError, match=r"lat/lon .* for ids: \['1'\]"):
            up.commit(bad, ["temperature"])
        assert store.names() == []

    def test_data_attribute_differs_from_location_rejected(self, tmp_path):
        store, up = self._uploader(tmp_path, [
            ["0", "temperature", "2020-01-01 00:00:00", 1.0],
            ["1", "light", "2020-01-01 00:00:00", 2.0],
        ])
        with pytest.raises(ValueError, match=r"attribute differs from location.csv: "
                                             r"\[\['1', 'light'\]\]"):
            up.commit(self.LOCATIONS, ["temperature", "light"])
        assert store.names() == []

    def test_lat_lon_at_the_limits_accepted(self, tmp_path):
        store, up = self._uploader(tmp_path, self.ROWS)
        up.commit(self.LOCATIONS.assign(lat=[-90, 90], lon=[-180, 180]), ["temperature"])
        assert store.names() == ["x"]
